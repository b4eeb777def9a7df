"""Bounded model enumeration and the direct havoc/entailment checks."""

import gc
import hashlib
import itertools
import json
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clhavoc import logic, oracle
from clhavoc.automata import sid_to_ta
from clhavoc.core import Behavior, Configuration, Interaction, step
from clhavoc.frontend import parse_system, render_config
from clhavoc.logic import (Comp, Eq, Neq, Pred, SID, StateAtom, Var, complete_unfoldings,
                           eval_bounded, eval_pf, exists, sep, var_text)
from clhavoc.oracle import (Counterexample, CrossReport, EntailReport, HavocReport,
                            Model, _model_order, _successor_keys, _successors,
                            canonical_model, cross_validate_reduction,
                            enumerate_models, enumerate_pf_models, entails_bounded,
                            exact_form, from_exact, havoc_invariant_bounded)
from clhavoc.reduction import class_equiv, reduce_havoc_to_entailment
from clhavoc.transducer import transducer_step

from conftest import REUSE_CASES, corpus, corpus_text, source_fixtures
from reference import unfold

X1, X2 = Var("x1"), Var("x2")


def test_chain_base_single_model(ring):
    atom = Pred("Chain_0_1", (X1, X1))
    ms = enumerate_models(ring.sid, atom, 1)
    assert len(ms) == 1
    m = ms.models()[0]
    assert len(m.config.components) == 1
    assert not m.config.interactions
    c = next(iter(m.config.components))
    assert m.config.state_map[c] == "T"
    assert m.store[X1] == c


def test_unsatisfiable_body_has_no_models():
    from clhavoc.logic import Rule
    sid = SID((Rule("A", (X1, X2), (), (Eq(X1, X2), Neq(X1, X2))),),
              Behavior.make(["p"], ["q"], []))
    assert len(enumerate_models(sid, sid.atom("A"), 1)) == 0


def test_ring_model_count_matches_hand_count(ring):
    # rings of size 2 and 3 with at least one H and one T, up to renaming:
    # (H,T), (H,H,T), (H,T,T)
    ms = enumerate_models(ring.sid, ring.sid.atom("Ring_1_1"), 4)
    assert len(ms) == 3
    # one size further: add the three size-4 necklaces (H,H,H,T), (H,H,T,T),
    # (H,T,H,T), (H,T,T,T)
    ms5 = enumerate_models(ring.sid, ring.sid.atom("Ring_1_1"), 5)
    assert len(ms5) == 7


def test_canonicalization_ignores_rule_order(ring):
    sid = ring.sid
    shuffled = SID(tuple(reversed(sid.rules)), sid.behavior)
    a = set(enumerate_models(sid, sid.atom("Ring_1_1"), 4).keys())
    b = set(enumerate_models(shuffled, shuffled.atom("Ring_1_1"), 4).keys())
    assert a == b


def test_canonical_model_quotient():
    rho1 = {"a": "H", "b": "T"}
    rho2 = {"u": "H", "w": "T"}
    g1 = Configuration.make(["a", "b"], [Interaction.make(("a", "out"), ("b", "in"))], rho1)
    g2 = Configuration.make(["u", "w"], [Interaction.make(("u", "out"), ("w", "in"))], rho2)
    assert canonical_model(g1, {X1: "a"}) == canonical_model(g2, {X1: "u"})
    assert canonical_model(g1, {X1: "a"}) != canonical_model(g1, {X1: "b"})


@settings(max_examples=120, deadline=None)
@given(st.permutations(["a", "b", "c", "d"]),
       st.lists(st.sampled_from(["H", "T"]), min_size=4, max_size=4),
       st.integers(min_value=0, max_value=3))
def test_canonical_model_invariant_under_renaming(perm, states, store_pick):
    ids = ["a", "b", "c", "d"]
    rho = dict(zip(ids, states))
    inters = [Interaction.make((ids[i], "out"), (ids[(i + 1) % 4], "in"))
              for i in range(4)]
    g = Configuration.make(ids[:3], inters, rho)
    nu = {Var("x1"): ids[store_pick]}
    ren = dict(zip(ids, perm))
    g2 = Configuration.make(
        (ren[c] for c in g.components),
        (Interaction(tuple((ren[c], p) for c, p in i.bindings))
         for i in g.interactions),
        {ren[c]: q for c, q in g.state_pairs})
    nu2 = {v: ren[c] for v, c in nu.items()}
    assert canonical_model(g, nu) == canonical_model(g2, nu2)


def test_loose_models_enumerate_absent_states(tll_original):
    sid = tll_original.sid
    ms = enumerate_models(sid, sid.atom("Root"), 2)
    assert len(ms) > 0
    assert any(not all(c in m.config.components
                       for i in m.config.interactions for c in i.components)
               for m in ms.models())


# ---------------------------------------------------------------------------
# havoc invariance

def test_ring_invariant_depth_5(ring):
    rep = havoc_invariant_bounded(ring.sid, "Ring_1_1", 5)
    assert rep.invariant
    assert rep.models == 7


def test_th_counterexample_one_step(bad):
    rep = havoc_invariant_bounded(bad.sid, "TH", 1)
    assert not rep.invariant
    ce = rep.counterexample
    assert ce.config.state_map[ce.store[Var("x1")]] == "T"
    assert ce.successor.state_map[ce.store[Var("x1")]] == "H"
    assert len(ce.config.components) == 2


def test_no_interactions_vacuously_invariant():
    from clhavoc.logic import Rule
    sid = SID((Rule("A", (X1,), (), (Comp(X1), StateAtom(X1, "q"))),),
              Behavior.make(["p"], ["q"], []))
    rep = havoc_invariant_bounded(sid, "A", 3)
    assert rep.invariant


# ---------------------------------------------------------------------------
# bounded entailment

def test_entails_reflexive(ring):
    assert entails_bounded(ring.sid, "Ring_1_1", "Ring_1_1", 3).holds


def test_ring_entails_unrolled_side_condition(ring2):
    # the first consequence-rule side condition of the reconfiguration proof
    rep = entails_bounded(ring2.sid, "Ring_1_1", "Side", 4)
    assert rep.holds


def test_chain11_does_not_entail_chain21(ring2):
    rep = entails_bounded(ring2.sid, "Chain_1_1", "Chain_2_1", 4)
    assert not rep.holds
    assert rep.counterexample is not None


def test_entails_transitive_on_holding_links(ring2):
    a = entails_bounded(ring2.sid, "Ring_1_1", "Side", 4)
    b = entails_bounded(ring2.sid, "Side", "Ring_1_1", 4)
    if a.holds and b.holds:
        assert entails_bounded(ring2.sid, "Ring_1_1", "Ring_1_1", 4).holds


def test_entails_smaller_rhs_arity_rejected(ring2):
    with pytest.raises(ValueError):
        entails_bounded(ring2.sid, "Chain_1_1", "Ring_1_1", 2)


# ---------------------------------------------------------------------------
# one step suffices

@pytest.mark.parametrize("name,pred,depth", [
    ("ring", "Ring_1_1", 4), ("bad", "TH", 2), ("tll", "Root", 3),
    ("pcring", "PcRing_1_1", 4),
])
def test_one_step_closure_iff_multi_step(name, pred, depth, request):
    sf = request.getfixturevalue(name)
    sid = sf.sid
    ms = enumerate_models(sid, sid.atom(pred), depth)
    keys = set(ms.keys())

    def successors_of(model):
        for inter in model.config.interactions:
            yield from step(sid.behavior, model.config, inter)

    one_step = all(canonical_model(g2, m.store) in keys
                   for m in ms.models() for g2 in successors_of(m))

    multi = True
    for m in ms.models():
        seen = {m.config}
        frontier = [m.config]
        while frontier:
            nxt = []
            for g in frontier:
                for inter in g.interactions:
                    for g2 in step(sid.behavior, g, inter):
                        if g2 not in seen:
                            seen.add(g2)
                            nxt.append(g2)
            frontier = nxt
        if not all(canonical_model(g, m.store) in keys for g in seen):
            multi = False
    assert one_step == multi


# ---------------------------------------------------------------------------
# membership by canonical key against a per-query reference

def one_step_successors(sid, ms):
    for _, model in _model_order(ms):
        for inter in sorted(model.config.interactions, key=repr):
            for g2 in sorted(step(sid.behavior, model.config, inter),
                             key=lambda c: c.state_pairs):
                yield model, inter, g2


@pytest.mark.parametrize("name,depth", [
    ("ring", 4), ("bad", 2), ("tll", 3), ("pcring", 4), ("chain", 4),
])
def test_model_key_membership_matches_eval_pf_on_successors(name, depth, request):
    # every model and one-step successor of each predicate, looked up by
    # canonical key in the model set of every predicate of the same arity
    sid = request.getfixturevalue(name).sid
    complete = {p: [u for u, done in unfold(sid, sid.atom(p), depth) if done]
                for p in sid.predicates}
    outcomes = set()
    for pred in sid.predicates:
        ms = enumerate_models(sid, sid.atom(pred), depth)
        candidates = [(m.config, m.store) for m in ms.models()]
        candidates += [(g2, m.store) for m, _, g2 in one_step_successors(sid, ms)]
        for other in sid.predicates:
            if sid.arity(other) != sid.arity(pred):
                continue
            other_ms = enumerate_models(sid, sid.atom(other), depth)
            for g, nu in candidates:
                want = any(eval_pf(g, nu, u) for u in complete[other])
                assert (canonical_model(g, nu) in other_ms) == want, (other, g, nu)
                outcomes.add(want)
    assert True in outcomes


def test_oracle_compiles_no_check(monkeypatch):
    # havoc and entailment look successors and left models up by key in the
    # model sets; a fresh SID, so no earlier test has built them
    sid = parse_system(XVAL_TEXTS["ring.clsys"]).sid
    calls = []
    satisfies = logic.satisfies
    monkeypatch.setattr(logic, "satisfies",
                        lambda *args: calls.append(args) or satisfies(*args))
    assert havoc_invariant_bounded(sid, "Ring_1_1", 4).invariant
    assert not havoc_invariant_bounded(parse_system(ANCHORED).sid, "Anchored", 4).invariant
    assert entails_bounded(sid, "Chain_1_1", "Chain_0_1", 4).holds
    # the right-hand side has two more parameters than the left
    assert not entails_bounded(sid, "Ring_1_1", "Chain_1_1", 4).holds
    assert calls == []
    # the reference semantics does match, through the patched matcher
    assert eval_pf(Configuration.make([], [], {}), {}, sep())
    assert len(calls) == 1


def reference_havoc(sid, pred, depth):
    atom = sid.atom(pred)
    ms = enumerate_models(sid, atom, depth)
    for model, inter, g2 in one_step_successors(sid, ms):
        if not eval_bounded(g2, model.store, atom, sid, depth):
            return HavocReport(False, depth, len(ms),
                               Counterexample(model.config, model.store, inter, g2))
    return HavocReport(True, depth, len(ms), None)


def reference_entails(sid, lhs, rhs, depth):
    extra = tuple(Var(f"x{i}") for i in range(sid.arity(lhs) + 1, sid.arity(rhs) + 1))
    ms = enumerate_models(sid, sid.atom(lhs), depth)
    for _, model in _model_order(ms):
        if not eval_bounded(model.config, model.store, exists(extra, sid.atom(rhs)),
                            sid, depth):
            return EntailReport(False, depth, len(ms),
                                Counterexample(model.config, model.store, None, None))
    return EntailReport(True, depth, len(ms), None)


# A ring anchored at an H component: firing either of the anchor's
# interactions moves its token, so every model with interactions fails.
ANCHORED = """
behavior {
  ports in, out;
  states H, T;
  trans T -out-> H;
  trans H -in-> T;
}
sid {
  Anchored(x) <- exists y, z . comp(x : H) * <x.out, z.in> * <y.out, x.in> * Chain[1, 1](z, y);
  Chain[h=0..1, t=0..1](x, y) <- exists z . comp(x : H) * <x.out, z.in> * Chain[max(h-1, 0), t](z, y);
  Chain[h=0..1, t=0..1](x, y) <- exists z . comp(x : T) * <x.out, z.in> * Chain[h, max(t-1, 0)](z, y);
  Chain[0, 1](x, y) <- x = y * comp(x : T);
  Chain[1, 0](x, y) <- x = y * comp(x : H);
  Chain[0, 0](x, y) <- x = y * comp(x);
}
"""


@pytest.fixture(scope="module")
def anchored():
    return parse_system(ANCHORED)


@pytest.mark.parametrize("name,depth", [("bad", 2), ("ring", 3), ("anchored", 4)])
def test_reports_match_reference_loops(name, depth, request):
    sid = request.getfixturevalue(name).sid
    verdicts = set()
    for pred in sid.predicates:
        rep = havoc_invariant_bounded(sid, pred, depth)
        assert rep == reference_havoc(sid, pred, depth), pred
        verdicts.add(rep.invariant)
    for lhs in sid.predicates:
        for rhs in sid.predicates:
            if sid.arity(rhs) >= sid.arity(lhs):
                rep = entails_bounded(sid, lhs, rhs, depth)
                assert rep == reference_entails(sid, lhs, rhs, depth), (lhs, rhs)
                verdicts.add(rep.holds)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# canonical keys against the permutation reference

def reference_key(g, nu):
    """The least serialization over every id order that keeps each group of
    equal three-round signatures together, groups in signature order."""
    ids = sorted(g.carrier)
    rho = g.state_map
    sig = {c: (c in g.components, rho[c],
               tuple(sorted((i.itype, pos) for i in g.interactions
                            for pos, cid in enumerate(i.components) if cid == c)),
               tuple(sorted(var_text(v) for v, cid in nu.items() if cid == c)))
           for c in ids}
    for _ in range(2):
        sig = {c: (sig[c], tuple(sorted(tuple(sig[d] for d in i.components)
                                        for i in g.interactions if c in i.components)))
               for c in ids}
    groups = {}
    for c in ids:
        groups.setdefault(sig[c], []).append(c)
    best = None
    for perm_choice in itertools.product(*[itertools.permutations(groups[k])
                                           for k in sorted(groups)]):
        order = [c for grp in perm_choice for c in grp]
        ren = {c: f"m{i}" for i, c in enumerate(order)}
        key = (
            tuple(sorted(ren[c] for c in g.components)),
            tuple(sorted(tuple((ren[c], p) for c, p in i.bindings)
                         for i in g.interactions)),
            tuple(sorted((ren[c], q) for c, q in g.state_pairs)),
            tuple(sorted((var_text(v), ren[c]) for v, c in nu.items())),
        )
        if best is None or key < best:
            best = key
    return best


def renamed(g, nu, ren):
    return (Configuration.make(
        (ren[c] for c in g.components),
        (Interaction(tuple((ren[c], p) for c, p in i.bindings)) for i in g.interactions),
        {ren[c]: q for c, q in g.state_pairs}), {v: ren[c] for v, c in nu.items()})


def random_renaming(g, rnd):
    ids = sorted(g.carrier)
    shuffled = list(ids)
    rnd.shuffle(shuffled)
    return {c: "r" + d for c, d in zip(ids, shuffled)}


def assert_same_classes(items):
    """Two items get equal keys exactly when they get equal reference keys."""
    by_key, by_ref = {}, {}
    for g, nu in items:
        key, ref = canonical_model(g, nu), reference_key(g, nu)
        by_key.setdefault(key, set()).add(ref)
        by_ref.setdefault(ref, set()).add(key)
    assert all(len(refs) == 1 for refs in by_key.values())
    assert all(len(keys) == 1 for keys in by_ref.values())
    return len(by_key)


@pytest.mark.parametrize("name,depth", [
    ("ring", 6), ("chain", 5), ("tll_pcr", 4), ("pcring", 4), ("bad", 3),
])
def test_canonical_model_matches_reference_classes(name, depth, request):
    # every model and one-step successor of every predicate, plus a seeded
    # random renaming of each
    sid = request.getfixturevalue(name).sid
    rnd = random.Random(f"{name}/{depth}")
    items = []
    for pred in sid.predicates:
        ms = enumerate_models(sid, sid.atom(pred), depth)
        items += [(m.config, m.store) for m in ms.models()]
        items += [(g2, m.store) for m, _, g2 in one_step_successors(sid, ms)]
    items += [renamed(g, nu, random_renaming(g, rnd)) for g, nu in items]
    assert assert_same_classes(items) <= len(items) // 2


@st.composite
def small_models(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    ids = [f"c{k}" for k in range(n)]
    binding = st.tuples(st.sampled_from(ids), st.sampled_from(["in", "out"]))
    inters = draw(st.lists(st.lists(binding, min_size=1, max_size=3,
                                    unique_by=lambda b: b[0]), max_size=6))
    g = Configuration.make(
        draw(st.lists(st.sampled_from(ids), unique=True)),
        (Interaction(tuple(b)) for b in inters),
        {c: draw(st.sampled_from(["H", "T"])) for c in ids})
    nu = draw(st.dictionaries(st.sampled_from([X1, X2, Var("x3")]), st.sampled_from(ids)))
    return g, nu


@settings(max_examples=300, deadline=None)
@given(small_models(), small_models(), st.randoms(use_true_random=False))
def test_canonical_model_matches_reference_on_random_models(a, b, rnd):
    ra = renamed(*a, random_renaming(a[0], rnd))
    rb = renamed(*b, random_renaming(b[0], rnd))
    assert canonical_model(*a) == canonical_model(*ra)
    assert canonical_model(*b) == canonical_model(*rb)
    assert_same_classes([a, ra, b, rb])


def test_canonical_model_symmetric_ring():
    # all ten components look alike until one is individualised; the
    # permutation search would try 9! orders per key
    n = 10
    ids = [f"c{k}" for k in range(n)]

    def ring_of(order, closed=True):
        inters = [Interaction.make((order[k], "out"), (order[(k + 1) % n], "in"))
                  for k in range(n if closed else n - 1)]
        return Configuration.make(order, inters, {c: "H" for c in order})

    key = canonical_model(ring_of(ids), {})
    rotated = {ids[k]: ids[(k + 3) % n] for k in range(n)}
    reflected = {ids[k]: ids[-k % n] for k in range(n)}
    for ren in (rotated, reflected):
        assert canonical_model(*renamed(ring_of(ids), {}, ren)) == key
    assert canonical_model(ring_of(ids, closed=False), {}) != key
    assert canonical_model(ring_of(ids[::-1]), {}) == key


def test_canonical_model_where_refinement_is_blind():
    # every component of disjoint directed rings looks alike to colour
    # refinement, yet components of different rings lie in different orbits,
    # so the key must not depend on which member the search picks first
    def rings(*sizes, names):
        it = iter(names)
        comps, inters = [], []
        for n in sizes:
            ring = [next(it) for _ in range(n)]
            comps += ring
            inters += [Interaction.make((ring[k], "out"), (ring[(k + 1) % n], "in"))
                       for k in range(n)]
        return Configuration.make(comps, inters, {c: "H" for c in comps})

    names = [f"c{k}" for k in range(7)]
    split = rings(3, 4, names=names)
    key = canonical_model(split, {})
    for shift in range(1, 7):
        moved = rings(3, 4, names=names[shift:] + names[:shift])
        assert canonical_model(moved, {}) == key
        assert_same_classes([(split, {}), (moved, {})])
    six = names[:6]
    assert canonical_model(rings(3, 3, names=six), {}) != canonical_model(rings(6, names=six), {})
    assert_same_classes([(rings(3, 3, names=six), {}), (rings(6, names=six), {}),
                         (rings(3, 3, names=six[::-1]), {})])


@pytest.mark.parametrize("fixture, pred, depth, count, digest", [
    ("ring", "Ring_0_0", 6, 21,
     "98590dd2d1386233692af5354087309002f937ab684796e61b1797785ecb89f4"),
    ("tll", "Root", 3, 8,
     "f9df52751bad71c33972a822f88dba432aea44d4da75d0d1d69a045a46a982da"),
    ("pcring", "PcRing_1_1", 4, 22,
     "ac011521b7444053771fdae1d1dc5dc94933cae4970405b8486de9daff69cad6"),
    # the smallest fixture case where visiting the classes in another order
    # keeps other models (reversing the class order changes this digest)
    ("tll_original", "Root", 2, 16,
     "48a619ff2cd6eac00ebbdf69def7d823b16a5806ac448acb2aaeed44585ea78c"),
])
def test_enumerated_models_pinned(request, fixture, pred, depth, count, digest):
    # which concrete model a canonical key keeps depends on the order in which
    # enumerate_pf_models visits equality classes, and that model is the one a
    # counterexample reports; the digests were recorded before the equality
    # closures moved into eqform.Partition
    sid = request.getfixturevalue(fixture).sid
    rows = [[render_config("m", m.config), sorted((var_text(v), c) for v, c in m.store.items())]
            for m in enumerate_models(sid, sid.atom(pred), depth).models()]
    assert len(rows) == count
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# model sets built once per SID, reused by cross-validation

def reference_cross_validate(sid, pred, depth, result):
    """cross_validate_reduction as it was before model sets were kept per SID."""
    atom = sid.atom(pred)
    left: dict[tuple, None] = {}
    for _, model in _model_order(enumerate_models(sid, atom, depth)):
        for inter in sorted(model.config.interactions, key=repr):
            if not all(c in model.config.components for c in inter.components):
                continue
            for g2 in step(sid.behavior, model.config, inter):
                left.setdefault(canonical_model(g2, model.store))
    right: dict[tuple, Model] = {}
    for target in result.targets:
        right.update(enumerate_models(result.derived_sid,
                                      result.derived_sid.atom(target), depth).entries)
    left_only = sorted(k for k in left if k not in right)
    right_only = sorted(k for k in right if k not in left)
    return CrossReport(not left_only and not right_only, depth,
                       len(left), len(right), left_only, right_only)


def check_then_validate(sf, pred, depth):
    """The oracle calls of `clhavoc check` and then `clhavoc oracle` on one
    parse: entailments, the direct check, cross-validation."""
    result = reduce_havoc_to_entailment(sf.sid, pred, assume_tight=True)
    for lhs, rhs in result.entailments:
        entails_bounded(result.combined_sid, lhs, rhs, depth)
    havoc_invariant_bounded(sf.sid, pred, depth)
    return result, cross_validate_reduction(sf.sid, pred, depth, result)


XVAL_TEXTS = {p.name: p.read_text() for p in source_fixtures()}
# every predicate of every source fixture (tll_original's rank-2 loose lists
# at depth 2), and the ring family's checked predicates
XVAL_CASES = [(name, pred, 2 if name == "tll_original.clsys" else 3)
              for name, text in XVAL_TEXTS.items()
              for pred in parse_system(text).sid.predicates]
for k in (2, 3):
    XVAL_TEXTS[f"ring{k}"] = XVAL_TEXTS["ring.clsys"].replace("=0..1", f"=0..{k}")
    XVAL_CASES.append((f"ring{k}", f"Ring_{k}_{k}", 3))


@pytest.mark.parametrize("name,pred,depth", XVAL_CASES)
def test_cross_validation_matches_reference(name, pred, depth):
    # the reference runs on a parse of its own, so no model set is shared
    fresh = parse_system(XVAL_TEXTS[name])
    fresh_result = reduce_havoc_to_entailment(fresh.sid, pred, assume_tight=True)
    want = reference_cross_validate(fresh.sid, pred, depth, fresh_result)
    result, got = check_then_validate(parse_system(XVAL_TEXTS[name]), pred, depth)
    assert got == want
    # a target unfolds in the combined SID as in the derived one
    for t in result.targets:
        derived = enumerate_models(fresh_result.derived_sid, fresh_result.derived_sid.atom(t),
                                   depth)
        combined = enumerate_models(result.combined_sid, result.combined_sid.atom(t), depth)
        assert derived.keys() == combined.keys(), t
        assert [m.provenance for m in derived.models()] == \
            [m.provenance for m in combined.models()], t


def checked(name, pred, depth):
    """A fresh parse reduced for pred, with every entailment checked, as
    `clhavoc check` does."""
    sid = parse_system(XVAL_TEXTS[name]).sid
    result = reduce_havoc_to_entailment(sid, pred, assume_tight=True)
    assert result.targets
    for lhs, rhs in result.entailments:
        entails_bounded(result.combined_sid, lhs, rhs, depth)
    return sid, result


def spy_unfoldings(monkeypatch):
    """Record every unfolding walk the oracle starts from now on."""
    calls = []
    monkeypatch.setattr(oracle, "complete_unfoldings",
                        lambda *args: calls.append(args) or complete_unfoldings(*args))
    return calls


@pytest.mark.parametrize("name,pred,depth", REUSE_CASES)
def test_unfolding_spy_sees_a_fresh_enumeration(name, pred, depth, monkeypatch):
    # the reuse tests below assert that the spy records nothing; this one
    # fails if the oracle stops calling the walk the spy wraps
    calls = spy_unfoldings(monkeypatch)
    sid = parse_system(XVAL_TEXTS[name]).sid
    assert enumerate_models(sid, sid.atom(pred), depth)
    assert calls == [(sid, sid.atom(pred), depth)]


@pytest.mark.parametrize("name,pred,depth", REUSE_CASES)
def test_cross_validation_reuses_built_models(name, pred, depth, monkeypatch):
    sid, result = checked(name, pred, depth)
    havoc_invariant_bounded(sid, pred, depth)
    calls = spy_unfoldings(monkeypatch)
    cross_validate_reduction(sid, pred, depth, result)
    assert calls == []


def test_model_memo_belongs_to_one_sid_object():
    a, b = parse_system(XVAL_TEXTS["ring.clsys"]).sid, parse_system(XVAL_TEXTS["ring.clsys"]).sid
    assert a._memo is not b._memo and a._keys is not b._keys
    ms = enumerate_models(a, a.atom("Ring_1_1"), 3)
    assert enumerate_models(a, a.atom("Ring_1_1"), 3) is ms
    assert a._memo and not b._memo
    assert a._keys and not b._keys
    # equality, hash and text ignore the memo and the key table
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    other = enumerate_models(b, b.atom("Ring_1_1"), 3)
    assert other is not ms and other.keys() == ms.keys()


# ---------------------------------------------------------------------------
# one source model set per instance, one canonical key per successor

@pytest.mark.parametrize("name,pred,depth", REUSE_CASES)
def test_combined_sid_keeps_source_models_in_source_memo(name, pred, depth):
    sid, result = checked(name, pred, depth)
    ms = enumerate_models(sid, sid.atom(pred), depth)
    assert ms and enumerate_models(result.combined_sid, sid.atom(pred), depth) is ms
    # the derived predicates' sets stay in the combined SID's memo
    derived = set(result.derived_sid.predicates)
    assert not any(next(logic.atoms_of(f)).name in derived for f, _ in sid._memo)
    assert all(next(logic.atoms_of(f)).name in derived for f, _ in result.combined_sid._memo)


@pytest.mark.parametrize("name,pred,depth", REUSE_CASES)
def test_direct_check_after_entailments_unfolds_nothing(name, pred, depth, monkeypatch):
    sid, _ = checked(name, pred, depth)
    calls = spy_unfoldings(monkeypatch)
    havoc_invariant_bounded(sid, pred, depth)
    assert calls == []


@pytest.mark.parametrize("name,pred,depth", REUSE_CASES)
def test_cross_validation_after_direct_check_keys_nothing(name, pred, depth, monkeypatch):
    sid, result = checked(name, pred, depth)
    assert havoc_invariant_bounded(sid, pred, depth).invariant
    calls = spy_keys(monkeypatch)
    cross = cross_validate_reduction(sid, pred, depth, result)
    assert cross.left_size
    assert calls == []
    # a stored key that the set holds is the set's own key object
    ms = enumerate_models(sid, sid.atom(pred), depth)
    stored = [k for m in ms.entries.values() for keys in m.steps.values() for k in keys]
    assert stored and all(k is ms.entries[k].key for k in stored if k in ms)


# ---------------------------------------------------------------------------
# one canonical key per distinct candidate, in the root SID's key table

def spy_keys(monkeypatch):
    """Record every canonical_model call the oracle makes from now on."""
    calls = []
    monkeypatch.setattr(oracle, "canonical_model",
                        lambda *args: calls.append(args) or canonical_model(*args))
    return calls


def test_entailments_key_each_distinct_candidate_once(monkeypatch):
    # a target's unfoldings are the source's with other state atoms: 510
    # candidates are enumerated, and 240 of them are distinct
    sid = parse_system(XVAL_TEXTS["ring.clsys"]).sid
    result = reduce_havoc_to_entailment(sid, "Ring_1_1", assume_tight=True)
    candidates = []
    monkeypatch.setattr(oracle, "enumerate_pf_models", lambda *args: (
        candidates.append(c) or c for c in enumerate_pf_models(*args)))
    calls = spy_keys(monkeypatch)
    for lhs, rhs in result.entailments:
        assert entails_bounded(result.combined_sid, lhs, rhs, 8).holds
    assert len(candidates) == 510
    assert len(set(candidates)) == len(calls) == 240
    assert len({exact_form(g.components, (i.bindings for i in g.interactions),
                           g.state_pairs, nu.items()) for g, nu in calls}) == 240
    # the table lives in the source SID, and the combined SID keeps none
    assert set(sid._keys) == set(candidates) and not result.combined_sid._keys


@pytest.mark.parametrize("name,pred,depth", REUSE_CASES)
def test_direct_check_and_cross_validation_after_check_key_nothing(
        name, pred, depth, monkeypatch):
    sid, result = checked(name, pred, depth)
    calls = spy_keys(monkeypatch)
    havoc_invariant_bounded(sid, pred, depth)
    assert cross_validate_reduction(sid, pred, depth, result).left_size
    assert calls == []


# a ring with one token; at depth 12 its largest models have 11 carrier
# ids, where the text order of ids (n10 before n2) is not their number order
ONE_TOKEN = """
behavior {
  ports in, out;
  states H, T;
  trans T -out-> H;
  trans H -in-> T;
}
sid {
  Ring() <- exists x, y . <x.out, y.in> * Seg(y, x);
  Seg(x, y) <- exists z . comp(x : T) * <x.out, z.in> * Seg(z, y);
  Seg(x, y) <- exists z . comp(x : H) * <x.out, z.in> * Rest(z, y);
  Seg(x, y) <- x = y * comp(x : H);
  Rest(x, y) <- exists z . comp(x : T) * <x.out, z.in> * Rest(z, y);
  Rest(x, y) <- x = y * comp(x : T);
}
"""


def test_successor_over_eleven_ids_hits_the_table(monkeypatch):
    sid = parse_system(ONE_TOKEN).sid
    result = reduce_havoc_to_entailment(sid, "Ring", assume_tight=True)
    for lhs, rhs in result.entailments:
        assert entails_bounded(result.combined_sid, lhs, rhs, 12).holds
    ms = enumerate_models(sid, sid.atom("Ring"), 12)
    assert max(len(m.config.state_pairs) for m in ms.entries.values()) >= 11
    calls = spy_keys(monkeypatch)
    assert havoc_invariant_bounded(sid, "Ring", 12).invariant
    assert calls == []
    assert all(m.steps for m in ms.entries.values())


def reference_models(sid, f, depth):
    """enumerate_models' entries as they were when each candidate was
    keyed afresh, with no key table and no memo."""
    (atom,) = logic.atoms_of(f)
    fv = logic.free_vars(f)
    free = [v for v in atom.args if v in fv]
    entries = {}
    for k, (binders, atoms) in enumerate(complete_unfoldings(sid, f, depth)):
        for exact in enumerate_pf_models(binders, atoms, free, sid.behavior.states):
            g, nu = from_exact(exact)
            key = canonical_model(g, nu)
            if key not in entries:
                entries[key] = Model(g, dict(nu), f"unfolding#{k}", key)
    return entries


def assert_models_match_reference(sid, f, depth):
    """The models, in order, and every stored successor key, against fresh
    keys per candidate."""
    ms = enumerate_models(sid, f, depth)
    want = reference_models(sid, f, depth)
    got = [(k, m.config, list(m.store.items()), m.provenance, m.key)
           for k, m in ms.entries.items()]
    assert got == [(k, m.config, list(m.store.items()), m.provenance, m.key)
                   for k, m in want.items()]
    for m in ms.entries.values():
        for inter in sorted(m.config.interactions, key=repr):
            keys = _successor_keys(sid, ms, m, inter)
            assert keys == m.steps[inter] == tuple(
                canonical_model(g2, m.store) for g2 in _successors(sid.behavior, m, inter))


CORPUS_CASES = [(name, pred, 2 if name == "tll_original.clsys" else 3)
                for name in corpus()
                for pred in parse_system(corpus_text(name)).sid.predicates]


@pytest.mark.parametrize("name,pred,depth", CORPUS_CASES)
def test_keyed_models_match_fresh_keys(name, pred, depth):
    sid = parse_system(corpus_text(name)).sid
    assert_models_match_reference(sid, sid.atom(pred), depth)


@pytest.mark.parametrize("name,pred,depth", REUSE_CASES)
def test_keyed_models_of_combined_sid_match_fresh_keys(name, pred, depth):
    # after the check, the entailments have filled the table
    sid, result = checked(name, pred, depth)
    assert sid._keys
    combined = result.combined_sid
    for p in (pred, *result.derived_sid.predicates):
        assert_models_match_reference(combined, combined.atom(p), depth)


def test_reductions_of_one_parse_stay_apart():
    # both reductions define Chain_1_0__h10 and Chain_1_0__h11, each with
    # other rules; every derived predicate's models must be those of a
    # reduction on a parse of its own
    depth = 4
    sid = parse_system(XVAL_TEXTS["ring.clsys"]).sid
    results = [reduce_havoc_to_entailment(sid, p, assume_tight=True)
               for p in ("Ring_1_0", "Ring_1_1")]
    a, b = (r.derived_sid for r in results)
    assert any(a.rules_of(n) != b.rules_of(n)
               for n in set(a.predicates) & set(b.predicates))
    for result in results:
        for lhs, rhs in result.entailments:
            entails_bounded(result.combined_sid, lhs, rhs, depth)
    for result in results:
        fresh = parse_system(XVAL_TEXTS["ring.clsys"]).sid
        alone = reduce_havoc_to_entailment(fresh, result.predicate, assume_tight=True)
        for p in result.derived_sid.predicates:
            got = enumerate_models(result.combined_sid, result.combined_sid.atom(p), depth)
            want = enumerate_models(alone.combined_sid, alone.combined_sid.atom(p), depth)
            assert got.keys() == want.keys(), (result.predicate, p)
            assert [m.provenance for m in got.models()] == \
                [m.provenance for m in want.models()], (result.predicate, p)


def test_extend_refuses_a_rule_for_a_base_predicate(ring):
    (rule,) = ring.sid.rules_of("Ring_1_1")
    with pytest.raises(ValueError, match="Ring_1_1"):
        ring.sid.extend([rule])
    with pytest.raises(ValueError, match="Chain_0_0"):
        ring.sid.extend([logic.Rule("Chain_0_0", (X1, X2), (), (Eq(X1, X2),))])


def test_base_link_is_not_part_of_the_value(ring):
    sid = ring.sid
    extra = logic.Rule("Loop", (X1,), (), (Comp(X1), StateAtom(X1, "H")))
    linked = sid.extend([extra])
    plain = SID(sid.rules + (extra,), sid.behavior)
    assert linked._base is sid and plain._base is None
    assert linked == plain and hash(linked) == hash(plain) and repr(linked) == repr(plain)


def test_recursive_helpers_leave_no_cycles():
    sf = parse_system(XVAL_TEXTS["ring.clsys"])
    result = reduce_havoc_to_entailment(sf.sid, "Ring_1_1", assume_tight=True)
    leaf = next(tr.symbol for tr in sid_to_ta(sf.sid)[0].transitions if not tr.children)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert enumerate_models(sf.sid, sf.sid.atom("Ring_1_1"), 3)
        assert class_equiv(sf.sid, result.derived_sid).verdict == "equivalent"
        # a leaf with rewrites: the choice of rewrites recurses
        assert len(transducer_step(("out", "in"), leaf, [], sf.sid.behavior, 2)) > 1
        # the matcher of the reference semantics
        atom = sf.sid.atom("Ring_1_1")
        model = enumerate_models(sf.sid, atom, 3).models()[0]
        assert eval_bounded(model.config, model.store, atom, sf.sid, 3)
        assert any(eval_pf(model.config, model.store, f)
                   for f, complete in unfold(sf.sid, atom, 3) if complete)
        gc.collect()
        funcs = [f for f in gc.garbage if isinstance(f, types.FunctionType)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not {f.__name__ for f in funcs} & {"merges", "solve", "emit", "choose"}
    assert not [f for f in funcs if f.__module__ in ("clhavoc.logic", "clhavoc.oracle")]
