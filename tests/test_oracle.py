"""Bounded model enumeration and the direct havoc/entailment checks."""

import gc
import hashlib
import itertools
import json
import random
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clhavoc import core, logic, oracle
from clhavoc.automata import sid_to_ta
from clhavoc.core import Behavior, Configuration, Interaction, step
from clhavoc.frontend import parse_system, render_config
from clhavoc.logic import (Comp, Eq, Neq, Pred, SID, StateAtom, Var, complete_unfoldings,
                           eval_bounded, eval_pf, unfold_formula, var_text)
from clhavoc.oracle import (Counterexample, CrossReport, EntailReport, HavocReport,
                            Model, Shape, _model_order, _successor_keys,
                            canonical_model, cross_validate_reduction,
                            enumerate_models, entails_bounded,
                            havoc_invariant_bounded, skeleton_form, state_key)
from clhavoc.reduction import class_equiv, reduce_havoc_to_entailment
from clhavoc.transducer import transducer_step

from conftest import REUSE_CASES, corpus, corpus_text, source_fixtures
from reference import (TOKEN, enumerate_pf_models, exact_of, from_exact, models_by_key,
                       reference_key, reference_pf_models, reference_state_key,
                       reference_successors, trie_shapes)

X1, X2 = Var("x1"), Var("x2")


def test_chain_base_single_model(ring):
    ms = enumerate_models(ring.sid, ((), (Pred("Chain_0_1", (X1, X1)),)), 1)
    assert len(ms) == 1
    m = models_by_key(ms)[0]
    assert len(m.config.components) == 1
    assert not m.config.interactions
    c = next(iter(m.config.components))
    assert m.config.state_map[c] == "T"
    assert m.store[X1] == c


def test_unsatisfiable_body_has_no_models():
    from clhavoc.logic import Rule
    sid = SID((Rule("A", (X1, X2), (), (Eq(X1, X2), Neq(X1, X2))),),
              Behavior.make(["p"], ["q"], []))
    assert len(enumerate_models(sid, ((), (sid.atom("A"),)), 1)) == 0


def test_ring_model_count_matches_hand_count(ring):
    # rings of size 2 and 3 with at least one H and one T, up to renaming:
    # (H,T), (H,H,T), (H,T,T)
    ms = enumerate_models(ring.sid, ((), (ring.sid.atom("Ring_1_1"),)), 4)
    assert len(ms) == 3
    # one size further: add the three size-4 necklaces (H,H,H,T), (H,H,T,T),
    # (H,T,H,T), (H,T,T,T)
    ms5 = enumerate_models(ring.sid, ((), (ring.sid.atom("Ring_1_1"),)), 5)
    assert len(ms5) == 7


def test_canonicalization_ignores_rule_order(ring):
    sid = ring.sid
    shuffled = SID(tuple(reversed(sid.rules)), sid.behavior)
    a = set(enumerate_models(sid, ((), (sid.atom("Ring_1_1"),)), 4).keys())
    b = set(enumerate_models(shuffled, ((), (shuffled.atom("Ring_1_1"),)), 4).keys())
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
    ms = enumerate_models(sid, ((), (sid.atom("Root"),)), 2)
    assert len(ms) > 0
    assert any(not all(c in m.config.components
                       for i in m.config.interactions for c in i.components)
               for m in models_by_key(ms))


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
    ms = enumerate_models(sid, ((), (sid.atom(pred),)), depth)
    keys = set(ms.keys())

    def successors_of(model):
        for inter in model.config.interactions:
            yield from step(sid.behavior, model.config, inter)

    one_step = all(canonical_model(g2, m.store) in keys
                   for m in models_by_key(ms) for g2 in successors_of(m))

    multi = True
    for m in models_by_key(ms):
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
            for g2 in reference_successors(sid.behavior, model, inter):
                yield model, inter, g2


@pytest.mark.parametrize("name,depth", [
    ("ring", 4), ("bad", 2), ("tll", 3), ("pcring", 4), ("chain", 4),
])
def test_model_key_membership_matches_eval_pf_on_successors(name, depth, request):
    # every model and one-step successor of each predicate, looked up by
    # canonical key in the model set of every predicate of the same arity
    sid = request.getfixturevalue(name).sid
    complete = {p: [u for u, done in unfold_formula(sid, ((), (sid.atom(p),)), depth) if done]
                for p in sid.predicates}
    outcomes = set()
    for pred in sid.predicates:
        ms = enumerate_models(sid, ((), (sid.atom(pred),)), depth)
        candidates = [(m.config, m.store) for m in models_by_key(ms)]
        candidates += [(g2, m.store) for m, _, g2 in one_step_successors(sid, ms)]
        for other in sid.predicates:
            if sid.arity(other) != sid.arity(pred):
                continue
            other_ms = enumerate_models(sid, ((), (sid.atom(other),)), depth)
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
    match = logic.eval_pf
    monkeypatch.setattr(logic, "eval_pf", lambda *args: calls.append(args) or match(*args))
    assert havoc_invariant_bounded(sid, "Ring_1_1", 4).invariant
    assert not havoc_invariant_bounded(parse_system(ANCHORED).sid, "Anchored", 4).invariant
    assert entails_bounded(sid, "Chain_1_1", "Chain_0_1", 4).holds
    # the right-hand side has two more parameters than the left
    assert not entails_bounded(sid, "Ring_1_1", "Chain_1_1", 4).holds
    assert calls == []
    # the reference semantics does match, through the patched matcher
    assert eval_bounded(Configuration.make([], [], {}), {}, ((), ()), sid, 0)
    assert len(calls) == 1


def reference_havoc(sid, pred, depth):
    f = ((), (sid.atom(pred),))
    ms = enumerate_models(sid, f, depth)
    for model, inter, g2 in one_step_successors(sid, ms):
        if not eval_bounded(g2, model.store, f, sid, depth):
            return HavocReport(False, depth, len(ms),
                               Counterexample(model.config, model.store, inter, g2))
    return HavocReport(True, depth, len(ms), None)


def reference_entails(sid, lhs, rhs, depth):
    extra = tuple(Var(f"x{i}") for i in range(sid.arity(lhs) + 1, sid.arity(rhs) + 1))
    ms = enumerate_models(sid, ((), (sid.atom(lhs),)), depth)
    for _, model in _model_order(ms):
        if not eval_bounded(model.config, model.store, (extra, (sid.atom(rhs),)),
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
        ms = enumerate_models(sid, ((), (sid.atom(pred),)), depth)
        items += [(m.config, m.store) for m in models_by_key(ms)]
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


# ---------------------------------------------------------------------------
# symmetric models: parts, twins and their labellings

EIGHT = [f"v{k}" for k in range(8)]
SYMMETRIC = f"""
behavior {{
  ports in, out;
  states H, T;
  trans H -out-> T;
  trans T -in-> H;
}}
sid {{
  PinnedBag() <- exists {", ".join(EIGHT)} . {" * ".join(f"comp({v} : H)" for v in EIGHT)};
  Bag() <- exists {", ".join(EIGHT)} . {" * ".join(f"comp({v})" for v in EIGHT)};
  Star() <- exists h, {", ".join(EIGHT)} . comp(h : H)
            * {" * ".join(f"comp({v}) * <h.out, {v}.in>" for v in EIGHT)};
  Rings() <- exists {", ".join(f"a{k}, b{k}" for k in range(8))} .
            {" * ".join(f"comp(a{k} : H) * comp(b{k} : T) * <a{k}.out, b{k}.in> * <b{k}.out, a{k}.in>"
                        for k in range(8))};
}}
"""


@pytest.mark.parametrize("pred, models, parts, labellings", [
    # eight isolated components: eight parts of one id each
    ("PinnedBag", 1, 8, 1),
    ("Bag", 9, 8, 1),
    # eight twin leaves: the search branches on one of them at each level
    ("Star", 9, 1, 1),
    # a 2-ring's rotation is no twin swap, so each ring keeps both leaves
    ("Rings", 1, 8, 2),
])
def test_symmetric_models_key_by_parts_and_twins(pred, models, parts, labellings):
    sid = parse_system(SYMMETRIC).sid
    ms = enumerate_models(sid, ((), (sid.atom(pred),)), 2)
    assert len(ms) == models
    rnd = random.Random(pred)
    for m in models_by_key(ms):
        g = m.config
        skel = skeleton_form(g.components, (i.bindings for i in g.interactions),
                             (c for c, _ in g.state_pairs), m.store.items())
        assert len(skel) == parts
        assert all(len(part[3]) == labellings for part in skel)
        assert canonical_model(m.config, m.store) == m.key
        for _ in range(3):
            assert canonical_model(*renamed(m.config, m.store,
                                            random_renaming(m.config, rnd))) == m.key


def test_twins_agree_on_presence_and_store():
    # l1 and l2 have equal incidences with themselves masked; swapping their
    # states renames the model only when they are also both present or both
    # absent and named by the same store variables
    def star(q1, q2, comps, nu):
        inters = [Interaction.make(("h", "out"), (leaf, "in")) for leaf in ("l1", "l2")]
        return Configuration.make(comps, inters, {"h": "H", "l1": q1, "l2": q2}), nu

    def swap_renames(comps, nu):
        return canonical_model(*star("H", "T", comps, nu)) == \
            canonical_model(*star("T", "H", comps, nu))

    assert swap_renames(["h", "l1", "l2"], {}) and swap_renames(["h"], {})
    assert not swap_renames(["h", "l1"], {})
    assert not swap_renames(["h", "l1", "l2"], {X1: "l1"})


@st.composite
def symmetric_models(draw):
    """Small models with twin copies of an id, isolated absent ids and a
    disjoint copy of the whole, and the (id, copy) pairs."""
    ids = [f"c{k}" for k in range(draw(st.integers(min_value=1, max_value=3)))]
    pairs = []
    binding = st.tuples(st.sampled_from(ids), st.sampled_from(["in", "out"]))
    inters = draw(st.lists(st.lists(binding, min_size=1, max_size=3,
                                    unique_by=lambda b: b[0]), max_size=3))
    present = draw(st.lists(st.sampled_from(ids), unique=True))
    for k in range(draw(st.integers(min_value=0, max_value=2))):
        c, t = draw(st.sampled_from(ids)), f"t{k}"
        inters += [[(t if d == c else d, p) for d, p in b]
                   for b in inters if any(d == c for d, _ in b)]
        # now and then a copy that is present where c is absent, or the
        # other way round: equal incidences, yet no twin
        if (c in present) != (draw(st.integers(min_value=0, max_value=3)) == 0):
            present.append(t)
        ids.append(t)
        pairs.append((c, t))
    ids += [f"a{k}" for k in range(draw(st.integers(min_value=0, max_value=2)))]
    # at most 8 ids, so that the permutation reference stays quick
    if len(ids) <= 4 and draw(st.booleans()):
        inters += [[("x" + d, p) for d, p in b] for b in inters]
        present += ["x" + c for c in present]
        ids += ["x" + c for c in ids]
    g = Configuration.make(present, (Interaction(tuple(b)) for b in inters),
                           {c: draw(st.sampled_from(["H", "T"])) for c in ids})
    nu = draw(st.dictionaries(st.sampled_from([X1, X2]), st.sampled_from(ids), max_size=2))
    return g, nu, pairs


@settings(max_examples=200, deadline=None)
@given(symmetric_models(), st.randoms(use_true_random=False))
def test_canonical_model_matches_reference_on_symmetric_models(m, rnd):
    # the same skeleton with the states of an id and its copy swapped, or all
    # states shuffled, is a renamed copy exactly when that moves the states
    # by a symmetry
    g, nu, pairs = m
    ids = sorted(g.carrier)
    states = [q for _, q in g.state_pairs]
    i, j = map(ids.index, rnd.choice(pairs)) if pairs else (0, len(ids) - 1)
    swapped = list(states)
    swapped[i], swapped[j] = states[j], states[i]
    shuffled = rnd.sample(states, len(states))
    items = [(g, nu), *((Configuration(g.components, g.interactions, tuple(zip(ids, qs))), nu)
                  for qs in (swapped, shuffled))]
    items += [renamed(*item, random_renaming(item[0], rnd)) for item in items]
    assert canonical_model(*items[0]) == canonical_model(*items[3])
    assert_same_classes(items)


# digest takes the rows in canonical key order, so it moves with the keys'
# encoding; unordered moves only with the kept models
@pytest.mark.parametrize("fixture, pred, depth, count, digest, unordered", [
    pytest.param("ring", "Ring_0_0", 6, 21,
                 "f582936f78e1263a501d41db15d339866a5704fca4f43a8e92143f542b308c0c",
                 "47cf59597250ba902ef3bf1a8455e96eddd8bc51c352abd1ab6a8e63ba8759b4",
                 id="ring-Ring_0_0-6-21"),
    pytest.param("tll", "Root", 3, 8,
                 "5ffa15b2365b8fed696dc15a0b8e9279a74292b3b7762161b80f097d740d7b78",
                 "f221478ea06d85fe0a21db36f88e6f01b83c38598bcadce18b8c4f125d533d7c",
                 id="tll-Root-3-8"),
    pytest.param("pcring", "PcRing_1_1", 4, 22,
                 "1b241d68f1cfca759edc8910a18fcf7496aafe74cc2d20f744d2f5b80902e821",
                 "38cbdaa3e98d7191e24be5ae81f51e5b898bb7350cc01ac61d0f684377db014b",
                 id="pcring-PcRing_1_1-4-22"),
    # the smallest fixture case where visiting the classes in another order
    # keeps other models (reversing the class order changes both digests)
    pytest.param("tll_original", "Root", 2, 16,
                 "a285c2dee2452d917b1c90cdef7b01b6f0553d8c2434744f0aef90bad0e11e80",
                 "ebcb740b3aa29b328538ce04f04ebc1d07371e444f012d5a16ea9d9a79ae9084",
                 id="tll_original-Root-2-16"),
])
def test_enumerated_models_pinned(request, fixture, pred, depth, count, digest, unordered):
    # which concrete model a canonical key keeps depends on the order in which
    # enumeration visits equality classes, and that model is the one a
    # counterexample reports; the unordered digests were recorded with keys
    # from one search over the whole candidate, and still hold with keys
    # made of skeleton forms and state tables
    sid = request.getfixturevalue(fixture).sid
    rows = [[render_config("m", m.config), sorted((var_text(v), c) for v, c in m.store.items())]
            for m in models_by_key(enumerate_models(sid, ((), (sid.atom(pred),)), depth))]
    assert len(rows) == count
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest
    # which models are kept, whatever order their keys sort them in
    rows_text = "\n".join(sorted(map(json.dumps, rows)))
    assert hashlib.sha256(rows_text.encode()).hexdigest() == unordered


# ---------------------------------------------------------------------------
# model sets built once per SID, reused by cross-validation

def reference_cross_validate(sid, pred, depth, result):
    """cross_validate_reduction as it was before model sets were kept per SID."""
    left: dict[tuple, None] = {}
    for _, model in _model_order(enumerate_models(sid, ((), (sid.atom(pred),)), depth)):
        for inter in sorted(model.config.interactions, key=repr):
            if not all(c in model.config.components for c in inter.components):
                continue
            for g2 in step(sid.behavior, model.config, inter):
                left.setdefault(canonical_model(g2, model.store))
    right: dict[tuple, Model] = {}
    for target in result.targets:
        right.update(enumerate_models(result.derived_sid,
                                      ((), (result.derived_sid.atom(target),)), depth))
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
        derived = enumerate_models(fresh_result.derived_sid, ((), (fresh_result.derived_sid.atom(t),)),
                                   depth)
        combined = enumerate_models(result.combined_sid, ((), (result.combined_sid.atom(t),)), depth)
        assert derived.keys() == combined.keys(), t
        assert [m.provenance for m in models_by_key(derived)] == \
            [m.provenance for m in models_by_key(combined)], t


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
    assert enumerate_models(sid, ((), (sid.atom(pred),)), depth)
    assert calls == [(sid, ((), (sid.atom(pred),)), depth)]


@pytest.mark.parametrize("name,pred,depth", REUSE_CASES)
def test_cross_validation_reuses_built_models(name, pred, depth, monkeypatch):
    sid, result = checked(name, pred, depth)
    havoc_invariant_bounded(sid, pred, depth)
    calls = spy_unfoldings(monkeypatch)
    cross_validate_reduction(sid, pred, depth, result)
    assert calls == []


def test_model_memo_belongs_to_one_sid_object():
    a, b = parse_system(XVAL_TEXTS["ring.clsys"]).sid, parse_system(XVAL_TEXTS["ring.clsys"]).sid
    assert a._memo is not b._memo and a._nodes is not b._nodes
    ms = enumerate_models(a, ((), (a.atom("Ring_1_1"),)), 3)
    assert enumerate_models(a, ((), (a.atom("Ring_1_1"),)), 3) is ms
    assert a._memo and not b._memo
    assert trie_shapes(a) and not trie_shapes(b)
    assert a._nodes and not b._nodes
    # equality, hash and text ignore the memo and the tries
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    other = enumerate_models(b, ((), (b.atom("Ring_1_1"),)), 3)
    assert other is not ms and other.keys() == ms.keys()
    assert not set(trie_shapes(a)) & set(trie_shapes(b))


# ---------------------------------------------------------------------------
# one source model set per instance, one canonical key per successor

@pytest.mark.parametrize("name,pred,depth", REUSE_CASES)
def test_combined_sid_keeps_source_models_in_source_memo(name, pred, depth):
    sid, result = checked(name, pred, depth)
    ms = enumerate_models(sid, ((), (sid.atom(pred),)), depth)
    assert ms and enumerate_models(result.combined_sid, ((), (sid.atom(pred),)), depth) is ms
    # the derived predicates' sets stay in the combined SID's memo
    derived = set(result.derived_sid.predicates)
    assert not any(f[1][0].name in derived for f, _ in sid._memo)
    assert all(f[1][0].name in derived for f, _ in result.combined_sid._memo)


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
    calls, skeletons = spy_keys(monkeypatch), spy_skeletons(monkeypatch)
    cross = cross_validate_reduction(sid, pred, depth, result)
    assert cross.left_size
    assert calls == [] and skeletons == []
    # a stored key that the set holds is the set's own key object
    ms = enumerate_models(sid, ((), (sid.atom(pred),)), depth)
    stored = [k for m in ms.values() for keys in m.steps.values() for k in keys]
    assert stored and all(k is ms[k].key for k in stored if k in ms)


# ---------------------------------------------------------------------------
# one canonical key per distinct candidate, in the shapes of the root SID's trie

def spy_keys(monkeypatch):
    """Record every state_key call the oracle makes from now on; each key,
    by enumeration or by canonical_model, is one."""
    calls = []
    monkeypatch.setattr(oracle, "state_key",
                        lambda *args: calls.append(args) or state_key(*args))
    return calls


def spy_skeletons(monkeypatch):
    """Record every skeleton_form call the oracle makes from now on."""
    calls = []
    monkeypatch.setattr(oracle, "skeleton_form",
                        lambda *args: calls.append(args) or skeleton_form(*args))
    return calls


def test_entailments_key_each_distinct_candidate_once(monkeypatch):
    # a target's unfoldings are the source's with other state atoms: 510
    # candidates are enumerated and 240 of them are distinct; those have 6
    # shapes, each forming its skeleton once
    sid = parse_system(XVAL_TEXTS["ring.clsys"]).sid
    result = reduce_havoc_to_entailment(sid, "Ring_1_1", assume_tight=True)
    candidates = []
    instantiate = oracle._instantiate
    monkeypatch.setattr(oracle, "_instantiate", lambda *args: (
        candidates.append(c) or c for c in instantiate(*args)))
    calls, skeletons = spy_keys(monkeypatch), spy_skeletons(monkeypatch)
    for lhs, rhs in result.entailments:
        assert entails_bounded(result.combined_sid, lhs, rhs, 8).holds
    assert len(candidates) == 510
    assert len(set(candidates)) == len(calls) == 240
    shapes = trie_shapes(sid)
    assert sum(len(shape.keys) for shape in shapes) == 240
    assert len(skeletons) == len(shapes) == 6
    assert len({(tuple(comps), tuple(bindings), tuple(store))
                for comps, bindings, _, store in skeletons}) == 6
    # the shapes live on the source SID's trie, and the combined SID keeps none
    assert {(shape, column) for shape in shapes for column in shape.keys} == set(candidates)
    assert not trie_shapes(result.combined_sid)
    assert sid._nodes and not result.combined_sid._nodes


@pytest.mark.parametrize("name,pred,depth", REUSE_CASES)
def test_direct_check_and_cross_validation_after_check_key_nothing(
        name, pred, depth, monkeypatch):
    sid, result = checked(name, pred, depth)
    calls, skeletons = spy_keys(monkeypatch), spy_skeletons(monkeypatch)
    havoc_invariant_bounded(sid, pred, depth)
    assert cross_validate_reduction(sid, pred, depth, result).left_size
    assert calls == [] and skeletons == []


# ---------------------------------------------------------------------------
# successors fired on state tables

def spy_configuration_firing(monkeypatch):
    """Record every `core.step` and `canonical_model` call from now on, in
    every clhavoc module that holds either."""
    calls = []
    modules = [m for n, m in list(sys.modules.items())
               if n == "clhavoc" or n.startswith("clhavoc.")]
    for name, fn in (("step", core.step), ("canonical_model", canonical_model)):
        for module in modules:
            if module.__dict__.get(name) is fn:
                monkeypatch.setattr(module, name, lambda *args, fn=fn, name=name:
                                    calls.append(name) or fn(*args))
    return calls


@pytest.mark.parametrize("name,pred,depth", REUSE_CASES)
def test_direct_check_and_cross_validation_build_no_successor(name, pred, depth, monkeypatch):
    sid, result = checked(name, pred, depth)
    calls = spy_configuration_firing(monkeypatch)
    assert havoc_invariant_bounded(sid, pred, depth).invariant
    assert cross_validate_reduction(sid, pred, depth, result).left_size
    assert calls == []
    # the spy sees both boundaries
    m = models_by_key(enumerate_models(sid, ((), (sid.atom(pred),)), depth))[-1]
    core.step(sid.behavior, m.config, next(iter(m.config.interactions)))
    oracle.canonical_model(m.config, m.store)
    assert calls == ["step", "canonical_model"]


@pytest.mark.parametrize("fixture,pred,depth", [("bad", "TH", 3), ("anchored", "Anchored", 6)])
def test_counterexample_successor_is_the_reference_successor(fixture, pred, depth, request):
    # the first successor, in the reference's order, whose key is not a model
    sid = request.getfixturevalue(fixture).sid
    rep = havoc_invariant_bounded(sid, pred, depth)
    ms = enumerate_models(sid, ((), (sid.atom(pred),)), depth)
    model, inter, g2 = next((m, inter, g2) for m, inter, g2 in one_step_successors(sid, ms)
                            if canonical_model(g2, m.store) not in ms)
    assert not rep.invariant
    assert rep.counterexample == Counterexample(model.config, model.store, inter, g2)


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
    ms = enumerate_models(sid, ((), (sid.atom("Ring"),)), 12)
    assert max(len(m.config.state_pairs) for m in ms.values()) >= 11
    calls, skeletons = spy_keys(monkeypatch), spy_skeletons(monkeypatch)
    assert havoc_invariant_bounded(sid, "Ring", 12).invariant
    assert calls == [] and skeletons == []
    assert all(m.steps for m in ms.values())


def reference_models(sid, f, depth):
    """enumerate_models' entries as they were when each candidate was
    keyed afresh, with no shape, no memo, no skeleton node and no plan:
    the reference walk's complete unfoldings, each enumerated on its own,
    and per key the first candidate's (key, configuration, store items,
    provenance)."""
    closed, (atom,) = f
    free = [v for v in atom.args if v not in closed]
    entries = {}
    complete = [u for u, done in unfold_formula(sid, f, depth) if done]
    for k, (binders, atoms) in enumerate(complete):
        for c in reference_pf_models(binders, atoms, free, sid.behavior.states):
            g, nu = from_exact(c)
            key = canonical_model(g, nu)
            if key not in entries:
                entries[key] = (key, g, list(nu.items()), f"unfolding#{k}")
    return entries


def assert_models_match_reference(sid, f, depth):
    """The models, in order, and every stored successor key, against fresh
    keys per candidate."""
    ms = enumerate_models(sid, f, depth)
    want = reference_models(sid, f, depth)
    assert list(ms) == list(want) == [m.key for m in ms.values()]
    assert [(k, m.config, list(m.store.items()), m.provenance)
            for k, m in ms.items()] == list(want.values())
    for m in ms.values():
        # the shape's carrier is the id column of the model's state table,
        # and its firing plan lists the interactions in text order
        assert m.shape.carrier == tuple(c for c, _ in m.config.state_pairs)
        assert list(m.shape.firing) == sorted(m.config.interactions, key=repr)
        for inter in sorted(m.config.interactions, key=repr):
            keys = _successor_keys(sid, ms, m, inter)
            assert keys == m.steps[inter] == tuple(
                canonical_model(g2, m.store)
                for g2 in reference_successors(sid.behavior, m, inter))
    # every key of every shape on the root's trie, whether enumeration or
    # successor keying asked for it, is the candidate's canonical_model
    assert all(key == canonical_model(*from_exact(exact_of((shape, pairs))))
               for shape in trie_shapes(sid.root) for pairs, key in shape.keys.items())


CORPUS_CASES = [(name, pred, 2 if name == "tll_original.clsys" else 3)
                for name in corpus()
                for pred in parse_system(corpus_text(name)).sid.predicates]


@pytest.mark.parametrize("name,pred,depth", CORPUS_CASES)
def test_keyed_models_match_fresh_keys(name, pred, depth):
    sid = parse_system(corpus_text(name)).sid
    assert_models_match_reference(sid, ((), (sid.atom(pred),)), depth)


@pytest.mark.parametrize("name,pred,depth", REUSE_CASES)
def test_keyed_models_of_combined_sid_match_fresh_keys(name, pred, depth):
    # after the check, the entailments have filled the shapes' key tables
    sid, result = checked(name, pred, depth)
    assert any(shape.keys for shape in trie_shapes(sid))
    combined = result.combined_sid
    for p in (pred, *result.derived_sid.predicates):
        assert_models_match_reference(combined, ((), (combined.atom(p),)), depth)


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
            got = enumerate_models(result.combined_sid, ((), (result.combined_sid.atom(p),)), depth)
            want = enumerate_models(alone.combined_sid, ((), (alone.combined_sid.atom(p),)), depth)
            assert got.keys() == want.keys(), (result.predicate, p)
            assert [m.provenance for m in models_by_key(got)] == \
                [m.provenance for m in models_by_key(want)], (result.predicate, p)


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
        assert enumerate_models(sf.sid, ((), (sf.sid.atom("Ring_1_1"),)), 3)
        assert class_equiv(sf.sid, result.derived_sid).verdict == "equivalent"
        # a leaf with rewrites: the choice of rewrites recurses
        assert len(transducer_step(("out", "in"), leaf, [], sf.sid.behavior, 2)) > 1
        # the matcher of the reference semantics
        f = ((), (sf.sid.atom("Ring_1_1"),))
        model = models_by_key(enumerate_models(sf.sid, f, 3))[0]
        assert eval_bounded(model.config, model.store, f, sf.sid, 3)
        assert any(eval_pf(model.config, model.store, u)
                   for u, complete in unfold_formula(sf.sid, f, 3) if complete)
        gc.collect()
        funcs = [f for f in gc.garbage if isinstance(f, types.FunctionType)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not {f.__name__ for f in funcs} & {"merges", "solve", "emit", "choose"}
    assert not [f for f in funcs if f.__module__ in ("clhavoc.logic", "clhavoc.oracle")]


# ---------------------------------------------------------------------------
# one plan per skeleton: candidates as the per-formula enumeration built them

def assert_planned_like_reference(binders, forms, free, states):
    """Each form, atoms with other state atoms on one skeleton, as
    enumerate_pf_models enumerates it, and as one node planned once
    instantiates it, against the per-formula reference."""
    skeleton = tuple(a for a in forms[0] if not isinstance(a, StateAtom))
    node = logic.Node(tuple(binders), skeleton, tuple(free))
    plan = oracle._node_plan(node)
    for atoms in forms:
        assert tuple(a for a in atoms if not isinstance(a, StateAtom)) == skeleton
        want = list(reference_pf_models(binders, atoms, free, states))
        assert list(map(exact_of, enumerate_pf_models(binders, atoms, free, states))) == want
        pins = [(a.var, a.state) for a in atoms if isinstance(a, StateAtom)]
        assert list(map(exact_of, oracle._instantiate(oracle._node_plan(node), pins,
                                                      sorted(states)))) == want
    assert node.plan is plan


# tll_original `Node` has one depth-3 unfolding with millions of candidates
PLAN_DEPTHS = {"tll.clsys": 3, "tll_pcr.clsys": 3, "tll_original.clsys": 2}


@pytest.mark.parametrize("name", corpus())
def test_planned_models_match_reference_on_every_unfolding(name):
    # the nodes of the walk, planned once each for every predicate and
    # depth, as enumerate_models plans them: a node's plan holds the root's
    # free variables too
    sid = parse_system(corpus_text(name)).sid
    for pred in sid.predicates:
        f = ((), (sid.atom(pred),))
        for depth in range(PLAN_DEPTHS.get(name, 4) + 1):
            for node, pins in complete_unfoldings(sid, f, depth):
                binders, atoms = node.form(pins)
                assert node.free == sid.atom(pred).args
                assert (list(map(exact_of, oracle._instantiate(
                    oracle._node_plan(node), pins, sorted(sid.behavior.states))))
                    == list(reference_pf_models(binders, atoms, node.free,
                                                sid.behavior.states)))


U0, U1, U2 = (Var("%u", (k,)) for k in range(3))
PLAN_VARS = [X1, X2, U0, U1, U2]


def _plan_atoms():
    v = st.sampled_from(PLAN_VARS)
    return st.one_of(
        st.builds(Comp, v),
        st.builds(StateAtom, v, st.sampled_from(["H", "T"])),
        st.integers(1, 2).flatmap(lambda n: st.builds(
            lambda vs, ports: logic.Inter(tuple(zip(vs, ports))),
            st.lists(v, min_size=n, max_size=n),
            st.lists(st.sampled_from(["in", "out"]), min_size=n, max_size=n))),
        st.builds(Eq, v, v),
        st.builds(Neq, v, v),
    )


def flip_states(atoms):
    return tuple(StateAtom(a.var, "T" if a.state == "H" else "H")
                 if isinstance(a, StateAtom) else a for a in atoms)


@settings(max_examples=300, deadline=None)
@given(st.lists(_plan_atoms(), max_size=6), st.integers(0, 2))
def test_planned_models_match_reference_randomized(atoms, nfree):
    # every variable is free or bound; the same formula with other states
    # reuses the plan
    free, binders = [X1, X2][:nfree], (U0, U1, U2, *[X1, X2][nfree:])
    assert_planned_like_reference(binders, [tuple(atoms), flip_states(atoms)], free,
                                  TOKEN.states)


H_OUT_IN = logic.Inter(((U0, "out"), (U1, "in")))


@pytest.mark.parametrize("atoms", [
    # two component atoms on one class: no model
    (Comp(U0), Comp(U1), Eq(U0, U1), StateAtom(U0, "H")),
    # x != x: no model
    (Comp(U0), Eq(U0, U1), Neq(U1, U0)),
    # a repeated interaction needs another component pair
    (Comp(X1), H_OUT_IN, H_OUT_IN, StateAtom(U1, "T")),
    # a state atom on a binder that occurs nowhere else pins a merged class
    (Comp(X1), Comp(U0), StateAtom(U2, "H"), StateAtom(X1, "T")),
    (H_OUT_IN, StateAtom(U2, "T"), StateAtom(U2, "H")),
])
def test_planned_models_match_reference_on_edge_cases(atoms):
    assert_planned_like_reference((U0, U1, U2), [atoms, flip_states(atoms)], [X1],
                                  TOKEN.states)


def test_state_atom_on_unbound_variable_fails_loudly():
    # the per-formula enumeration took such a variable as an existential;
    # a plan knows only the free variables and the binders
    loose = Var("w")
    atoms = (Comp(U0), StateAtom(loose, "H"))
    assert list(reference_pf_models((U0,), atoms, [], TOKEN.states))
    with pytest.raises(KeyError):
        list(enumerate_pf_models((U0,), atoms, [], TOKEN.states))


def spy_plans(monkeypatch):
    """Record every plan the oracle builds from now on."""
    built = []
    plan = oracle._plan
    monkeypatch.setattr(oracle, "_plan", lambda *args: built.append(args) or plan(*args))
    return built


@pytest.mark.parametrize("pred, plans, unfoldings", [("Ring_0_0", 7, 127),
                                                     ("Ring_1_1", 6, 126)])
def test_enumerate_models_plans_each_skeleton_once(pred, plans, unfoldings, monkeypatch):
    # a chain's steps differ only in their state atoms, so its unfoldings
    # of one length share a node, and so a plan
    built = spy_plans(monkeypatch)
    sid = parse_system(XVAL_TEXTS["ring.clsys"]).sid
    f = ((), (sid.atom(pred),))
    assert len(complete_unfoldings(sid, f, 8)) == unfoldings
    enumerate_models(sid, f, 8)
    assert len(built) == plans
    # plans live on the nodes of the root SID: another depth plans nothing
    enumerate_models(sid, f, 7)
    assert len(built) == plans


# the benchmark's checked instances (fixture, predicate, depth)
PLAN_SHARING_CASES = [("ring.clsys", "Ring_1_1", 8), ("ring.clsys", "Ring_0_0", 8),
                      ("chain.clsys", "Chain_1_1", 6), ("tll.clsys", "Root", 4),
                      ("pcring.clsys", "PcRing_1_1", 5)]


@pytest.mark.parametrize("name,pred,depth", PLAN_SHARING_CASES)
def test_targets_plan_nothing_after_the_source(name, pred, depth, monkeypatch):
    # a derived rule is a source rule with other state atoms and predicate
    # names, so every target walks the source's nodes and plans
    sid = parse_system(XVAL_TEXTS[name]).sid
    result = reduce_havoc_to_entailment(sid, pred, assume_tight=True)
    assert result.targets
    assert enumerate_models(sid, ((), (sid.atom(pred),)), depth)
    built = spy_plans(monkeypatch)
    combined = result.combined_sid
    for t in result.targets:
        enumerate_models(combined, ((), (combined.atom(t),)), depth)
    assert built == []
    assert not combined._nodes


def test_candidates_of_one_skeleton_share_their_sets():
    sid = parse_system(XVAL_TEXTS["ring.clsys"]).sid
    ms = enumerate_models(sid, ((), (sid.atom("Ring_1_1"),)), 6)
    by_size = {}
    for m in ms.values():
        by_size.setdefault(len(m.config.components), []).append(m.config)
    for configs in by_size.values():
        assert len({id(g.components) for g in configs}) == 1
        assert len({id(g.interactions) for g in configs}) == 1


# ---------------------------------------------------------------------------
# a candidate is its shape and its column, the state of each carrier id

def assert_column_keys_equal_pairs_keys(shape, columns):
    """Each column's key, value for value, is the key the pairs-based
    state_key gives the candidate's sorted state pairs."""
    skel = skeleton_form(shape.comps, shape.bindings, shape.carrier, shape.store)
    for column in columns:
        assert shape.key(column) == reference_state_key(skel, zip(shape.carrier, column))


@pytest.mark.parametrize("name", corpus())
def test_column_keys_equal_pairs_keys_on_every_candidate(name):
    # every candidate of every predicate's walk, as enumerate_models
    # instantiates it, each shape from its node's plan
    sid = parse_system(corpus_text(name)).sid
    depth = 2 if name == "tll_original.clsys" else 4
    states = sorted(sid.behavior.states)
    candidates = {}
    for pred in sid.predicates:
        for node, pins in complete_unfoldings(sid, ((), (sid.atom(pred),)), depth):
            for shape, column in oracle._instantiate(oracle._node_plan(node), pins, states):
                candidates.setdefault(shape, set()).add(column)
    assert candidates
    for shape, columns in candidates.items():
        assert_column_keys_equal_pairs_keys(shape, columns)


@pytest.mark.parametrize("pred, twins", [("Bag", 0), ("Star", 1)])
def test_column_keys_equal_pairs_keys_on_twins(pred, twins):
    # Bag's eight components are eight parts of one id each; Star's eight
    # leaves are one twin group of eight, whose states are sorted into the
    # group's column indices before a labelling reads them
    sid = parse_system(SYMMETRIC).sid
    for m in models_by_key(enumerate_models(sid, ((), (sid.atom(pred),)), 2)):
        assert [len(grp) for part in m.shape.layout for grp in part[2]] == [8] * twins
        assert_column_keys_equal_pairs_keys(m.shape, itertools.product(
            "HT", repeat=len(m.shape.carrier)))


def test_column_keys_equal_pairs_keys_on_a_hub_of_isomorphic_arms():
    # a hub with three arms of two components: permuting the arms is an
    # automorphism but no twin swap, so the part keeps 6 labellings, each
    # its own index permutation into the column
    arms = [(f"a{k}", f"b{k}") for k in range(3)]
    bindings = [(("h", "out"), (a, "in")) for a, _ in arms]
    bindings += [((a, "out"), (b, "in")) for a, b in arms]
    shape = Shape(tuple(sorted(["h", *itertools.chain(*arms)])), tuple(sorted(bindings)),
                  ((X1, "h"),))
    (part,) = shape.layout
    assert len(part[3]) == 6 and part[2] == ()
    assert_column_keys_equal_pairs_keys(shape, itertools.product("HT", repeat=7))


def spy_configurations(monkeypatch):
    """Record every Configuration built from now on."""
    built = []
    post_init = core.Configuration.__post_init__
    monkeypatch.setattr(core.Configuration, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    return built


def test_enumeration_builds_no_configuration(monkeypatch):
    sid = parse_system(XVAL_TEXTS["ring.clsys"]).sid
    result = reduce_havoc_to_entailment(sid, "Ring_1_1", assume_tight=True)
    bad = parse_system(XVAL_TEXTS["bad.clsys"]).sid
    built = spy_configurations(monkeypatch)
    for lhs, rhs in result.entailments:
        assert entails_bounded(result.combined_sid, lhs, rhs, 8).holds
    assert havoc_invariant_bounded(sid, "Ring_1_1", 8).invariant
    assert cross_validate_reduction(sid, "Ring_1_1", 8, result).equal
    assert built == []
    # a counterexample builds two: its model's and its successor's
    ce = havoc_invariant_bounded(bad, "TH", 3).counterexample
    assert built == [ce.config, ce.successor]
    (model,) = models_by_key(enumerate_models(bad, ((), (bad.atom("TH"),)), 3))
    assert built[0] is model.config
    # models are equal when their configurations and provenances are
    assert model == Model(model.provenance, (), model.shape, model.column)
    assert model != Model("unfolding#1", model.key, model.shape, model.column)
