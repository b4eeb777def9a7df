"""Logic-level tests, including a naive reference evaluator for satisfaction.

The reference evaluator follows the satisfaction table literally: separating
conjunction enumerates every split of the configuration, existentials range
over the carrier plus one fresh absent id per state.  The production
evaluator (bijective matching) must agree with it everywhere.
"""

import itertools
import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clhavoc.core import Configuration, Interaction
from clhavoc.frontend import ParseError, parse_system, render_var
from clhavoc.logic import (SID, Comp, Emp, Eq, Exists, Inter, Neq, Pred, Rule,
                           SepConj, StateAtom, UnboundVariable,
                           UndefinedPredicate, Var, atom_text, atom_vars,
                           complete_unfoldings, eval_bounded, eval_pf,
                           exists, free_vars, least_heights, prenex, sep,
                           substitute, unfold_formula, var_text)
from clhavoc.reduction import reduce_havoc_to_entailment

from conftest import REUSE_CASES, corpus, corpus_text, load
from reference import TOKEN, comp_in, unfold

X, Y, Z, U = Var("x"), Var("y"), Var("z"), Var("u")


# ---------------------------------------------------------------------------
# reference evaluator

def naive_eval(g, nu, f, states=("H", "T")):
    if isinstance(f, Exists):
        pool = set(g.carrier) | set(nu.values())
        fresh = {}
        for k, q in enumerate(sorted(states)):
            for i in range(len(f.vars)):
                fresh[f"~{q}~{i}"] = q
        g2 = g.extend_carrier(fresh)
        body = f.body if len(f.vars) == 1 else Exists(f.vars[1:], f.body)
        v = f.vars[0]
        return any(naive_eval(g2, {**nu, v: c}, body, states)
                   for c in sorted(pool | set(fresh)))
    if isinstance(f, SepConj):
        head, rest = f.parts[0], sep(*f.parts[1:])
        comps = sorted(g.components)
        inters = sorted(g.interactions, key=repr)
        for cs in _subsets(comps):
            for its in _subsets(inters):
                g1 = Configuration.make(cs, its, g.state_map)
                g2 = Configuration.make(set(comps) - set(cs),
                                        set(inters) - set(its), g.state_map)
                if naive_eval(g1, nu, head, states) and naive_eval(g2, nu, rest, states):
                    return True
        return False
    if isinstance(f, Emp):
        return not g.components and not g.interactions
    if isinstance(f, Comp):
        return g.components == {nu[f.var]} and not g.interactions
    if isinstance(f, Inter):
        if g.components:
            return False
        try:
            want = Interaction(tuple((nu[v], p) for v, p in f.bindings))
        except ValueError:
            return False
        return g.interactions == {want}
    if isinstance(f, StateAtom):
        return (not g.components and not g.interactions
                and g.state_map.get(nu[f.var]) == f.state)
    if isinstance(f, Eq):
        return not g.components and not g.interactions and nu[f.left] == nu[f.right]
    if isinstance(f, Neq):
        return not g.components and not g.interactions and nu[f.left] != nu[f.right]
    raise TypeError(f)


def _subsets(items):
    for k in range(len(items) + 1):
        yield from itertools.combinations(items, k)


# ---------------------------------------------------------------------------
# substitution

def test_substitute_free():
    assert substitute(Eq(X, Y), {X: Z}) == Eq(Z, Y)


def test_substitute_bound_untouched():
    f = exists([X], Eq(X, Y))
    assert substitute(f, {X: Z}) == f


def test_substitute_simultaneous():
    f = Pred("Chain", (X, Y))
    assert substitute(f, {X: U, Y: X}) == Pred("Chain", (U, X))


def test_substitute_capture_avoiding():
    f = exists([X], Eq(X, Y))
    g = substitute(f, {Y: X})
    assert isinstance(g, Exists)
    binder = g.vars[0]
    assert binder != X
    assert g.body == Eq(binder, X)


# ---------------------------------------------------------------------------
# the atom layer: one atom of each kind, with its text in both spellings

ATOMS = [
    # atom, var_text spelling (automaton dumps), surface spelling
    (Emp(), "emp", "emp"),
    (Comp(X), "comp(x)", "comp(x)"),
    (StateAtom(X, "H"), "state(x:H)", "state(x : H)"),
    (Inter(((X, "out"), (Y, "in"))), "<x.out, y.in>", "<x.out, y.in>"),
    (Eq(X, Y), "x=y", "x = y"),
    (Neq(Y, Var("z", (2,))), "y!=z_2", "y != z_2"),
    (Pred("Chain", (X, Y, X)), "Chain(x, y, x)", "Chain(x, y, x)"),
]


@pytest.mark.parametrize("atom, dump, surface", ATOMS,
                         ids=[type(a).__name__ for a, _, _ in ATOMS])
def test_atom_layer(atom, dump, surface):
    assert free_vars(atom) == frozenset(atom_vars(atom))
    mapping = {X: U, Y: Z, Var("z", (2,)): X}
    assert atom_vars(substitute(atom, mapping)) == tuple(
        mapping.get(v, v) for v in atom_vars(atom))
    assert atom_text(atom, var_text, "") == dump
    assert atom_text(atom, render_var, " ") == surface


# ---------------------------------------------------------------------------
# satisfaction

def two_ring(qx="H", qy="T"):
    rho = {"c1": qx, "c2": qy}
    return Configuration.make(
        ["c1", "c2"],
        [Interaction.make(("c1", "out"), ("c2", "in")),
         Interaction.make(("c2", "out"), ("c1", "in"))], rho)


def test_eval_qpf_two_component_example():
    g = two_ring("H", "T")
    f = sep(comp_in(X, "H"), comp_in(Y, "T"),
            Inter(((X, "out"), (Y, "in"))), Inter(((Y, "out"), (X, "in"))))
    assert eval_pf(g, {X: "c1", Y: "c2"}, f)
    assert not eval_pf(g, {X: "c2", Y: "c1"}, f)


def test_eval_qpf_emp_and_comp():
    empty = Configuration.make([], [], {})
    assert eval_pf(empty, {}, Emp())
    assert not eval_pf(empty, {X: "c1"}, Comp(X))


def test_eval_qpf_disjointness_forces_two():
    g = Configuration.make(["c1"], [], {"c1": "H"})
    f = sep(Comp(X), Comp(Y))
    for cx, cy in itertools.product(["c1"], repeat=2):
        assert not eval_pf(g, {X: cx, Y: cy}, f)
    assert not naive_eval(g, {X: "c1", Y: "c1"}, f)


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariable):
        eval_pf(two_ring(), {X: "c1"}, Eq(X, Y))


def test_eval_pf_existential_uses_pool():
    # a fresh absent component in any state is always available
    empty = Configuration.make([], [], {})
    f = exists([X], StateAtom(X, "T"))
    assert eval_pf(empty, {}, f)
    f2 = exists([X, Y], sep(StateAtom(X, "T"), StateAtom(Y, "T"), Neq(X, Y)))
    assert eval_pf(empty, {}, f2)


def test_eval_pf_matches_naive_on_enumerated_formulas():
    g = two_ring("H", "T")
    vars = [X, Y]
    nus = [{X: a, Y: b} for a in ("c1", "c2") for b in ("c1", "c2")]
    atoms = [Comp(X), Comp(Y), comp_in(X, "H"), comp_in(Y, "T"),
             Inter(((X, "out"), (Y, "in"))), Inter(((Y, "out"), (X, "in"))),
             Eq(X, Y), Neq(X, Y), StateAtom(X, "H")]
    checked = 0
    for k in (2, 3, 4):
        for combo in itertools.combinations(atoms, k):
            f = sep(*combo)
            for nu in nus:
                assert eval_pf(g, nu, f) == naive_eval(g, nu, f), (f, nu)
                checked += 1
    assert checked > 100


def test_eval_pf_matches_naive_with_existentials():
    g = two_ring("H", "T")
    cases = [
        exists([X, Y], sep(comp_in(X, "H"), comp_in(Y, "T"),
                           Inter(((X, "out"), (Y, "in"))),
                           Inter(((Y, "out"), (X, "in"))))),
        exists([X, Y], sep(Comp(X), Comp(Y),
                           Inter(((X, "out"), (Y, "in"))),
                           Inter(((Y, "out"), (X, "in"))), Neq(X, Y))),
        exists([X], sep(Comp(X), StateAtom(X, "T"))),
        exists([X], StateAtom(X, "T")),
    ]
    for f in cases:
        assert eval_pf(g, {}, f) == naive_eval(g, {}, f), f


def test_eval_pf_unary_interaction_on_a_present_component():
    # one component is bound by a component atom and by a unary interaction
    # atom: the interaction does not use up the component
    g = Configuration.make(["c1"], [Interaction.make(("c1", "out"))], {"c1": "H"})
    f = sep(Comp(X), Inter(((X, "out"),)))
    for case, nu in ((f, {X: "c1"}), (exists([X], f), {})):
        assert eval_pf(g, nu, case) and naive_eval(g, nu, case)
    sid = SID((Rule("P", (), (X,), f.parts),), TOKEN)
    assert eval_bounded(g, {}, Pred("P", ()), sid, 1)


def test_eval_distributes_over_compose():
    # g |= f1 * f2 iff some split satisfies the parts: the naive evaluator is
    # the split enumeration itself, so agreement on conjunctions proves it
    g = two_ring("H", "T")
    f1 = comp_in(X, "H")
    f2 = sep(comp_in(Y, "T"), Inter(((X, "out"), (Y, "in"))),
             Inter(((Y, "out"), (X, "in"))))
    nu = {X: "c1", Y: "c2"}
    assert eval_pf(g, nu, sep(f1, f2)) == naive_eval(g, nu, sep(f1, f2)) is True


IDS = ["c1", "c2", "c3"]
VARS = [X, Y, Z]


def _ports(n):
    return st.tuples(*[st.sampled_from(["in", "out"])] * n)


def _configs():
    states = st.sampled_from(["H", "T"])
    comps = st.sets(st.sampled_from(IDS), max_size=3)
    # interactions of arity 1 to 3 over distinct components
    inter = st.integers(1, 3).flatmap(lambda n: st.builds(
        lambda cs, ports: Interaction(tuple(zip(cs, ports))),
        st.permutations(IDS), _ports(n)))
    inters = st.sets(inter, max_size=2)
    rho = st.fixed_dictionaries({c: states for c in IDS})
    return st.builds(lambda cs, its, r: Configuration.make(cs, its, r),
                     comps, inters, rho)


def _atoms_strategy():
    v = st.sampled_from(VARS)
    return st.one_of(
        st.builds(Comp, v),
        st.builds(StateAtom, v, st.sampled_from(["H", "T"])),
        st.integers(1, 3).flatmap(lambda n: st.builds(
            lambda vs, ports: Inter(tuple(zip(vs, ports))),
            st.lists(v, min_size=n, max_size=n), _ports(n))),
        st.builds(Eq, v, v),
        st.builds(Neq, v, v),
    )


@settings(max_examples=250, deadline=None)
@given(_configs(), st.lists(_atoms_strategy(), min_size=1, max_size=4),
       st.sets(st.sampled_from(VARS), max_size=2),
       st.fixed_dictionaries({v: st.sampled_from(IDS) for v in VARS}))
def test_eval_pf_matches_naive_randomized(g, atoms, exvars, nu):
    f = exists(tuple(sorted(exvars)), sep(*atoms))
    nu = {v: c for v, c in nu.items() if v in free_vars(f)}
    assert eval_pf(g, nu, f) == naive_eval(g, nu, f)


# ---------------------------------------------------------------------------
# unfolding

def test_unfold_undefined_predicate(ring):
    with pytest.raises(UndefinedPredicate):
        unfold(ring.sid, Pred("Nope", ()), 2)


def test_unfold_depth_zero(ring):
    atom = ring.sid.atom("Ring_1_1")
    out = unfold(ring.sid, atom, 0)
    assert out == [(atom, False)]


def test_unfold_base_depth_one(ring):
    atom = Pred("Chain_0_1", (X, X))
    complete = [f for f, c in unfold(ring.sid, atom, 1) if c]
    want = sep(Eq(X, X), comp_in(X, "T"))
    assert want in complete


def test_unfold_ring_hand_count(ring):
    # complete unfoldings at height 4 = rings of size 2 and 3 with state
    # choices along the chain: 2 + 4 by hand
    complete = [f for f, c in unfold(ring.sid, ring.sid.atom("Ring_1_1"), 4) if c]
    assert len(complete) == 6


def test_unfold_monotone_in_depth(ring):
    a = {f for f, c in unfold(ring.sid, ring.sid.atom("Ring_1_1"), 3) if c}
    b = {f for f, c in unfold(ring.sid, ring.sid.atom("Ring_1_1"), 4) if c}
    assert a <= b


def test_eval_bounded_three_ring(ring):
    rho = {"c1": "H", "c2": "H", "c3": "T"}
    g = Configuration.make(
        ["c1", "c2", "c3"],
        [Interaction.make(("c1", "out"), ("c2", "in")),
         Interaction.make(("c2", "out"), ("c3", "in")),
         Interaction.make(("c3", "out"), ("c1", "in"))], rho)
    assert eval_bounded(g, {}, ring.sid.atom("Ring_1_1"), ring.sid, 4)


def test_eval_bounded_empty_config(ring):
    empty = Configuration.make([], [], {})
    nu = {Var("x1"): "c1", Var("x2"): "c2"}
    assert not eval_bounded(empty, nu, ring.sid.atom("Chain_1_1"), ring.sid, 4)


def test_eval_bounded_two_ring_needs_three_components(ring2):
    g = two_ring("H", "T")
    assert eval_bounded(g, {}, ring2.sid.atom("Ring_1_1"), ring2.sid, 5)
    assert not eval_bounded(g, {}, ring2.sid.atom("Ring_2_1"), ring2.sid, 5)


def test_eval_bounded_stable_under_depth(ring):
    g = two_ring("H", "T")
    atom = ring.sid.atom("Ring_1_1")
    assert eval_bounded(g, {}, atom, ring.sid, 3)
    assert eval_bounded(g, {}, atom, ring.sid, 5)


# The formula-building unfolding that the template-based one replaced, kept
# as the reference for names, order and completeness of every unfolding.

@dataclass(frozen=True)
class _Pending:
    atom: Pred
    budget: int


def reference_unfold_formula(sid, f, depth):
    counter = itertools.count()
    binders0, atoms0 = prenex(f, counter, prefix="%u")
    defined = set(sid.predicates)

    def wrap(items):
        out = []
        for a in items:
            if isinstance(a, Pred):
                if a.name not in defined:
                    raise UndefinedPredicate(a.name)
                out.append(_Pending(a, depth))
            else:
                out.append(a)
        return out

    results = []
    stack = [(binders0, wrap(atoms0))]
    while stack:
        binders, items = stack.pop()
        pend_at = next((i for i, a in enumerate(items) if isinstance(a, _Pending)), None)
        plain = [a.atom if isinstance(a, _Pending) else a for a in items]
        formula = exists(binders, sep(*plain))
        results.append((formula, pend_at is None))
        if pend_at is None:
            continue
        pend = items[pend_at]
        if pend.budget == 0:
            continue
        successors = []
        for rule in sid.rules_of(pend.atom.name):
            rbinders, ratoms = prenex(exists(rule.binders, sep(*rule.atoms)), counter,
                                      prefix="%u")
            mapping = dict(zip(rule.params, pend.atom.args))
            spliced = []
            for a in ratoms:
                a2 = substitute(a, mapping)
                if isinstance(a2, Pred):
                    spliced.append(_Pending(a2, pend.budget - 1))
                else:
                    spliced.append(a2)
            successors.append((binders + rbinders,
                               items[:pend_at] + spliced + items[pend_at + 1:]))
        stack.extend(reversed(successors))
    return results


# the rank-2 list fixtures have 3,486 unfoldings at depth 4 and millions at 5
MAX_DEPTH = {"tll.clsys": 4, "tll_original.clsys": 4}


@pytest.mark.parametrize("name", corpus())
def test_unfold_matches_reference(name):
    sid = parse_system(corpus_text(name)).sid
    for pred in sid.predicates:
        atom = sid.atom(pred)
        for depth in range(MAX_DEPTH.get(name, 5) + 1):
            want = reference_unfold_formula(sid, atom, depth)
            assert unfold(sid, atom, depth) == want, (pred, depth)
            forms = unfold_formula(sid, atom, depth)
            assert [(exists(b, sep(*a)), done) for (b, a), done in forms] == want


def test_unfold_formula_matches_reference_under_binders(ring):
    # a quantified formula with a free variable: its own binders are renamed
    # before the rule binders, from the same counter
    sid = ring.sid
    f = exists([Y], sep(Pred("Chain_1_1", (X, Y)), Pred("Chain_0_1", (Y, X))))
    for depth in range(5):
        want = reference_unfold_formula(sid, f, depth)
        got = unfold_formula(sid, f, depth)
        assert [(exists(b, sep(*a)), done) for (b, a), done in got] == want


# ---------------------------------------------------------------------------
# the pruned walk to complete unfoldings

def binders_ranked(form):
    """A prenex form with each binder renamed to its rank among the binders,
    so two forms agree iff one is the other under an order-preserving
    renaming of binders."""
    binders, atoms = form
    rank = {b: Var("%r", (k,)) for k, b in enumerate(sorted(binders))}
    return tuple(rank[b] for b in binders), tuple(substitute(a, rank) for a in atoms)


def assert_walk_matches_reference(sid, f, depth):
    want = [binders_ranked(u) for u, done in unfold_formula(sid, f, depth) if done]
    assert [binders_ranked(u) for u in complete_unfoldings(sid, f, depth)] == want


def assert_heights_match_brute_force(sid, preds, max_depth=5):
    heights = least_heights(sid, preds)
    for pred in preds:
        least = next((d for d in range(max_depth + 1)
                      if any(done for _, done in unfold_formula(sid, sid.atom(pred), d))),
                     None)
        if least is None:
            assert heights[pred] > max_depth, pred
        else:
            assert heights[pred] == least, pred


@pytest.mark.parametrize("name", corpus())
def test_complete_unfoldings_match_reference(name):
    sid = parse_system(corpus_text(name)).sid
    for pred in sid.predicates:
        for depth in range(MAX_DEPTH.get(name, 5) + 1):
            assert_walk_matches_reference(sid, sid.atom(pred), depth)
    assert_heights_match_brute_force(sid, sid.predicates)


def test_complete_unfoldings_match_reference_under_binders(ring):
    f = exists([Y], sep(Pred("Chain_1_1", (X, Y)), Pred("Chain_0_1", (Y, X))))
    for depth in range(5):
        assert_walk_matches_reference(ring.sid, f, depth)


@pytest.mark.parametrize("name,pred,depth", REUSE_CASES)
def test_complete_unfoldings_of_derived_predicates(name, pred, depth):
    result = reduce_havoc_to_entailment(load(name).sid, pred, assume_tight=True)
    sid = result.combined_sid
    for p in result.derived_sid.predicates:
        for d in range(depth + 1):
            assert_walk_matches_reference(sid, sid.atom(p), d)
    assert_heights_match_brute_force(sid, result.derived_sid.predicates)


def test_predicate_that_never_completes():
    # Loop only calls itself; Maybe completes only by its base rule
    loop = Rule("Loop", (X,), (), (Comp(X), Pred("Loop", (X,))))
    maybe = [Rule("Maybe", (X,), (), (Pred("Loop", (X,)),)),
             Rule("Maybe", (X,), (), (Comp(X), StateAtom(X, "H")))]
    sid = SID((loop, *maybe), TOKEN)
    assert least_heights(sid, ["Maybe"]) == {"Maybe": 1, "Loop": math.inf}
    for depth in range(4):
        assert complete_unfoldings(sid, Pred("Loop", (X,)), depth) == []
        assert_walk_matches_reference(sid, Pred("Loop", (X,)), depth)
        assert_walk_matches_reference(sid, Pred("Maybe", (X,)), depth)
    assert complete_unfoldings(sid, Pred("Maybe", (X,)), 3) == [((), (Comp(X), StateAtom(X, "H")))]


# ---------------------------------------------------------------------------
# a rule is its prenex form; SIDs index their rules by head

def rule_sids():
    """Every fixture SID, then the combined SID of each reuse reduction."""
    for name in corpus():
        yield parse_system(corpus_text(name)).sid
    for name, pred, _ in REUSE_CASES:
        yield reduce_havoc_to_entailment(load(name).sid, pred, assume_tight=True).combined_sid


def test_rules_keep_their_prenex_form():
    for sid in rule_sids():
        for rule in sid.rules:
            # binders keep written, plain names, apart from the parameters
            names = rule.params + rule.binders
            assert len(set(names)) == len(names)
            assert not any(v.name.startswith("%") for v in names)
            # the rule is already prenex: prenexing it again only renames binders
            binders, atoms = prenex(exists(rule.binders, sep(*rule.atoms)))
            ren = dict(zip(rule.binders, binders))
            assert atoms == tuple(substitute(a, ren) for a in rule.atoms)
            assert [rule.atoms[i] for i in rule.calls] == [
                a for a in rule.atoms if isinstance(a, Pred)]
            assert list(rule.preds) == [rule.atoms[i] for i in rule.calls]
            assert list(rule.pf_atoms) == [
                a for a in rule.atoms if not isinstance(a, Pred)]


@pytest.mark.parametrize("name", corpus())
def test_sid_index_matches_linear_scan(name):
    sid = parse_system(corpus_text(name)).sid
    heads = list(dict.fromkeys(r.head for r in sid.rules))
    assert sid.predicates == tuple(heads)
    for head in heads:
        rules = tuple(r for r in sid.rules if r.head == head)
        assert sid.rules_of(head) == rules
        assert sid.arity(head) == len(rules[0].params)
    assert sid.rules_of("Nope") == ()
    with pytest.raises(UndefinedPredicate):
        sid.arity("Nope")


def test_shadowing_binder_is_renamed_in_rule_atoms():
    # exists y . comp(x) * <x.in, y.out> * P(y, x): the binder clashes with
    # the parameter y, so it takes the fresh name y_1 in every atom it binds
    text = ("behavior { ports in, out; states H; } "
            "sid { P(x, y) <- exists y . comp(x) * <x.in, y.out> * P(y, x); }")
    (rule,) = parse_system(text).sid.rules
    y1 = Var("y_1")
    assert rule.params == (X, Y)
    assert rule.binders == (y1,)
    assert rule.atoms == (Comp(X), Inter(((X, "in"), (y1, "out"))), Pred("P", (y1, X)))


def test_written_binder_names_are_kept():
    text = ("behavior { ports in, out; states H; } "
            "sid { P(x) <- exists w, y . comp(x) * <x.in, w.out> * P(w) * y != x; }")
    (rule,) = parse_system(text).sid.rules
    assert rule.binders == (Var("w"), Y)
    assert rule.atoms[-1] == Neq(Y, X)


def test_rule_rejects_unbound_body_variables():
    with pytest.raises(ValueError, match="unbound body variables"):
        Rule("P", (X,), (), (Comp(Y),))
    with pytest.raises(ParseError, match="unbound variable 'y'"):
        parse_system("behavior { ports p; states q; } "
                     "sid { P(x) <- (exists y . comp(y)) * comp(y); }")
    with pytest.raises(ValueError, match="must be distinct"):
        Rule("P", (X, X), (), (Comp(X),))
    with pytest.raises(ValueError, match="must be distinct"):
        Rule("P", (X,), (X,), (Comp(X),))
    with pytest.raises(ValueError, match="must be distinct"):
        Rule("P", (X,), (Y, Y), (Comp(X),))
