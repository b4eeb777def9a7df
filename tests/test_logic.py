"""Logic-level tests, including a naive reference evaluator for satisfaction.

The reference evaluator follows the satisfaction table literally: the
binders of a prenex form range over the carrier plus fresh absent ids in
each state, and separating conjunction enumerates every split of the
configuration over the atom list.  The production evaluator (bijective
matching) must agree with it everywhere.
"""

import itertools
import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clhavoc.core import Behavior, Configuration, Interaction
from clhavoc.frontend import ParseError, parse_system, render_var
from clhavoc.logic import (SID, Comp, Eq, Inter, Neq, Pred, Rule, StateAtom,
                           UnboundVariable, UndefinedPredicate, Var, atom_text,
                           atom_vars, complete_unfoldings, derive, eval_bounded, eval_pf,
                           least_heights, prenex, substitute, unfold_formula,
                           var_text)
from clhavoc.reduction import reduce_havoc_to_entailment

from conftest import FIXTURES, REUSE_CASES, corpus, corpus_text, load, source_fixtures
from reference import (TOKEN, assert_heights_match_brute_force, comp_in, reference_derive,
                       reference_skeleton)

X, Y, Z, U = Var("x"), Var("y"), Var("z"), Var("u")


# ---------------------------------------------------------------------------
# reference evaluator

def naive_eval(g, nu, f, states=("H", "T")):
    """(g, nu) |= exists binders . *atoms: some values of the binders, drawn
    from the carrier, the store and fresh absent ids, satisfy the atoms."""
    binders, atoms = f
    if not binders:
        return naive_sep(g, nu, atoms)
    pool = set(g.carrier) | set(nu.values())
    fresh = {f"~{q}~{i}": q for q in sorted(states) for i in range(len(binders))}
    g2 = Configuration.make(g.components, g.interactions, {**g.state_map, **fresh})
    return any(naive_sep(g2, {**nu, **dict(zip(binders, values))}, atoms)
               for values in itertools.product(sorted(pool | set(fresh)),
                                               repeat=len(binders)))


def naive_sep(g, nu, atoms):
    """(g, nu) |= atom_1 * ... * atom_n: no atoms is emp, and otherwise some
    split of g satisfies the first atom and the rest."""
    if not atoms:
        return not g.components and not g.interactions
    if len(atoms) == 1:
        return naive_atom(g, nu, atoms[0])
    head, rest = atoms[0], atoms[1:]
    comps = sorted(g.components)
    inters = sorted(g.interactions, key=repr)
    for cs in _subsets(comps):
        for its in _subsets(inters):
            g1 = Configuration.make(cs, its, g.state_map)
            g2 = Configuration.make(set(comps) - set(cs),
                                    set(inters) - set(its), g.state_map)
            if naive_atom(g1, nu, head) and naive_sep(g2, nu, rest):
                return True
    return False


def naive_atom(g, nu, f):
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


def test_substitute_simultaneous():
    f = Pred("Chain", (X, Y))
    assert substitute(f, {X: U, Y: X}) == Pred("Chain", (U, X))


def test_prenex_renames_binders_apart():
    # exists y, z . P(x, y) * y != z: the binders take fresh names from the
    # counter, in order, in every atom; the free x is left alone
    counter = itertools.count(3)
    u3, u4 = Var("%u", (3,)), Var("%u", (4,))
    f = ((Y, Z), (Pred("P", (X, Y)), Neq(Y, Z)))
    assert prenex(f, counter) == ((u3, u4), (Pred("P", (X, u3)), Neq(u3, u4)))
    assert next(counter) == 5
    assert prenex(((X,), (Comp(X), Comp(Y)))) == ((Var("%u", (0,)),),
                                                 (Comp(Var("%u", (0,))), Comp(Y)))
    assert prenex(((), (Eq(X, Y),))) == ((), (Eq(X, Y),))


# ---------------------------------------------------------------------------
# the atom layer: one atom of each kind, with its text in both spellings

ATOMS = [
    # atom, var_text spelling (automaton dumps), surface spelling
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
    f = ((), (*comp_in(X, "H"), *comp_in(Y, "T"),
              Inter(((X, "out"), (Y, "in"))), Inter(((Y, "out"), (X, "in")))))
    assert eval_pf(g, {X: "c1", Y: "c2"}, f)
    assert not eval_pf(g, {X: "c2", Y: "c1"}, f)


def test_eval_qpf_emp_and_comp():
    empty = Configuration.make([], [], {})
    assert eval_pf(empty, {}, ((), ()))
    assert not eval_pf(empty, {X: "c1"}, ((), (Comp(X),)))


def test_eval_qpf_disjointness_forces_two():
    g = Configuration.make(["c1"], [], {"c1": "H"})
    f = ((), (Comp(X), Comp(Y)))
    for cx, cy in itertools.product(["c1"], repeat=2):
        assert not eval_pf(g, {X: cx, Y: cy}, f)
    assert not naive_eval(g, {X: "c1", Y: "c1"}, f)


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariable):
        eval_pf(two_ring(), {X: "c1"}, ((), (Eq(X, Y),)))


def test_eval_pf_existential_uses_pool():
    # a fresh absent component in any state is always available
    empty = Configuration.make([], [], {})
    f = ((X,), (StateAtom(X, "T"),))
    assert eval_pf(empty, {}, f)
    f2 = ((X, Y), (StateAtom(X, "T"), StateAtom(Y, "T"), Neq(X, Y)))
    assert eval_pf(empty, {}, f2)


def test_eval_pf_matches_naive_on_enumerated_formulas():
    g = two_ring("H", "T")
    vars = [X, Y]
    nus = [{X: a, Y: b} for a in ("c1", "c2") for b in ("c1", "c2")]
    # each part is the atoms of one conjunct
    parts = [(Comp(X),), (Comp(Y),), comp_in(X, "H"), comp_in(Y, "T"),
             (Inter(((X, "out"), (Y, "in"))),), (Inter(((Y, "out"), (X, "in"))),),
             (Eq(X, Y),), (Neq(X, Y),), (StateAtom(X, "H"),)]
    checked = 0
    for k in (2, 3, 4):
        for combo in itertools.combinations(parts, k):
            f = ((), sum(combo, ()))
            for nu in nus:
                assert eval_pf(g, nu, f) == naive_eval(g, nu, f), (f, nu)
                checked += 1
    assert checked > 100


def test_eval_pf_matches_naive_with_existentials():
    g = two_ring("H", "T")
    cases = [
        ((X, Y), (*comp_in(X, "H"), *comp_in(Y, "T"),
                  Inter(((X, "out"), (Y, "in"))),
                  Inter(((Y, "out"), (X, "in"))))),
        ((X, Y), (Comp(X), Comp(Y),
                  Inter(((X, "out"), (Y, "in"))),
                  Inter(((Y, "out"), (X, "in"))), Neq(X, Y))),
        ((X,), (Comp(X), StateAtom(X, "T"))),
        ((X,), (StateAtom(X, "T"),)),
    ]
    for f in cases:
        assert eval_pf(g, {}, f) == naive_eval(g, {}, f), f


def test_eval_pf_unary_interaction_on_a_present_component():
    # one component is bound by a component atom and by a unary interaction
    # atom: the interaction does not use up the component
    g = Configuration.make(["c1"], [Interaction.make(("c1", "out"))], {"c1": "H"})
    atoms = (Comp(X), Inter(((X, "out"),)))
    for case, nu in ((((), atoms), {X: "c1"}), (((X,), atoms), {})):
        assert eval_pf(g, nu, case) and naive_eval(g, nu, case)
    sid = SID((Rule("P", (), (X,), atoms),), TOKEN)
    assert eval_bounded(g, {}, ((), (Pred("P", ()),)), sid, 1)


def test_eval_distributes_over_compose():
    # g |= f1 * f2 iff some split satisfies the parts: the naive evaluator is
    # the split enumeration itself, so agreement on conjunctions proves it
    g = two_ring("H", "T")
    f1 = comp_in(X, "H")
    f2 = (*comp_in(Y, "T"), Inter(((X, "out"), (Y, "in"))),
          Inter(((Y, "out"), (X, "in"))))
    nu = {X: "c1", Y: "c2"}
    f = ((), f1 + f2)
    assert eval_pf(g, nu, f) == naive_eval(g, nu, f) is True


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
    f = (tuple(sorted(exvars)), tuple(atoms))
    free = {v for a in atoms for v in atom_vars(a)} - exvars
    nu = {v: c for v, c in nu.items() if v in free}
    assert eval_pf(g, nu, f) == naive_eval(g, nu, f)


# ---------------------------------------------------------------------------
# unfolding

def test_unfold_undefined_predicate(ring):
    with pytest.raises(UndefinedPredicate):
        unfold_formula(ring.sid, ((), (Pred("Nope", ()),)), 2)


def test_unfold_depth_zero(ring):
    f = ((), (ring.sid.atom("Ring_1_1"),))
    assert unfold_formula(ring.sid, f, 0) == [(f, False)]


def test_unfold_base_depth_one(ring):
    f = ((), (Pred("Chain_0_1", (X, X)),))
    complete = [u for u, c in unfold_formula(ring.sid, f, 1) if c]
    want = ((), (Eq(X, X), *comp_in(X, "T")))
    assert want in complete


def test_unfold_ring_hand_count(ring):
    # complete unfoldings at height 4 = rings of size 2 and 3 with state
    # choices along the chain: 2 + 4 by hand
    complete = [u for u, c in unfold_formula(ring.sid, ((), (ring.sid.atom("Ring_1_1"),)), 4)
                if c]
    assert len(complete) == 6


def test_unfold_monotone_in_depth(ring):
    f = ((), (ring.sid.atom("Ring_1_1"),))
    a = {u for u, c in unfold_formula(ring.sid, f, 3) if c}
    b = {u for u, c in unfold_formula(ring.sid, f, 4) if c}
    assert a <= b


def test_eval_bounded_three_ring(ring):
    rho = {"c1": "H", "c2": "H", "c3": "T"}
    g = Configuration.make(
        ["c1", "c2", "c3"],
        [Interaction.make(("c1", "out"), ("c2", "in")),
         Interaction.make(("c2", "out"), ("c3", "in")),
         Interaction.make(("c3", "out"), ("c1", "in"))], rho)
    assert eval_bounded(g, {}, ((), (ring.sid.atom("Ring_1_1"),)), ring.sid, 4)


def test_eval_bounded_empty_config(ring):
    empty = Configuration.make([], [], {})
    nu = {Var("x1"): "c1", Var("x2"): "c2"}
    assert not eval_bounded(empty, nu, ((), (ring.sid.atom("Chain_1_1"),)), ring.sid, 4)


def test_eval_bounded_two_ring_needs_three_components(ring2):
    g = two_ring("H", "T")
    assert eval_bounded(g, {}, ((), (ring2.sid.atom("Ring_1_1"),)), ring2.sid, 5)
    assert not eval_bounded(g, {}, ((), (ring2.sid.atom("Ring_2_1"),)), ring2.sid, 5)


def test_eval_bounded_stable_under_depth(ring):
    g = two_ring("H", "T")
    f = ((), (ring.sid.atom("Ring_1_1"),))
    assert eval_bounded(g, {}, f, ring.sid, 3)
    assert eval_bounded(g, {}, f, ring.sid, 5)


# The formula-building unfolding that the template-based one replaced, kept
# as the reference for names, order and completeness of every unfolding.

@dataclass(frozen=True)
class _Pending:
    atom: Pred
    budget: int


def reference_unfold_formula(sid, f, depth):
    counter = itertools.count()
    binders0, atoms0 = prenex(f, counter)
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
        results.append(((binders, tuple(plain)), pend_at is None))
        if pend_at is None:
            continue
        pend = items[pend_at]
        if pend.budget == 0:
            continue
        successors = []
        for rule in sid.rules_of(pend.atom.name):
            rbinders, ratoms = prenex((rule.binders, rule.atoms), counter)
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
        f = ((), (sid.atom(pred),))
        for depth in range(MAX_DEPTH.get(name, 5) + 1):
            want = reference_unfold_formula(sid, f, depth)
            assert unfold_formula(sid, f, depth) == want, (pred, depth)


def test_unfold_formula_matches_reference_under_binders(ring):
    # a quantified formula with a free variable: its own binders are renamed
    # before the rule binders, from the same counter
    sid = ring.sid
    f = ((Y,), (Pred("Chain_1_1", (X, Y)), Pred("Chain_0_1", (Y, X))))
    for depth in range(5):
        assert unfold_formula(sid, f, depth) == reference_unfold_formula(sid, f, depth)


# ---------------------------------------------------------------------------
# the pruned walk to complete unfoldings

def binders_ranked(form):
    """A prenex form with each binder renamed to its rank among the binders,
    so two forms agree iff one is the other under an order-preserving
    renaming of binders."""
    binders, atoms = form
    rank = {b: Var("%r", (k,)) for k, b in enumerate(sorted(binders))}
    return tuple(rank[b] for b in binders), tuple(substitute(a, rank) for a in atoms)


def walk_forms(sid, f, depth):
    """The prenex form the node walk builds for each complete unfolding."""
    return [node.form(states) for node, states in complete_unfoldings(sid, f, depth)]


def ranked_multiset(form):
    """binders_ranked, with the atoms as a multiset: the node walk puts an
    unfolding's state atoms after its other atoms."""
    binders, atoms = binders_ranked(form)
    return binders, sorted(atoms, key=repr)


def assert_walk_matches_reference(sid, f, depth):
    # same order, same binders up to an order-preserving renaming, same atoms
    want = [ranked_multiset(u) for u, done in unfold_formula(sid, f, depth) if done]
    assert [ranked_multiset(u) for u in walk_forms(sid, f, depth)] == want


@pytest.mark.parametrize("name", corpus())
def test_complete_unfoldings_match_reference(name):
    sid = parse_system(corpus_text(name)).sid
    for pred in sid.predicates:
        for depth in range(MAX_DEPTH.get(name, 5) + 1):
            assert_walk_matches_reference(sid, ((), (sid.atom(pred),)), depth)
    assert_heights_match_brute_force(sid)


def test_complete_unfoldings_match_reference_under_binders(ring):
    f = ((Y,), (Pred("Chain_1_1", (X, Y)), Pred("Chain_0_1", (Y, X))))
    for depth in range(5):
        assert_walk_matches_reference(ring.sid, f, depth)


def test_complete_unfoldings_match_reference_with_top_level_state_atoms(ring):
    # eval_bounded's case: several top-level atoms, state atoms among them
    # before, between and after the predicate atoms, one on a binder
    f = ((Y,), (StateAtom(X, "H"), Pred("Chain_1_1", (X, Y)), StateAtom(Y, "T"),
                Inter(((Y, "out"), (Z, "in"))), Comp(Z), Pred("Chain_0_0", (U, U)),
                StateAtom(Z, "T")))
    for depth in range(5):
        assert_walk_matches_reference(ring.sid, f, depth)
    g = Configuration.make(["a", "b", "c", "d"],
                           [Interaction((("a", "out"), ("b", "in"))),
                            Interaction((("b", "out"), ("c", "in")))],
                           {"a": "H", "b": "T", "c": "T", "d": "H"})
    for nu, holds in (({X: "a", Z: "c", U: "d"}, True), ({X: "a", Z: "b", U: "d"}, False)):
        for depth in range(4):
            assert eval_bounded(g, nu, f, ring.sid, depth) == any(
                eval_pf(g, nu, u) for u, done in unfold_formula(ring.sid, f, depth) if done)
        assert eval_bounded(g, nu, f, ring.sid, 3) == holds


def test_complete_unfoldings_match_reference_on_closed_right_hand_sides():
    # entails_bounded's right-hand form: the right-hand atom over the
    # combined SID, its arguments past the left-hand arity closed
    for name in corpus():
        sid = parse_system(corpus_text(name)).sid
        for pred in sid.predicates:
            atom = sid.atom(pred)
            for n in range(len(atom.args)):
                for depth in range(3 if name == "tll_original.clsys" else 5):
                    assert_walk_matches_reference(sid, (atom.args[n:], (atom,)), depth)


def test_complete_unfoldings_tell_rules_apart_by_ports_and_call_positions():
    # the second rule differs from the first only in its ports, the third
    # only in the positions of its call's arguments, and the fourth calls
    # another predicate with the first's key, whose rules have other ports:
    # a node's children must keep them all apart
    step = (Comp(X), Inter(((X, "out"), (Z, "in"))), Pred("P", (Z, Y)))
    sid = SID((Rule("P", (X, Y), (Z,), step),
               Rule("P", (X, Y), (Z,), (Comp(X), Inter(((X, "in"), (Z, "out"))),
                                        Pred("P", (Z, Y)))),
               Rule("P", (X, Y), (Z,), step[:2] + (Pred("P", (Y, Z)),)),
               Rule("P", (X, Y), (Z,), step[:2] + (StateAtom(X, "T"), Pred("Q", (Z, Y)))),
               Rule("P", (X, Y), (), (Eq(X, Y), Comp(X), StateAtom(X, "H"))),
               Rule("Q", (X, Y), (Z,), (Comp(X), Inter(((Z, "out"), (X, "in"))),
                                        Pred("P", (Z, Y)))),
               Rule("Q", (X, Y), (), (Eq(X, Y), Comp(X)))), TOKEN)
    for depth in range(5):
        assert_walk_matches_reference(sid, ((), (Pred("P", (X, Y)),)), depth)
        assert_walk_matches_reference(sid, ((Y,), (Pred("Q", (X, Y)), Pred("P", (Y, X)))),
                                      depth)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_complete_unfoldings_match_reference_on_ring_family(k):
    # the token ring with budgets 0..k: every source and derived predicate
    # of the reduction at Ring_k_k, and each entailment's right-hand form
    sid = parse_system((FIXTURES / "ring.clsys").read_text()
                       .replace("=0..1", f"=0..{k}")).sid
    result = reduce_havoc_to_entailment(sid, f"Ring_{k}_{k}", assume_tight=True)
    combined = result.combined_sid
    for pred in combined.predicates:
        assert_walk_matches_reference(combined, ((), (combined.atom(pred),)), 3)
    for lhs, rhs in result.entailments:
        atom = combined.atom(rhs)
        assert_walk_matches_reference(combined, (atom.args[combined.arity(lhs):], (atom,)), 3)


def assert_binders_by_position(forms):
    for binders, _ in forms:
        assert binders == tuple(Var("%u", (k,)) for k in range(len(binders)))


@pytest.mark.parametrize("name", corpus())
def test_complete_unfoldings_name_binders_by_position(name):
    # so unfoldings of one structure have equal atoms but for state atoms
    sid = parse_system(corpus_text(name)).sid
    assert_binders_by_position([u for pred in sid.predicates
                                for u in walk_forms(sid, ((), (sid.atom(pred),)), 4)])


def test_complete_unfoldings_name_binders_by_position_under_binders(ring):
    f = ((Y,), (Pred("Chain_1_1", (X, Y)), Pred("Chain_0_1", (Y, X))))
    forms = walk_forms(ring.sid, f, 4)
    assert forms and all(binders[0] == Var("%u", (0,)) for binders, _ in forms)
    assert_binders_by_position(forms)


@pytest.mark.parametrize("name,pred,depth", REUSE_CASES)
def test_complete_unfoldings_of_derived_predicates(name, pred, depth):
    result = reduce_havoc_to_entailment(load(name).sid, pred, assume_tight=True)
    sid = result.combined_sid
    for p in result.derived_sid.predicates:
        for d in range(depth + 1):
            assert_walk_matches_reference(sid, ((), (sid.atom(p),)), d)
    assert_heights_match_brute_force(sid)


_horn_atoms = st.integers(0, 5)
_horn_rules = st.lists(st.tuples(_horn_atoms, st.lists(_horn_atoms, max_size=3).map(tuple)),
                       max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.lists(_horn_atoms, max_size=3), _horn_rules)
def test_derive_matches_reference(facts, rules):
    # bodies may be empty or repeat an atom, and rules may form cycles
    derived = derive(facts, rules)
    want = reference_derive(facts, rules)
    assert derived.keys() == want.keys()
    heights = {}
    for atom, k in derived.items():
        heights[atom] = 0 if k is None else 1 + max(map(heights.__getitem__, rules[k][1]),
                                                     default=0)
    assert heights == want


def test_predicate_that_never_completes():
    # Loop only calls itself; Maybe completes only by its base rule
    loop = Rule("Loop", (X,), (), (Comp(X), Pred("Loop", (X,))))
    maybe = [Rule("Maybe", (X,), (), (Pred("Loop", (X,)),)),
             Rule("Maybe", (X,), (), (Comp(X), StateAtom(X, "H")))]
    sid = SID((loop, *maybe), TOKEN)
    assert least_heights(sid) == sid.heights == {"Maybe": 1, "Loop": math.inf}
    loop_f, maybe_f = ((), (Pred("Loop", (X,)),)), ((), (Pred("Maybe", (X,)),))
    for depth in range(4):
        assert complete_unfoldings(sid, loop_f, depth) == []
        assert_walk_matches_reference(sid, loop_f, depth)
        assert_walk_matches_reference(sid, maybe_f, depth)
    assert walk_forms(sid, maybe_f, 3) == [((), (Comp(X), StateAtom(X, "H")))]


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
            binders, atoms = prenex((rule.binders, rule.atoms))
            ren = dict(zip(rule.binders, binders))
            assert atoms == tuple(substitute(a, ren) for a in rule.atoms)
            assert [rule.atoms[i] for i in rule.calls] == [
                a for a in rule.atoms if isinstance(a, Pred)]
            assert list(rule.preds) == [rule.atoms[i] for i in rule.calls]
            assert list(rule.pf_atoms) == [
                a for a in rule.atoms if not isinstance(a, Pred)]


def reduction_rules():
    """Every rule of every fixture, every derived rule of the reduction of
    each fixture predicate, then every derived rule of the ring family's
    reductions at Ring_k_k, k = 2..5."""
    for path in source_fixtures():
        sid = load(path.name).sid
        yield from sid.rules
        for pred in sid.predicates:
            yield from reduce_havoc_to_entailment(sid, pred, assume_tight=True).derived_sid.rules
    ring = (FIXTURES / "ring.clsys").read_text()
    for k in (2, 3, 4, 5):
        sid = parse_system(ring.replace("=0..1", f"=0..{k}")).sid
        yield from reduce_havoc_to_entailment(sid, f"Ring_{k}_{k}",
                                              assume_tight=True).derived_sid.rules


def test_rule_positions_match_reference():
    # the positional form a rule stores when it is built is what separate
    # walks over its atoms compute
    count = 0
    for rule in reduction_rules():
        assert (rule.skeleton, rule.state_slots) == reference_skeleton(rule), rule
        count += 1
    assert count > 1000


def test_sid_and_rule_errors_name_their_fault():
    beh = Behavior.make(["p"], ["q"], [])
    ok = Rule("Q", (X,), (), (Comp(X),))

    def refused(*bodies):
        with pytest.raises(ValueError) as e:
            SID((ok, *(Rule("P", (X,), (Y,), body) for body in bodies)), beh)
        return str(e.value), e.value.rule

    assert refused((Comp(X), Pred("R", (X,)))) == ("R used in P but never defined", 1)
    assert refused((Comp(X), StateAtom(Y, "r"))) == ("undeclared state 'r' in rule for P", 1)
    assert refused((Comp(X), Inter(((X, "p"), (Y, "o"))))) == (
        "undeclared port 'o' in rule for P", 1)
    # a rule with several faults names its calls first, then its states,
    # then its ports, whatever their order in the body
    assert refused((Comp(X),), (Inter(((X, "o"),)), StateAtom(X, "r"), Pred("R", (X,)))) == (
        "R used in P but never defined", 2)
    assert refused((Inter(((X, "o"),)), StateAtom(X, "r"))) == (
        "undeclared state 'r' in rule for P", 1)
    with pytest.raises(ValueError) as e:
        Rule("P", (X,), (), (Comp(Z), Eq(Y, X)))
    assert str(e.value) == "rule for P: unbound body variables ['y', 'z']"
    with pytest.raises(ValueError) as e:
        Rule("P", (X,), (Y, Y), (Comp(X),))
    assert str(e.value) == "rule for P: parameters and binders must be distinct"


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
