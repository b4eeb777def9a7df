"""The interaction-typed transducer: single steps, constraints, image."""

import itertools

import pytest
from conftest import FIXTURES
from reference import (enumerate_trees, eq_class, make_symbol, reference_image,
                       reference_state_live, reference_state_ok, reference_step)
from hypothesis import given, settings
from hypothesis import strategies as st

from clhavoc import transducer
from clhavoc.automata import AlphabetSymbol, TaTransition, sid_to_ta, ta_trim
from clhavoc.core import Behavior
from clhavoc.eqform import EqFormula
from clhavoc.frontend import parse_system
from clhavoc.logic import Comp, Inter, StateAtom, Var, beginvar, derive, endvar, param
from clhavoc.transducer import (ArityMismatch, ProductState, formula_of, image,
                                interaction_types, join_markers, key_of, key_status,
                                marker_status, new_combos, transducer_step)


def formula_step(tau, alpha, child_states, behavior, maxarity):
    """`transducer_step` on EqFormula states, through the key helpers."""
    keys = [key_of(phi, len(tau), maxarity) for phi in child_states]
    return [(out, formula_of(key, maxarity), wit)
            for out, key, wit in transducer_step(tau, alpha, keys, behavior, maxarity)]


def test_interaction_types_ring(ring):
    assert interaction_types(ring.sid) == {("out", "in")}


def test_interaction_types_tll(tll):
    # the ring-closing atom, the parent/children atom, and the leaf links;
    # types are order-sensitive, so (out,in) and (in,out) are distinct
    assert interaction_types(tll.sid) == {("out", "in"),
                                          ("req", "reply", "reply"),
                                          ("in", "out")}


def test_interaction_types_empty():
    from clhavoc.logic import Rule, SID
    sid = SID((Rule("A", (Var("x"),), (), (Comp(Var("x")),)),),
              Behavior.make(["p"], ["q"], []))
    assert interaction_types(sid) == frozenset()


# ---------------------------------------------------------------------------
# single transducer steps

LEAF_Q1 = make_symbol([], [Comp(param(1)), StateAtom(param(1), "q1")], 3)
LEAF_Q0 = make_symbol([], [Comp(param(1)), StateAtom(param(1), "q0")], 3)
TOGGLE = Behavior.make(["in", "out"], ["q0", "q1"],
                       [("q1", "out", "q0"), ("q0", "in", "q1")])


def test_leaf_rewrite_spec_example():
    # out at position 1: the q1 leaf becomes a q0 leaf, begin(1) = param(1)
    results = formula_step(("out", "in"), LEAF_Q1, [], TOGGLE, 3)
    rewrites = [(sym, phi) for sym, phi, wit in results
                if wit.rewrites and wit.rewrites[0][0] == 1]
    assert rewrites
    sym, phi = rewrites[0]
    assert sym == LEAF_Q0
    assert param(1) in eq_class(phi, beginvar(1))


def test_rewrite_changes_every_state_atom_of_its_variable():
    pinned = make_symbol([], [Comp(param(1)), StateAtom(param(1), "q1"),
                              StateAtom(param(1), "q1")], 3)
    rewritten = {sym for sym, _, wit in formula_step(("out", "in"), pinned, [], TOGGLE, 3)
                 if wit.rewrites}
    assert rewritten == {make_symbol([], [Comp(param(1)), StateAtom(param(1), "q0"),
                                          StateAtom(param(1), "q0")], 3)}


def test_bookkeeping_step_is_identity():
    y = Var("y")
    child = EqFormula.make(pairs=[(param(1), param(2))])
    sym = make_symbol([y], [Comp(param(1)), StateAtom(param(1), "q1")], 2,
                      [(param(1), y)])
    results = formula_step(("out", "in"), sym, [child], TOGGLE, 2)
    plain = [(s, phi) for s, phi, wit in results
             if not wit.rewrites and wit.fired_atom is None]
    assert len(plain) == 1
    s, phi = plain[0]
    assert s == sym
    # the child's param(1)=param(2) class becomes param(1)=y, and the binder
    # is projected away
    assert phi == EqFormula(frozenset())


def test_used_begin_cannot_be_rechosen():
    child = EqFormula.make(vars=[beginvar(1)])
    results = formula_step(("out", "in"), LEAF_Q1, [], TOGGLE, 3)
    # leaf has no children; simulate the constraint on a unary symbol instead
    sym = make_symbol([], [Comp(param(1)), StateAtom(param(1), "q1")], 3, [(param(1),)])
    results = formula_step(("out", "in"), sym, [child], TOGGLE, 3)
    for _, _, wit in results:
        assert all(i != 1 for i, *_ in wit.rewrites)


def test_two_children_sharing_begin_blocks_everything():
    child = EqFormula.make(vars=[beginvar(1)])
    sym = make_symbol([], [Comp(param(1)), StateAtom(param(1), "q1")], 3,
                      [(param(1),), (param(1),)])
    assert formula_step(("out", "in"), sym, [child, child], TOGGLE, 3) == []


def test_second_fired_atom_blocked_by_child_ends():
    child = EqFormula.make(pairs=[(endvar(1), param(1)), (endvar(2), param(2))])
    sym = make_symbol([], [Inter(((param(1), "out"), (param(2), "in")))], 2,
                      [(param(1), param(2))])
    results = formula_step(("out", "in"), sym, [child], TOGGLE, 2)
    assert results
    for _, _, wit in results:
        assert wit.fired_atom is None


def test_step_above_a_dead_child_is_empty():
    """A child class with end(1) alone and no node parameter can never close:
    every result above it keeps that class, so the step emits nothing."""
    child = EqFormula.make(vars=[endvar(1)])
    sym = make_symbol([], [Inter(((param(1), "out"), (param(2), "in")))], 2,
                      [(param(1),)])
    assert marker_status(child.classes, 2) is None
    assert reference_step(("out", "in"), sym, [child], TOGGLE, 2, live_only=False)
    assert reference_step(("out", "in"), sym, [child], TOGGLE, 2) == []
    assert formula_step(("out", "in"), sym, [child], TOGGLE, 2) == []


def state_ok(phi: EqFormula, n: int) -> bool:
    """The step's own check that a state is live: its walk markers stay apart
    and every open marker class holds a node parameter."""
    return marker_status(phi.classes, n) is not None


def test_generated_states_satisfy_invariants(ring):
    ta, _ = sid_to_ta(ring.sid)
    info = image(ta, "Ring_1_1", ring.sid)
    n = 2
    for s in info.automaton.states:
        assert state_ok(s.phi, n)


def test_repeated_variable_interaction_is_rejected():
    # <x.out, x.in> would force end(1)=end(2); no valid component model exists
    from clhavoc.logic import Inter
    sym = make_symbol([], [Inter(((param(1), "out"), (param(1), "in")))], 1)
    for _, phi, wit in formula_step(("out", "in"), sym, [], TOGGLE, 1):
        assert wit.fired_atom is None


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        formula_step(("out", "in"), LEAF_Q1, [EqFormula(frozenset())], TOGGLE, 3)


# ---------------------------------------------------------------------------
# the two-leaf walkthrough on the linked-leaves tree

def test_tll_two_leaf_rewrite_run(tll):
    ta, _ = sid_to_ta(tll.sid)
    alpha = next(tr.symbol for tr in ta.transitions if tr.result == "Root")
    beta = next(tr.symbol for tr in ta.transitions
                if tr.result == "Node" and tr.symbol.rank == 2)
    leaf = {s.atoms[-1].state: s for s in
            (tr.symbol for tr in ta.transitions
             if tr.result == "Node" and tr.symbol.rank == 0)}
    tau = ("out", "in")
    behavior = tll.sid.behavior

    # leftmost leaf sits on the in side (position 2), rightmost on out (1)
    left = [r for r in formula_step(tau, leaf["q1"], [], behavior, 3)
            if r[2].rewrites and r[2].rewrites[0][0] == 2]
    right = [r for r in formula_step(tau, leaf["q0"], [], behavior, 3)
             if r[2].rewrites and r[2].rewrites[0][0] == 1]
    assert left and right
    lsym, lphi, _ = left[0]
    rsym, rphi, _ = right[0]
    assert lsym == leaf["q0"] and rsym == leaf["q1"]

    mids = [r for r in formula_step(tau, beta, [lphi, rphi], behavior, 3)
            if not r[2].rewrites and r[2].fired_atom is None]
    assert mids
    bsym, bphi, _ = mids[0]
    assert bsym == beta
    assert param(2) in eq_class(bphi, beginvar(2))
    assert param(3) in eq_class(bphi, beginvar(1))

    roots = [r for r in formula_step(tau, alpha, [bphi], behavior, 3)
             if r[2].fired_atom is not None]
    assert roots
    asym, aphi, wit = roots[0]
    assert asym == alpha  # the interaction atom itself is not rewritten
    assert marker_status(aphi.classes, 2)[2] == 2
    # exactly one node of the run guessed the fired interaction
    fired_nodes = [w for w in (wit,) if w.fired_atom is not None]
    assert len(fired_nodes) == 1


def test_image_empty_without_interactions():
    from clhavoc.logic import Rule, SID
    sid = SID((Rule("A", (Var("x"),), (), (Comp(Var("x")),)),),
              Behavior.make(["p"], ["q"], []))
    ta, _ = sid_to_ta(sid)
    info = image(ta, "A", sid)
    assert info.automaton.transitions == ()
    assert not info.automaton.finals


def test_image_accepts_some_output_tree(tll):
    ta, _ = sid_to_ta(tll.sid)
    info = image(ta, "Root", tll.sid)
    trimmed = ta_trim(info.automaton)
    finals = [s for s in trimmed.finals if s.tau == ("out", "in")]
    assert finals
    leaves_swapped = False
    for s in finals:
        for t in enumerate_trees(trimmed, s, 5):
            states = sorted(a.state for _, sym in t.labels for a in sym.atoms
                            if isinstance(a, StateAtom))
            if states == ["q0", "q1"]:
                leaves_swapped = True
    assert leaves_swapped


def test_image_deterministic(ring):
    ta, _ = sid_to_ta(ring.sid)
    a = image(ta, "Ring_1_1", ring.sid)
    b = image(ta, "Ring_1_1", ring.sid)
    assert a.automaton == b.automaton


IMAGE_SYSTEMS = {p.name: p.read_text() for p in FIXTURES.glob("*.clsys")
                 if "reduced" not in p.name}
IMAGE_SYSTEMS.update({f"ring{k}": IMAGE_SYSTEMS["ring.clsys"].replace("=0..1", f"=0..{k}")
                      for k in (2, 3)})


@pytest.mark.parametrize("name", sorted(IMAGE_SYSTEMS))
def test_image_matches_reference_fixpoint(name):
    """The image is the trimmed reference: the same states, transitions,
    finals and witnesses, in the same order, for every predicate with a
    final state; no state of it has an open walk-marker class without a
    parameter.  tll's rank-2 rules take 15 rounds over its three
    interaction types."""
    sid = parse_system(IMAGE_SYSTEMS[name]).sid
    ta, _ = sid_to_ta(sid)
    maxarity = max(sid.arity(p) for p in sid.predicates)
    for pred in sid.predicates:
        got = image(ta, pred, sid)
        want = reference_image(ta, pred, sid, sid.behavior)
        assert set(got.automaton.states) <= set(want.automaton.states)
        if not want.automaton.finals:
            continue
        want_kept = ta_trim(want.automaton)
        assert got.automaton == want_kept
        assert list(got.witnesses) == list(want_kept.transitions)
        assert ([got.witnesses[tr] for tr in got.automaton.transitions]
                == [want.witnesses[tr] for tr in want_kept.transitions])
        for s in want_kept.states:
            assert reference_state_live(s.phi, len(s.tau), maxarity)


@st.composite
def _pool_growth(draw):
    """Pools of rank 0..2 and the pool lengths at an earlier visit (None for
    a first visit); pools only grow, so the earlier lengths are prefixes."""
    rank = draw(st.integers(0, 2))
    pools = [[(l, i) for i in range(draw(st.integers(0, 4)))] for l in range(rank)]
    if draw(st.booleans()):
        return pools, None
    return pools, tuple(draw(st.integers(0, len(p))) for p in pools)


@settings(max_examples=300, deadline=None)
@given(_pool_growth())
def test_new_combos_is_product_minus_old_product(case):
    pools, seen = case
    old = set() if seen is None else set(itertools.product(*(p[:k] for p, k in zip(pools, seen))))
    want = [c for c in itertools.product(*pools) if c not in old]
    assert list(new_combos(pools, seen)) == want


def test_new_combos_edge_cases():
    assert list(new_combos([], None)) == [()]
    assert list(new_combos([], ())) == []
    assert list(new_combos([[1, 2]], (2,))) == []
    assert list(new_combos([[1, 2], [3]], (1, 1))) == [(2, 3)]


def test_cached_hash_stays_out_of_identity(ring):
    ta, _ = sid_to_ta(ring.sid)
    sym = ta.transitions[0].symbol
    assert hash(sym) == sym._hash == hash((sym.exvars, sym.atoms, sym.arity, sym.args))
    twin = AlphabetSymbol(sym.exvars, sym.atoms, sym.arity, sym.args)
    object.__setattr__(twin, "_hash", sym._hash + 1)
    assert twin == sym
    assert "_hash" not in repr(sym)

    phi = EqFormula.make([beginvar(1), endvar(1)], [(beginvar(1), endvar(1))])
    ps = ProductState("Ring_1_1", phi, ("out", "in"))
    assert hash(ps) == ps._hash == hash((ps.base, ps.phi, ps.tau))
    other = ProductState("Ring_1_1", phi, ("out", "in"))
    object.__setattr__(other, "_hash", ps._hash + 1)
    assert other == ps
    assert "_hash" not in repr(ps)
    assert repr(ps) == f"ProductState(base='Ring_1_1', phi={phi!r}, tau=('out', 'in'))"


@pytest.mark.parametrize("name", sorted(IMAGE_SYSTEMS))
def test_step_matches_reference_on_every_reached_input(name):
    """Every (symbol, child states) tuple in the product of the live
    reference pools steps to the reference's results in the same order; the
    tuples that image skips for clashing walk markers step to nothing.  Per
    predicate, the live reference states below it are as many, per type, as
    the states image builds, and hold every state it returns."""
    sid = parse_system(IMAGE_SYSTEMS[name]).sid
    ta, _ = sid_to_ta(sid)
    maxarity = max(sid.arity(p) for p in sid.predicates)
    taus = sorted(interaction_types(sid))
    # the reference builds the same states below every root, dead ones too
    live = [s for s in reference_image(ta, next(iter(sid.predicates)), sid,
                                       sid.behavior).automaton.states
            if reference_state_ok(s.phi, len(s.tau))
            and reference_state_live(s.phi, len(s.tau), maxarity)]
    stepped, skipped = set(), 0
    for pred in sid.predicates:
        below = derive([pred], [(c, (tr.result,)) for tr in ta.transitions
                                for c in tr.children])
        pools = {}
        for s in live:
            if s.base in below:
                pools.setdefault((s.tau, s.base), []).append(s.phi)
        got = image(ta, pred, sid)
        assert got.per_tau_states == {tau: sum(len(phis) for (t, _), phis in pools.items()
                                               if t == tau) for tau in taus}
        assert set(got.automaton.states) <= set(live)
        for tau in taus:
            for tr in ta.transitions:
                for phis in itertools.product(*(pools.get((tau, c), []) for c in tr.children)):
                    if (tau, tr.symbol, phis) in stepped:
                        continue
                    stepped.add((tau, tr.symbol, phis))
                    want = reference_step(tau, tr.symbol, list(phis), sid.behavior, maxarity)
                    got_step = formula_step(tau, tr.symbol, list(phis), sid.behavior, maxarity)
                    assert got_step == want
                    if join_markers(marker_status(phi.classes, len(tau))[:2]
                                    for phi in phis) is None:
                        assert want == []
                        skipped += 1
    if name == "tll.clsys":
        assert (len(stepped), skipped) == (590, 350)


def test_image_builds_only_what_it_keeps(monkeypatch):
    """On Ring_5_5 the image builds the 191 states and 394 transitions of
    its useful part, where trimming the whole image built 491 and 868, and
    one EqFormula per distinct partition among them; its per-type counts
    still count all 491 live states."""
    sf = parse_system((FIXTURES / "ring.clsys").read_text().replace("=0..1", "=0..5"))
    ta, _ = sid_to_ta(sf.sid)
    built = {"states": 0, "transitions": 0}
    for cls, key in ((ProductState, "states"), (TaTransition, "transitions")):
        def counting_init(self, real=cls.__post_init__, key=key):
            built[key] += 1
            real(self)
        monkeypatch.setattr(cls, "__post_init__", counting_init)
    formulas = []
    monkeypatch.setattr(EqFormula, "__post_init__",
                        lambda self, real=EqFormula.__post_init__: formulas.append(self)
                        or real(self))
    info = image(ta, "Ring_5_5", sf.sid)
    assert built == {"states": 191, "transitions": 394}
    # one partition per distinct key among the kept states, which share it
    assert len(formulas) == len({s.phi for s in info.automaton.states}) == 11
    assert {id(s.phi) for s in info.automaton.states} == set(map(id, formulas))
    assert (len(info.automaton.states), len(info.automaton.transitions)) == (191, 394)
    assert sum(info.per_tau_states.values()) == 491


def test_image_steps_only_children_whose_markers_fit(tll, monkeypatch):
    calls = []
    real_step = transducer.transducer_step
    monkeypatch.setattr(transducer, "transducer_step",
                        lambda *args: calls.append(args) or real_step(*args))
    ta, _ = sid_to_ta(tll.sid)
    image(ta, "Root", tll.sid)
    assert len(calls) == 240


def test_join_markers():
    assert join_markers([]) == (0, False)
    assert join_markers([(0b10, False), (0b100, True)]) == (0b110, True)
    assert join_markers([(0b10, False), (0b110, False)]) is None
    assert join_markers([(0, True), (0b10, True)]) is None
    phi = EqFormula.make([beginvar(1), endvar(2), beginvar(3)],
                         [(beginvar(1), param(1)), (endvar(2), param(2)), (beginvar(3), param(3))])
    assert marker_status(phi.classes, 2) == (0b10, True, 0)
    assert marker_status(phi.classes, 3) == (0b1010, True, 0)


def test_marker_checks_match_entailment_form():
    """Over every set of present markers and up to two equalities among them
    and param(1), param(2): a state is live iff its markers stay apart and
    each open marker is proven equal to a parameter."""
    markers = [beginvar(1), beginvar(2), endvar(1), endvar(2)]
    dead = 0
    for k in range(len(markers) + 1):
        for present in itertools.combinations(markers, k):
            vs = [*present, param(1), param(2)]
            for m in range(3):
                for pairs in itertools.combinations(itertools.combinations(vs, 2), m):
                    phi = EqFormula.make(vs, pairs)
                    for n in (1, 2):
                        apart = reference_state_ok(phi, n)
                        live = reference_state_live(phi, n, 2)
                        assert state_ok(phi, n) == (apart and live)
                        dead += apart and not live
                        status = marker_status(phi.classes, n)
                        if status is not None:
                            begins = sum(1 << i for i in range(1, n + 1)
                                         if eq_class(phi, beginvar(i)))
                            ends = any(eq_class(phi, endvar(i)) for i in range(1, n + 1))
                            assert status[:2] == (begins, ends)
                            assert (status[2] == n) == all(endvar(i) in eq_class(phi, beginvar(i))
                                                           for i in range(1, n + 1))
    assert dead


def test_step_plan_memo_stays_out_of_identity(ring):
    ta, _ = sid_to_ta(ring.sid)
    leaf = next(tr.symbol for tr in ta.transitions if not tr.children)
    twin = AlphabetSymbol(leaf.exvars, leaf.atoms, leaf.arity, leaf.args)
    results = formula_step(("out", "in"), leaf, [], ring.behavior, 2)
    assert leaf._plans and not twin._plans
    assert twin == leaf and hash(twin) == hash(leaf) and repr(twin) == repr(leaf)
    assert "_plans" not in repr(leaf)
    assert formula_step(("out", "in"), twin, [], ring.behavior, 2) == results
    # a step that rewrites nothing emits the symbol itself
    assert any(out is leaf for out, _, wit in results if not wit.rewrites)


@st.composite
def _tracked_partitions(draw):
    """maxarity m, a type length n and two partitions of random subsets of
    param(1..m), begin(1..n) and end(1..n), without parameter singletons;
    the second is often the first drawn with other labels."""
    m, n = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    tracked = [*map(param, range(1, m + 1)), *map(beginvar, range(1, n + 1)),
               *map(endvar, range(1, n + 1))]
    labels = st.lists(st.one_of(st.none(), st.integers(0, len(tracked) - 1)),
                      min_size=len(tracked), max_size=len(tracked))

    def partition(labelling):
        classes = {}
        for v, label in zip(tracked, labelling):
            if label is not None:
                classes.setdefault(label, set()).add(v)
        return EqFormula(frozenset(frozenset(c) for c in classes.values()
                                   if len(c) > 1 or next(iter(c)).name != "%in"))

    first = draw(labels)
    if draw(st.booleans()):
        perm = draw(st.permutations(range(len(tracked))))
        second = [None if label is None else perm[label] for label in first]
    else:
        second = draw(labels)
    return m, n, partition(first), partition(second)


@settings(max_examples=400, deadline=None)
@given(_tracked_partitions())
def test_key_encodes_the_partition(case):
    """A key maps back to its partition, equal partitions and only they have
    equal keys, and the status read from a key is the partition's."""
    m, n, phi, psi = case
    key = key_of(phi, n, m)
    assert len(key) == m + 2 * n
    assert formula_of(key, m) == phi
    assert (key == key_of(psi, n, m)) == (phi == psi)
    assert key_status(key, m) == marker_status(phi.classes, n)


def test_key_status_is_computed_once_per_key(ring, monkeypatch):
    """A state's marker status is computed once per key, however often and
    under however many symbols it is stepped: a twin symbol, with its own
    plan, reads the same memo."""
    ta, _ = sid_to_ta(ring.sid)
    tau = ("out", "in")
    leaf = next(tr.symbol for tr in ta.transitions if not tr.children)
    inner = next(tr.symbol for tr in ta.transitions if len(tr.children) == 1)
    child = transducer_step(tau, leaf, [], ring.behavior, 2)[0][1]
    classes = formula_of(child, 2).classes
    calls = []
    real_status = transducer.marker_status
    monkeypatch.setattr(transducer, "marker_status", lambda cls, n: calls.append(
        frozenset(map(frozenset, cls))) or real_status(cls, n))
    key_status.cache_clear()

    def child_calls(sym):
        calls.clear()
        results = transducer_step(tau, sym, [child], ring.behavior, 2)
        return calls.count(classes), results

    first, results = child_calls(inner)
    assert first == 1 and results
    assert child_calls(inner) == (0, results)
    twin = AlphabetSymbol(inner.exvars, inner.atoms, inner.arity, inner.args)
    assert child_calls(twin) == (0, results)
    assert key_status(child, 2) == real_status(classes, 2)
