"""Trees, characteristic formulas, and both SID <-> TA translations.

The translation lemma is exercised at desk scale: the bounded models of a
predicate atom must coincide, up to renaming, with the models of the closed
characteristic formulas of the trees its automaton state accepts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clhavoc.automata import TaTransition, TreeAutomaton, sid_to_ta, ta_to_sid, ta_trim
from clhavoc.frontend import parse_system
from clhavoc.logic import (Comp, Eq, Inter, Pred, Rule, StateAtom, Var, atom_vars, boundvar,
                           param, substitute)
from clhavoc.oracle import canonical_model, enumerate_models
from clhavoc.reduction import class_equiv, reduce_havoc_to_entailment
from clhavoc.transducer import image

from conftest import FIXTURES, load, sha256, source_fixtures
from reference import (BadAddress, Tree, assert_heights_match_brute_force, char_formula,
                       char_formula_closed, comp_in, dump_ta, enumerate_pf_models,
                       enumerate_trees, eq_class, exact_of, from_exact, make_symbol, nodevar,
                       reference_sid_to_ta, reference_ta_to_sid)


def leaf_symbol(q, a0=3):
    return make_symbol([], [Comp(param(1)), StateAtom(param(1), q)], a0)


def vars_of(atoms):
    return {v for a in atoms for v in atom_vars(a)}


def symbols_of(ta):
    return {tr.symbol for tr in ta.transitions}


def tll_symbols(sid):
    """The four symbols of the tree-with-linked-leaves automaton, by shape."""
    ta, smap = sid_to_ta(sid)
    alpha = next(tr.symbol for tr in ta.transitions if tr.result == "Root")
    beta = next(tr.symbol for tr in ta.transitions
                if tr.result == "Node" and tr.symbol.rank == 2)
    leaves = sorted((tr.symbol for tr in ta.transitions
                     if tr.result == "Node" and tr.symbol.rank == 0),
                    key=lambda s: [a.state for a in s.atoms
                                   if isinstance(a, StateAtom)])
    return ta, alpha, beta, leaves[0], leaves[1]


# ---------------------------------------------------------------------------
# characteristic formulas

def test_char_formula_single_leaf():
    t = Tree.node(leaf_symbol("q0"))
    f = char_formula(t, ())
    x1 = nodevar((), 1)
    assert f == ((), comp_in(x1, "q0"))


def test_char_formula_emp_symbol():
    sym = make_symbol([], [], 0)
    t = Tree.node(sym)
    assert char_formula(t, ()) == ((), ())


def test_char_formula_bad_address():
    t = Tree.node(leaf_symbol("q0"))
    with pytest.raises(BadAddress):
        char_formula(t, (1,))


def test_char_formula_addresses_are_disjoint(tll):
    ta, alpha, beta, g0, g1 = tll_symbols(tll.sid)
    t = Tree.node(alpha, Tree.node(beta, Tree.node(g0), Tree.node(g1)))
    _, atoms = char_formula(t, ())
    binders, closed_atoms = char_formula_closed(t, ())
    # closed form has no free variables at the root (Root has arity 0)
    assert vars_of(closed_atoms) <= set(binders)
    # sibling leaves use distinct address-tagged parameters
    vars_all = vars_of(atoms)
    assert nodevar((1, 1), 1) in vars_all and nodevar((1, 2), 1) in vars_all


def test_tree_validation():
    g0 = leaf_symbol("q0")
    with pytest.raises(ValueError):
        Tree((((1,), g0),))  # no root
    with pytest.raises(ValueError):
        Tree.node(g0, Tree.node(g0))  # rank 0 given a child


# ---------------------------------------------------------------------------
# sid_to_ta

def test_tll_automaton_shape(tll):
    ta, alpha, beta, g0, g1 = tll_symbols(tll.sid)
    assert set(ta.states) == {"Root", "Node"}
    assert len(ta.transitions) == 4
    shapes = {(tr.symbol.rank, tr.children, tr.result) for tr in ta.transitions}
    assert shapes == {(1, ("Node",), "Root"),
                      (2, ("Node", "Node"), "Node"),
                      (0, (), "Node"), (0, (), "Node")} or len(shapes) == 4
    assert (alpha.arity, *map(len, alpha.args)) == (0, 3)
    assert (beta.arity, *map(len, beta.args)) == (3, 3, 3)
    assert (g0.arity, *map(len, g0.args)) == (3,)
    assert (g1.arity, *map(len, g1.args)) == (3,)


def test_tll_original_automaton_shape(tll_original):
    ta, _ = sid_to_ta(tll_original.sid)
    assert set(ta.states) == {"Root", "Node"}
    assert len(ta.transitions) == 4


def test_single_emp_rule():
    from clhavoc.core import Behavior
    from clhavoc.logic import Rule, SID
    sid = SID((Rule("A", (), (), ()),), Behavior.make(["p"], ["q"], []))
    ta, smap = sid_to_ta(sid)
    assert len(ta.transitions) == 1
    assert len(ta.states) == 1
    sym = ta.transitions[0].symbol
    assert (sym.arity, *map(len, sym.args)) == (0,)


def test_symbol_dedup_across_rules(ring):
    ta, _ = sid_to_ta(ring.sid)
    # the four Ring rules share one symbol; 15 transitions, 6 symbols
    assert len(ta.transitions) == 15
    assert len(symbols_of(ta)) == 6


def test_symbol_canonical_alpha_renaming():
    x, y = Var("u"), Var("w")
    s1 = make_symbol([x], [Comp(param(1)), Eq(x, param(1))], 1, [(x, param(1))])
    s2 = make_symbol([y], [Comp(param(1)), Eq(y, param(1))], 1, [(y, param(1))])
    assert s1 == s2
    assert s1.args == ((boundvar(1), param(1)),)
    assert (s1.arity, *map(len, s1.args)) == (1, 2) and s1.rank == 1


def assert_matches_reference(sid):
    """One renaming per rule builds the automaton that renaming the
    parameters and then the binders built."""
    ta, _ = sid_to_ta(sid)
    want = reference_sid_to_ta(sid)
    assert ta == want
    assert [tr.symbol.exvars for tr in ta.transitions] == [
        tr.symbol.exvars for tr in want.transitions]


def test_sid_to_ta_matches_reference_on_fixtures():
    # each fixture SID, and the combined SID of each predicate's reduction
    for path in source_fixtures():
        sid = load(path.name).sid
        assert_matches_reference(sid)
        for pred in sid.predicates:
            assert_matches_reference(
                reduce_havoc_to_entailment(sid, pred, assume_tight=True).combined_sid)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_sid_to_ta_matches_reference_on_ring_family(k):
    assert_matches_reference(parse_system((FIXTURES / "ring.clsys").read_text()
                                          .replace("=0..1", f"=0..{k}")).sid)


def test_args_length_is_the_child_arity():
    """A child's arity is the number of arguments its symbol passes it: a
    tree must give each argument tuple one child, and an automaton whose
    symbols pass a state different numbers of arguments is not an SID."""
    from clhavoc.core import Behavior
    leaf = make_symbol([], [Comp(param(1))], 1)
    pass_one = make_symbol([], [], 2, [(param(1),)])
    pass_two = make_symbol([], [], 2, [(param(1), param(2))])
    with pytest.raises(ValueError, match="rank 1 given 2"):
        Tree.node(pass_one, Tree.node(leaf), Tree.node(leaf))
    behavior = Behavior.make(["p"], ["s"], [])
    ta = TreeAutomaton.make([TaTransition(leaf, (), "P"),
                             TaTransition(pass_two, ("P",), "Q")])
    with pytest.raises(ValueError, match="P used with arity 2, defined with 1"):
        ta_to_sid(ta, behavior)
    ta_to_sid(TreeAutomaton.make([TaTransition(leaf, (), "P"),
                                  TaTransition(pass_one, ("P",), "Q")]), behavior)


# ---------------------------------------------------------------------------
# sid compatibility and ta_to_sid

def test_transition_hash_stays_out_of_identity(ring):
    ta, _ = sid_to_ta(ring.sid)
    tr = ta.transitions[-1]
    assert hash(tr) == tr._hash == hash((tr.symbol, tr.children, tr.result))
    twin = TaTransition(tr.symbol, tr.children, tr.result)
    object.__setattr__(twin, "_hash", tr._hash + 1)
    assert twin == tr
    assert "_hash" not in repr(tr)
    assert repr(tr) == (f"TaTransition(symbol={tr.symbol!r}, children={tr.children!r}, "
                        f"result={tr.result!r})")


def test_sid_to_ta_outputs_are_compatible(ring, tll, pcring):
    """Every state keeps one arity, so the automaton reads back as an SID."""
    for sf in (ring, tll, pcring):
        ta, _ = sid_to_ta(sf.sid)
        assert ta_to_sid(ta, sf.behavior).predicates == sf.sid.predicates


def test_incompatible_arities_detected():
    s2 = make_symbol([], [Comp(param(1))], 2)
    s3 = make_symbol([], [Comp(param(1))], 3)
    ta = TreeAutomaton.make([TaTransition(s2, (), "q"), TaTransition(s3, (), "q")])
    from clhavoc.core import Behavior
    with pytest.raises(ValueError, match="q defined with arities 2 and 3"):
        ta_to_sid(ta, Behavior.make(["p"], ["s"], []))


def test_ta_to_sid_single_transition():
    from clhavoc.core import Behavior
    sym = make_symbol([], [Comp(param(1)), StateAtom(param(1), "s")], 1)
    ta = TreeAutomaton.make([TaTransition(sym, (), "q")])
    sid = ta_to_sid(ta, Behavior.make(["p"], ["s"], []))
    assert len(sid.rules) == 1
    assert sid.rules[0].head == "q"
    assert len(sid.rules[0].params) == 1


def assert_rules_as_built(sid):
    """Each rule, stamped from its symbol's first rule or not, equals the
    rule built afresh from its fields, positional form included."""
    for r in sid.rules:
        fresh = Rule(r.head, r.params, r.binders, r.atoms)
        assert fresh == r
        assert (fresh.calls, fresh.skeleton, fresh.state_slots) == \
            (r.calls, r.skeleton, r.state_slots)


def assert_round_trip(ta, behavior):
    """sid_to_ta(ta_to_sid(ta)) gives back ta's transitions, in order, with
    each state read back as the predicate named for it; ta_to_sid's rules
    equal the reference's one instantiation per transition, in order.
    Returns the derived SID."""
    names = {q: f"S{k}" for k, q in enumerate(ta.states)}
    derived = ta_to_sid(ta, behavior, names.__getitem__)
    assert derived.rules == reference_ta_to_sid(ta, behavior, names.__getitem__).rules
    assert_rules_as_built(derived)
    back, _ = sid_to_ta(derived)
    assert back.transitions == tuple(
        TaTransition(tr.symbol, tuple(names[c] for c in tr.children), names[tr.result])
        for tr in ta.transitions)
    return derived


@pytest.mark.parametrize("path", source_fixtures(), ids=lambda p: p.name)
def test_ta_to_sid_inverts_sid_to_ta(path):
    """Exact on the rule automaton and on the trimmed image of every
    predicate: a derived rule is a source rule with other state atoms."""
    sid = load(path.name).sid
    ta, _ = sid_to_ta(sid)
    assert_round_trip(ta, sid.behavior)
    for pred in sid.predicates:
        assert_round_trip(ta_trim(image(ta, pred, sid).automaton),
                          sid.behavior)


def ring_family_image(k):
    """The token ring with budgets 0..k and the image of its rule automaton
    at Ring_k_k."""
    sid = parse_system((FIXTURES / "ring.clsys").read_text()
                       .replace("=0..1", f"=0..{k}")).sid
    ta, _ = sid_to_ta(sid)
    return sid, image(ta, f"Ring_{k}_{k}", sid).automaton


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_ta_to_sid_inverts_sid_to_ta_on_ring_family(k):
    sid, product = ring_family_image(k)
    derived = assert_round_trip(ta_trim(product), sid.behavior)
    assert_heights_match_brute_force(derived)


@pytest.mark.parametrize("path", source_fixtures(), ids=lambda p: p.name)
def test_stamped_rules_are_as_built_on_fixture_reductions(path):
    sid = load(path.name).sid
    for pred in sid.predicates:
        assert_rules_as_built(reduce_havoc_to_entailment(sid, pred, assume_tight=True).derived_sid)


def test_ta_to_sid_checks_each_symbol_once(monkeypatch):
    """`Rule`'s checks run once per distinct symbol of the trimmed
    `Ring_5_5` image: 6 for its 394 transitions."""
    sid, product = ring_family_image(5)
    trimmed = ta_trim(product)
    names = {q: f"S{k}" for k, q in enumerate(trimmed.states)}
    built = []
    check = Rule.__post_init__
    monkeypatch.setattr(Rule, "__post_init__", lambda rule: built.append(rule) or check(rule))
    derived = ta_to_sid(trimmed, sid.behavior, names.__getitem__)
    assert (len(derived.rules), len(trimmed.alphabet), len(built)) == (394, 6, 6)
    first: dict = {}  # each symbol's first transition
    for i, tr in enumerate(trimmed.transitions):
        first.setdefault(tr.symbol, i)
    assert built == [derived.rules[i] for i in first.values()]


def test_ta_to_sid_passes_tied_variables_to_the_call():
    """The symbol's arguments, its binder y1 and its parameter p1, become
    the call's arguments z1 and x1 after the atoms."""
    from clhavoc.core import Behavior
    y1 = Var("y1")
    sym = make_symbol([y1], [Comp(param(1)), Eq(y1, param(1))], 1, [(y1, param(1))])
    ta = TreeAutomaton.make([TaTransition(sym, ("P",), "Q"),
                             TaTransition(make_symbol([], [], 2), (), "P")])
    rule = ta_to_sid(ta, Behavior.make(["p"], ["s"], [])).rules[0]
    x1, z1 = Var("x1"), Var("z1")
    assert rule.binders == (z1,)
    assert rule.atoms == (Comp(x1), Eq(z1, x1), Pred("P", (z1, x1)))


def test_ta_to_sid_round_trip_class_equiv(tll, ring):
    for sf in (tll, ring):
        ta, _ = sid_to_ta(sf.sid)
        back = ta_to_sid(ta, sf.behavior)
        assert class_equiv(sf.sid, back).verdict == "equivalent"


# ---------------------------------------------------------------------------
# dump and trim

def test_dump_ta_golden(tll):
    ta, _ = sid_to_ta(tll.sid)
    text = dump_ta(ta)
    assert text == dump_ta(ta)
    assert text.splitlines()[0] == "states: Root, Node"
    assert "-> Root" in text and "-> Node" in text
    assert "comp(p1)" in text and "state(p1:q0)" in text


def test_trim_idempotent_and_tll_unchanged(tll):
    ta, _ = sid_to_ta(tll.sid)
    t1 = ta_trim(ta)
    assert ta_trim(t1) == t1
    assert set(t1.states) == set(ta.states)
    assert set(t1.transitions) == set(ta.transitions)


def test_trim_removes_junk_state(tll):
    ta, _ = sid_to_ta(tll.sid)
    junk_sym = make_symbol([], [Comp(param(1))], 1, [(param(1),)])
    bigger = TreeAutomaton.make(
        list(ta.transitions) + [TaTransition(junk_sym, ("nowhere",), "Root")],
        states=list(ta.states) + ["nowhere"])
    trimmed = ta_trim(bigger)
    assert "nowhere" not in trimmed.states
    for state in ta.states:
        want = {t for t in enumerate_trees(ta, state, 6)}
        got = {t for t in enumerate_trees(trimmed, state, 6)}
        assert want == got


def reference_trim(ta):
    """Quadratic fixpoint iteration: the reference the worklist trim must match."""
    productive = set()
    changed = True
    while changed:
        changed = False
        for tr in ta.transitions:
            if tr.result not in productive and all(c in productive for c in tr.children):
                productive.add(tr.result)
                changed = True
    keep = productive
    if ta.finals:
        useful = set(ta.finals) & productive
        changed = True
        while changed:
            changed = False
            for tr in ta.transitions:
                if tr.result in useful and all(c in productive for c in tr.children):
                    for c in tr.children:
                        if c not in useful:
                            useful.add(c)
                            changed = True
        keep = useful
    return TreeAutomaton(
        tuple(s for s in ta.states if s in keep),
        frozenset(s for s in ta.finals if s in keep),
        tuple(tr for tr in ta.transitions
              if tr.result in keep and all(c in keep for c in tr.children)))


_states = st.integers(0, 5)
_transitions = st.lists(st.tuples(st.lists(_states, max_size=3), _states), max_size=12)


@settings(max_examples=300, deadline=None)
@given(_transitions, st.sets(_states, max_size=3))
def test_trim_matches_reference_fixpoint(spec, finals):
    # the symbol is opaque to trimming; numbering keeps transitions distinct
    ta = TreeAutomaton.make([TaTransition(k, tuple(kids), res)
                             for k, (kids, res) in enumerate(spec)],
                            finals=finals, states=range(6))
    assert ta_trim(ta) == reference_trim(ta)


def test_trim_matches_reference_on_images(ring, pcring, tll):
    products = [ring_family_image(k)[1] for k in (2, 3, 4, 5)]
    for sf, pred in ((ring, "Ring_1_1"), (pcring, "PcRing_1_1"), (tll, "Root")):
        ta, _ = sid_to_ta(sf.sid)
        products.append(image(ta, pred, sf.sid).automaton)
    for product in products:
        assert ta_trim(product) == reference_trim(product)


# ---------------------------------------------------------------------------
# the translation lemma, both directions, at desk scale

def height(t: Tree) -> int:
    return 1 + max(len(u) for u in t.dom)


def enumerate_formula_models(formula, free, behavior):
    """The canonical keys of the models of a predicate-free prenex form."""
    binders, atoms = formula
    return {canonical_model(*from_exact(exact_of(c)))
            for c in enumerate_pf_models(binders, atoms, free, behavior.states)}


def tree_model_keys(sid, ta, state, arity, depth, max_nodes=None):
    # chains have one node per level; binary trees need up to 2**depth nodes
    keys = set()
    for t in enumerate_trees(ta, state, max_nodes or 2 ** depth):
        if height(t) > depth:
            continue
        binders, atoms = char_formula_closed(t, ())
        ren = {nodevar((), j): Var(f"x{j}") for j in range(1, arity + 1)}
        f = binders, tuple(substitute(a, ren) for a in atoms)
        keys |= enumerate_formula_models(f, [Var(f"x{j}") for j in range(1, arity + 1)],
                                         sid.behavior)
    return keys


@pytest.mark.parametrize("pred,depth", [("Ring_1_1", 3), ("Ring_1_1", 4),
                                        ("Chain_1_1", 3), ("Chain_1_1", 4)])
def test_sid_ta_lemma_ring(ring, pred, depth):
    # ring trees are chains, so a height-d tree has at most d+1 nodes
    sid = ring.sid
    ta, smap = sid_to_ta(sid)
    left = set(enumerate_models(sid, ((), (sid.atom(pred),)), depth).keys())
    right = tree_model_keys(sid, ta, smap[pred], sid.arity(pred), depth,
                            max_nodes=depth + 1)
    assert left == right


def test_sid_ta_lemma_tll(tll):
    sid = tll.sid
    ta, smap = sid_to_ta(sid)
    left = set(enumerate_models(sid, ((), (sid.atom("Root"),)), 3).keys())
    right = tree_model_keys(sid, ta, "Root", 0, 3)
    assert left == right


def test_ta_sid_lemma_round_trip(ring):
    # models of the rebuilt SID agree with the tree-side models per state
    sid = ring.sid
    ta, smap = sid_to_ta(sid)
    back = ta_to_sid(ta, sid.behavior, lambda q: f"P_{q}")
    left = set(enumerate_models(back, ((), (back.atom("P_Ring_1_1"),)), 3).keys())
    right = tree_model_keys(sid, ta, "Ring_1_1", 0, 3)
    assert left == right


# ---------------------------------------------------------------------------
# equality walks diagnostic

def eq_closure_classes(atoms):
    from clhavoc.eqform import EqFormula
    pairs = [(a.left, a.right) for a in atoms if isinstance(a, Eq)]
    return EqFormula.make(vars_of(atoms), pairs)


def test_walks_witness_store_coincidences(tll):
    """On tight trees, component/interaction variables share a store value
    only when an equality walk connects them."""
    ta, _ = sid_to_ta(tll.sid)
    from clhavoc.core import is_tight
    checked = 0
    for t in enumerate_trees(ta, "Root", 7):
        binders, atoms = char_formula(t, ())
        assert not binders
        eq = eq_closure_classes(atoms)
        comp_vars = {a.var for a in atoms if isinstance(a, Comp)}
        inter_vars = {v for a in atoms if isinstance(a, Inter) for v, _ in a.bindings}
        free = sorted(vars_of(atoms))
        for g, nu in _pf_models(atoms, free, tll.behavior):
            assert is_tight(g)
            for v in comp_vars:
                for w in inter_vars:
                    if nu[v] == nu[w]:
                        assert w in eq_class(eq, v), (t, v, w)
                        checked += 1
    assert checked > 0


def test_loose_leaf_rules_break_the_walk_property(tll_original):
    ta, _ = sid_to_ta(tll_original.sid)
    found_loose = False
    for t in enumerate_trees(ta, "Root", 4):
        _, atoms = char_formula(t, ())
        free = sorted(vars_of(atoms))
        from clhavoc.core import is_tight
        for g, nu in _pf_models(atoms, free, tll_original.behavior):
            if not is_tight(g):
                found_loose = True
    assert found_loose


def _pf_models(atoms, free, behavior):
    return (from_exact(exact_of(c))
            for c in enumerate_pf_models([], atoms, free, behavior.states))



# sha256 of dump_ta(sid_to_ta(sid)) for every source fixture
DUMP_TA_DIGESTS = {
    "bad.clsys": "82623577f14a71a698b01a5c47dc452e3fd81cc1cdfb46a7747baaefaa0e4ea5",
    "chain.clsys": "6b791b2ce971b161167b6ac5f3a1da991a516683f51b784dbff8cf707ecda7b1",
    "misc.clsys": "8f2866bb897ed387b7b452df1d396405c02e521af20b43e33c8d0ae54ec0a8dc",
    "pcring.clsys": "802595217b009e7518162b8e53079b1056dba1c23f511258f9f1ea034e53eda9",
    "ring.clsys": "936b8a7a9c58dcc8b04f8d48b6daec3a2a938c302c119f935054be7eac7477d6",
    "tll.clsys": "945d03307d0e16bd673c7c79670dd44d298c256ac1f2ee5a82753505e028c2d5",
    "tll_original.clsys": "c6cacb532f307a012e42cf5c7f03a1069d9cc689e1f8901717cda7caafa32aa2",
    "tll_pcr.clsys": "1144629a3f920396e2ac33d13a3184e8709cca059ba7b61ad9f890a459d0fd7f",
}


@pytest.mark.parametrize("path", source_fixtures(), ids=lambda p: p.name)
def test_dump_ta_pinned(path):
    ta, _ = sid_to_ta(load(path.name).sid)
    assert sha256(dump_ta(ta)) == DUMP_TA_DIGESTS[path.name]
