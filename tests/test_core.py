import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clhavoc.core import (Behavior, Configuration, Interaction,
                          StateMapMismatch, UnknownInteraction, compose,
                          degree, havoc_closure, is_tight, step, successors)
from clhavoc.frontend import parse_system

from conftest import source_fixtures
from reference import TOKEN, ring_config

EMPTY = Configuration.make((), (), {})


def test_compose_two_half_rings():
    rho = {"c1": "H", "c2": "T"}
    g1 = Configuration.make(["c1"], [Interaction.make(("c1", "out"), ("c2", "in"))], rho)
    g2 = Configuration.make(["c2"], [Interaction.make(("c2", "out"), ("c1", "in"))], rho)
    g = compose(g1, g2)
    assert g == Configuration.make(
        ["c1", "c2"],
        [Interaction.make(("c1", "out"), ("c2", "in")),
         Interaction.make(("c2", "out"), ("c1", "in"))], rho)


def test_compose_unit_and_overlap():
    g = ring_config(["H", "T"])
    assert compose(g, EMPTY) == g
    assert compose(EMPTY, g) == g
    assert compose(g, g) is None  # shared components


def test_compose_state_mismatch_is_an_error():
    g1 = Configuration.make(["c1"], [], {"c1": "H", "c2": "T"})
    g2 = Configuration.make(["c2"], [], {"c2": "H"})
    with pytest.raises(StateMapMismatch):
        compose(g1, g2)


def test_compose_commutative_associative():
    rho = {"c1": "H", "c2": "T", "c3": "H"}
    parts = [Configuration.make([c], [], rho) for c in ("c1", "c2", "c3")]
    a, b, c = parts
    assert compose(a, b) == compose(b, a)
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_interaction_validation():
    with pytest.raises(ValueError):
        Interaction.make(("c1", "out"), ("c1", "in"))
    with pytest.raises(ValueError):
        Interaction(())


def test_interaction_derived_tuples_stay_out_of_identity():
    a = Interaction.make(("c1", "out"), ("c2", "in"))
    b = Interaction((("c1", "out"), ("c2", "in")))
    assert a.components == ("c1", "c2")
    assert a.itype == ("out", "in")
    assert a == b and hash(a) == hash(b) == hash((a.bindings,))
    assert repr(a) == "<c1.out, c2.in>"
    assert a != Interaction.make(("c1", "in"), ("c2", "out"))


def test_behavior_targets_read_its_table():
    # every fixture behavior and a nondeterministic one: the table gives the
    # sorted scan of the transitions, and stays out of equality, hash and repr
    nondet = Behavior.make(["p"], ["q", "q1", "q2"], [("q", "p", "q2"), ("q", "p", "q1")])
    behaviors = [parse_system(p.read_text()).sid.behavior for p in source_fixtures()]
    for b in [*behaviors, TOKEN, nondet]:
        for q in b.states:
            for p in b.ports:
                assert b.targets(q, p) == tuple(sorted(
                    q2 for q1, p1, q2 in b.transitions if q1 == q and p1 == p))
        same = Behavior(b.ports, b.states, b.transitions)
        assert same == b and hash(same) == hash(b) == hash((b.ports, b.states, b.transitions))
        assert repr(b) == (f"Behavior(ports={b.ports!r}, states={b.states!r}, "
                           f"transitions={b.transitions!r})")
    assert nondet.targets("q", "p") == ("q1", "q2")
    assert nondet.targets("q1", "p") == ()


def test_step_moves_token():
    g = ring_config(["H", "H", "T"])
    inter = Interaction.make(("c3", "out"), ("c1", "in"))
    succ = step(TOKEN, g, inter)
    assert len(succ) == 1
    g2 = next(iter(succ))
    assert g2.state_map == {"c1": "T", "c2": "H", "c3": "H"}
    assert g2.components == g.components
    assert g2.interactions == g.interactions


def test_step_disabled_and_unknown():
    g = ring_config(["H", "H", "T"])
    blocked = Interaction.make(("c1", "out"), ("c2", "in"))  # c1 has no out from H
    assert step(TOKEN, g, blocked) == frozenset()
    with pytest.raises(UnknownInteraction):
        step(TOKEN, g, Interaction.make(("c1", "in"), ("c2", "out")))


def test_step_nondeterministic_choices():
    b = Behavior.make(["p"], ["q", "q1", "q2"],
                      [("q", "p", "q1"), ("q", "p", "q2")])
    g = Configuration.make(["c"], [Interaction.make(("c", "p"))], {"c": "q"})
    succ = step(b, g, Interaction.make(("c", "p")))
    assert {s.state_map["c"] for s in succ} == {"q1", "q2"}


def test_successors_union_and_empty():
    g = ring_config(["H", "H", "T"])
    succ = successors(TOKEN, g)
    assert len(succ) == 1  # only c3 holds the token
    lonely = Configuration.make(["c1"], [], {"c1": "H"})
    assert successors(TOKEN, lonely) == frozenset()


def test_havoc_example_three_ring():
    g1 = ring_config(["H", "H", "T"])
    g2 = ring_config(["T", "H", "H"])
    g3 = ring_config(["H", "T", "H"])
    for a in (g1, g2, g3):
        reach = havoc_closure(TOKEN, a)
        for b in (g1, g2, g3):
            assert b in reach


def test_two_ring_closure_is_exact():
    g = ring_config(["T", "H"])
    reach = havoc_closure(TOKEN, g)
    assert reach == {ring_config(["T", "H"]), ring_config(["H", "T"])}


def test_successors_preserve_structure():
    g = ring_config(["T", "H", "T", "H"])
    for g2 in havoc_closure(TOKEN, g):
        assert g2.components == g.components
        assert g2.interactions == g.interactions


def test_degree():
    assert degree(ring_config(["H", "H", "H", "T"])) == 2
    assert degree(EMPTY) == 0
    hub = Configuration.make(
        ["h", "a", "b", "c"],
        [Interaction.make(("h", "out"), (x, "in")) for x in ("a", "b", "c")],
        {c: "H" for c in ("h", "a", "b", "c")})
    assert degree(hub) == 3


def test_degree_of_composition_dominates():
    rho = {"c1": "H", "c2": "H", "c3": "T"}
    g1 = Configuration.make(["c1"], [Interaction.make(("c1", "out"), ("c2", "in"))], rho)
    g2 = Configuration.make(["c2", "c3"],
                            [Interaction.make(("c2", "out"), ("c3", "in"))], rho)
    g = compose(g1, g2)
    assert degree(g) >= max(degree(g1), degree(g2))


def test_tightness():
    assert is_tight(ring_config(["H", "T"]))
    loose = Configuration.make([], [Interaction.make(("c1", "out"), ("c2", "in"))],
                               {"c1": "H", "c2": "T"})
    assert not is_tight(loose)
    g = ring_config(["H", "H", "T"])
    smaller = Configuration.make(g.components - {"c1"}, g.interactions, g.state_map)
    assert not is_tight(smaller)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["H", "T"]), min_size=2, max_size=4))
def test_closure_terminates_and_stays_finite(states):
    g = ring_config(states)
    reach = havoc_closure(TOKEN, g)
    assert g in reach
    assert len(reach) <= 2 ** len(states)
