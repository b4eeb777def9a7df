"""Profile fixpoint, PCR classification, metrics, degree sampling."""

import pytest

from clhavoc.analysis import check_pcr, profile, render_pcr_table, sid_metrics
from clhavoc.core import Behavior
from clhavoc.frontend import parse_system
from clhavoc.logic import Rule, SID, Var
from reference import brute_force_profile, degree_sample


def rules_for(report, sid, head):
    return [row for row in report.rules if row.head == head]


# ---------------------------------------------------------------------------
# profile

def test_profile_unconstrained():
    sid = SID((Rule("A", (Var("x1"), Var("x2")), (), ()),),
              Behavior.make(["p"], ["q"], []))
    assert profile(sid)["A"] == frozenset({1, 2})


def test_profile_chain_second_position_survives(chain):
    prof = profile(chain.sid)
    for p in chain.sid.predicates:
        if p == "Chain_1_1":
            # never occurs as a callee in the 0..1 instantiation
            assert prof[p] == frozenset({1, 2})
        else:
            # first position is rebound to an existential in each recursion,
            # the second is passed through
            assert prof[p] == frozenset({2}), p


def test_profile_dies_through_ring_existentials(ring):
    prof = profile(ring.sid)
    assert prof["Chain_1_1"] == frozenset()
    assert prof["Ring_1_1"] == frozenset()


@pytest.mark.parametrize("name", ["ring", "chain", "pcring", "tll",
                                  "tll_original", "tll_pcr", "bad"])
def test_profile_matches_brute_force(name, request):
    sf = request.getfixturevalue(name)
    assert profile(sf.sid) == brute_force_profile(sf.sid)


def test_profile_monotone_under_rule_deletion(ring):
    full = profile(ring.sid)
    smaller = SID(tuple(r for r in ring.sid.rules if not r.head.startswith("Ring")),
                  ring.sid.behavior)
    partial = profile(smaller)
    for p in smaller.predicates:
        assert full[p] <= partial[p]


# ---------------------------------------------------------------------------
# PCR classification

def test_chain_rules_are_pcr(ring):
    rep = check_pcr(ring.sid)
    for row in rep.rules:
        if row.head.startswith("Chain"):
            assert row.pcr, (row.head, row.reasons)


def test_ring_rules_not_progressing_not_connected(ring):
    rep = check_pcr(ring.sid)
    ring_rows = [r for r in rep.rules if r.head.startswith("Ring")]
    assert ring_rows
    for row in ring_rows:
        assert not row.progressing
        assert not row.connected
        assert row.erestricted


def test_pcring_is_pcr(pcring):
    rep = check_pcr(pcring.sid)
    assert rep.sid_pcr, [r.reasons for r in rep.rules if not r.pcr]


def test_rewritten_tll_is_pcr(tll_pcr):
    rep = check_pcr(tll_pcr.sid)
    assert rep.sid_pcr, [r.reasons for r in rep.rules if not r.pcr]


def test_original_tll_root_and_leaf_rules_not_pcr(tll_original):
    rep = check_pcr(tll_original.sid)
    rows = rep.rules
    root = [r for r in rows if r.head == "Root"]
    assert len(root) == 1 and not root[0].pcr
    assert not root[0].progressing and not root[0].connected
    leaves = [r for r in rows if r.head == "Node" and r.index in (2, 3)]
    assert len(leaves) == 2
    for row in leaves:
        assert not row.progressing
    # the recursive Node rule itself is fine
    rec = [r for r in rows if r.head == "Node" and r.index == 1]
    assert rec[0].pcr


def test_e_restriction_violation():
    text = """
    behavior { ports p; states q; }
    sid {
      A(x) <- exists y, z . comp(x) * <x.p, y.p> * y != z * B(y) * B(z);
      B(x) <- comp(x);
    }
    """
    rep = check_pcr(parse_system(text).sid)
    row = rep.rules[0]
    assert not row.erestricted
    assert any(r.startswith("R:") for r in row.reasons)


def test_render_table_stable(ring):
    a = render_pcr_table(ring.sid, check_pcr(ring.sid))
    b = render_pcr_table(ring.sid, check_pcr(ring.sid))
    assert a == b
    assert "pcr=n" in a


# ---------------------------------------------------------------------------
# metrics

def test_metrics_tll(tll_original):
    size, maxarity, maxinter, maxpreds = sid_metrics(tll_original.sid)
    assert maxarity == 3
    assert maxinter == 3
    assert maxpreds == 2
    assert size > 0


def test_metrics_empty():
    sid = SID((), Behavior.make(["p"], ["q"], []))
    assert sid_metrics(sid) == (0, 0, 0, 0)


def test_metrics_ring(ring):
    _, maxarity, maxinter, maxpreds = sid_metrics(ring.sid)
    assert maxinter == 2
    assert maxarity == 2
    assert maxpreds == 1


# ---------------------------------------------------------------------------
# degree sampling

def test_degree_ring(ring):
    assert degree_sample(ring.sid, "Ring_1_1", 5) == 2


def test_degree_single_component():
    from clhavoc.logic import Comp
    sid = SID((Rule("A", (Var("x"),), (), (Comp(Var("x")),)),),
              Behavior.make(["p"], ["q"], []))
    assert degree_sample(sid, "A", 2) == 0


def test_degree_tll_root(tll):
    assert degree_sample(tll.sid, "Root", 4) == 3


def test_degree_monotone_in_depth(ring):
    assert (degree_sample(ring.sid, "Ring_1_1", 3)
            <= degree_sample(ring.sid, "Ring_1_1", 4)
            <= degree_sample(ring.sid, "Ring_1_1", 5))


# ---------------------------------------------------------------------------
# PCR implies tight models

@pytest.mark.parametrize("name", ["chain", "pcring", "tll_pcr"])
def test_pcr_sids_have_tight_models(name, request):
    from clhavoc.core import is_tight
    from clhavoc.oracle import enumerate_models
    sf = request.getfixturevalue(name)
    assert check_pcr(sf.sid).sid_pcr
    for pred in sf.sid.predicates:
        for model in enumerate_models(sf.sid, ((), (sf.sid.atom(pred),)), 4).values():
            assert is_tight(model.config), (pred, model.config)


def test_pcr_reasons_name_binders_as_written():
    text = """
    behavior { ports a, b; states q; }
    sid {
      P(x) <- exists y, w . comp(x) * <x.a, y.b> * Q(y) * y != w;
      Q(x) <- comp(x);
    }
    """
    (row, _) = check_pcr(parse_system(text).sid).rules
    assert row.reasons == (
        "P: passed variables differ from parameters+existentials (unpassed=['w'], stray=[])",
        "R: disequality y != w avoids all profile parameters")


def test_profile_renames_shadowing_binders():
    # P's binder y shadows its parameter y, so Q(y) passes the binder, not
    # a profile parameter: position 1 of Q dies
    text = """
    behavior { ports a, b; states q; }
    sid {
      P(x, y) <- exists y . comp(x) * <x.a, y.b> * Q(y);
      Q(x) <- comp(x);
      R(x) <- exists y . comp(x) * <x.a, y.b> * P(y, x);
    }
    """
    sid = parse_system(text).sid
    assert profile(sid) == brute_force_profile(sid)
    assert profile(sid)["Q"] == frozenset()
