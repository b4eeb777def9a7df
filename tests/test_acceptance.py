"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines;
each test also asserts its stated time budget.
"""

import itertools
import time

import pytest

from clhavoc.analysis import check_pcr, profile
from clhavoc.core import (Configuration, Interaction, compose, degree, havoc_closure,
                          is_tight, step)
from clhavoc.frontend import Query, SystemFile, parse_system, render_system
from clhavoc.logic import Var
from clhavoc.oracle import (canonical_model, cross_validate_reduction,
                            entails_bounded, enumerate_models,
                            havoc_invariant_bounded)
from clhavoc.reduction import class_equiv, reduce_havoc_to_entailment
from clhavoc.automata import sid_to_ta

from conftest import FIXTURES
from reference import TOKEN, all_partitions, brute_force_profile, models, ring_config


class Budget:
    def __init__(self, n, summary, seconds):
        self.n = n
        self.summary = summary
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.n:>2} {verdict} ({elapsed:6.2f}s <= {self.seconds}s) "
              f"{self.summary}", flush=True)
        if exc_type is None:
            assert elapsed <= self.seconds, f"criterion {self.n} over budget"
        return False


def test_criterion_01_composition():
    with Budget(1, "composition of two half rings", 1):
        rho = {"c1": "H", "c2": "T"}
        g1 = Configuration.make(["c1"],
                                [Interaction.make(("c1", "out"), ("c2", "in"))], rho)
        g2 = Configuration.make(["c2"],
                                [Interaction.make(("c2", "out"), ("c1", "in"))], rho)
        assert compose(g1, g2) == Configuration.make(
            ["c1", "c2"],
            [Interaction.make(("c1", "out"), ("c2", "in")),
             Interaction.make(("c2", "out"), ("c1", "in"))], rho)


def test_criterion_02_havoc_reachability():
    with Budget(2, "three ring configurations mutually reachable", 1):
        gs = [ring_config(["H", "H", "T"]), ring_config(["T", "H", "H"]),
              ring_config(["H", "T", "H"])]
        for a in gs:
            reach = havoc_closure(TOKEN, a)
            for b in gs:
                assert b in reach


def test_criterion_03_degree():
    with Budget(3, "4-component token ring has degree two", 1):
        assert degree(ring_config(["H", "H", "H", "T"])) == 2


def test_criterion_04_pcr_classification(ring, pcring, tll_pcr, tll_original):
    with Budget(4, "PCR classification of ring/pcring/tll variants", 5):
        rep = check_pcr(ring.sid)
        for row in rep.rules:
            if row.head.startswith("Chain"):
                assert row.pcr
            else:
                assert not row.progressing and not row.connected
        assert check_pcr(pcring.sid).sid_pcr
        assert check_pcr(tll_pcr.sid).sid_pcr
        rows = check_pcr(tll_original.sid).rules
        assert not rows[0].pcr  # Root
        assert not rows[2].pcr and not rows[3].pcr  # leaf rules
        assert rows[1].pcr  # the recursive Node rule


def test_criterion_05_tll_automaton_shape(tll):
    with Budget(5, "tll automaton: 2 states, 4 transitions, expected shape", 1):
        ta, _ = sid_to_ta(tll.sid)
        assert set(ta.states) == {"Root", "Node"}
        assert len(ta.transitions) == 4
        shapes = sorted((tr.symbol.rank, tr.children, tr.result)
                        for tr in ta.transitions)
        assert shapes == [(0, (), "Node"), (0, (), "Node"),
                          (1, ("Node",), "Root"), (2, ("Node", "Node"), "Node")]


def test_criterion_06_ring_positive_verdict(ring):
    with Budget(6, "ring invariant: oracle depth 5 + entailments depth 5", 60):
        rep = havoc_invariant_bounded(ring.sid, "Ring_1_1", 5)
        assert rep.invariant and rep.counterexample is None
        result = reduce_havoc_to_entailment(ring.sid, "Ring_1_1", assume_tight=True)
        assert result.targets
        for lhs, rhs in result.entailments:
            assert entails_bounded(result.combined_sid, lhs, rhs, 5).holds


def test_criterion_07_negative_verdict(bad):
    with Budget(7, "pinned token edge falsified in one step at depth 1", 1):
        rep = havoc_invariant_bounded(bad.sid, "TH", 1)
        assert not rep.invariant
        ce = rep.counterexample
        assert ce is not None and ce.interaction is not None
        assert ce.successor in step(bad.sid.behavior, ce.config, ce.interaction)


def test_criterion_08_reduction_cross_validation(ring, tll):
    with Budget(8, "one-step successors == derived models [ring d4]", 300):
        r1 = reduce_havoc_to_entailment(ring.sid, "Ring_1_1", assume_tight=True)
        c1 = cross_validate_reduction(ring.sid, "Ring_1_1", 4, r1)
        assert c1.equal, (c1.left_only, c1.right_only)
    with Budget(8, "one-step successors == derived models [tll d3]", 300):
        r2 = reduce_havoc_to_entailment(tll.sid, "Root", assume_tight=True)
        c2 = cross_validate_reduction(tll.sid, "Root", 3, r2)
        assert c2.equal, (c2.left_only, c2.right_only)


def test_criterion_09_class_equivalence(ring, tll):
    with Budget(9, "derived SIDs are class-equivalent to their sources", 30):
        for sf, pred in ((ring, "Ring_1_1"), (tll, "Root")):
            result = reduce_havoc_to_entailment(sf.sid, pred, assume_tight=True)
            res = class_equiv(sf.sid, result.derived_sid)
            assert res.verdict == "equivalent"
            assert res.pairing  # explicit rule pairing witness


@pytest.mark.parametrize("name,pred,depth", [
    ("ring", "Ring_1_1", 3), ("chain", "Chain_1_1", 3), ("bad", "TH", 2),
    ("tll", "Root", 3), ("tll_original", "Root", 3),
    ("pcring", "PcRing_1_1", 3), ("tll_pcr", "Root", 3),
])
def test_criterion_10_one_step_iff_multi_step(name, pred, depth, request):
    sf = request.getfixturevalue(name)
    with Budget(10, f"one-step closure iff multi-step closure [{name}]", 30):
        sid = sf.sid
        ms = enumerate_models(sid, sid.atom(pred), depth)
        keys = set(ms.keys())
        one = True
        multi = True
        for m in ms.models():
            for inter in m.config.interactions:
                for g2 in step(sid.behavior, m.config, inter):
                    if canonical_model(g2, m.store) not in keys:
                        one = False
            for g in havoc_closure(sid.behavior, m.config):
                if canonical_model(g, m.store) not in keys:
                    multi = False
        assert one == multi


def test_criterion_11_eqformula_oracle():
    with Budget(11, "partition ops agree with brute force on <=4 variables", 10):
        vars = [Var(c) for c in "abcd"]
        for phi in all_partitions(vars):
            sem = models(phi, vars, 4)
            for x, y in itertools.combinations(vars, 2):
                i, j = vars.index(x), vars.index(y)
                assert phi.entails(x, y) == all(m[i] == m[j] for m in sem)
            for k in range(5):
                for drop in itertools.combinations(vars, k):
                    keep = [v for v in vars if v not in drop]
                    proj = {tuple(m[vars.index(v)] for v in keep) for m in sem}
                    assert models(phi.qelim(drop), keep, 4) == proj


@pytest.mark.parametrize("name", ["ring", "chain", "pcring", "tll",
                                  "tll_original", "tll_pcr", "bad"])
def test_criterion_12_profile_oracle(name, request):
    sf = request.getfixturevalue(name)
    with Budget(12, f"profile fixpoint == unfolding brute force [{name}]", 30):
        assert profile(sf.sid) == brute_force_profile(sf.sid, 4)


@pytest.mark.parametrize("name", ["chain", "pcring", "tll_pcr"])
def test_criterion_13_pcr_tight_sampling(name, request):
    sf = request.getfixturevalue(name)
    with Budget(13, f"all bounded models of the PCR fixture are tight [{name}]", 60):
        assert check_pcr(sf.sid).sid_pcr
        for pred in sf.sid.predicates:
            for m in enumerate_models(sf.sid, sf.sid.atom(pred), 4).models():
                assert is_tight(m.config)


def test_criterion_14_frontend_round_trip(ring):
    with Budget(14, "corpus round-trips; reduced output re-parses and re-checks", 10):
        for path in sorted(FIXTURES.glob("*.clsys")):
            sf1 = parse_system(path.read_text())
            text1 = render_system(sf1)
            assert render_system(parse_system(text1)) == text1
        result = reduce_havoc_to_entailment(ring.sid, "Ring_1_1", assume_tight=True)
        queries = [Query("entail", lhs, rhs) for lhs, rhs in result.entailments]
        text = render_system(SystemFile(ring.behavior, result.combined_sid, {},
                                        queries))
        back = parse_system(text)
        assert render_system(parse_system(render_system(back))) == render_system(back)
        for q in back.queries:
            assert entails_bounded(back.sid, q.lhs, q.rhs, 2).holds
