"""Checks of the benchmark's own code: seeded inputs, renaming, tracing, metric names.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import clhavoc.reduction  # noqa: E402
import clhavoc.transducer  # noqa: E402
import hostspeed  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, is_count, layer_metrics  # noqa: E402

# Instances cheap enough to run twice in a test, at least one per workload.
CHEAP = ("chain.Chain_1_1@6", "ring2.Ring_2_2@3", "tll_pcr.Root@4",
         "pcring.PcRing_0_0@5", "bad.TH@3", "anchored.Anchored@6")


def first_passes(workload, seed, n):
    batches = workloads.passes(workload, seed)
    return [next(batches) for _ in range(n)]


def instance(name, seed):
    for workload in workloads.WORKLOADS:
        for inst in first_passes(workload, seed, 1)[0]:
            if inst.spec.name == name:
                return inst
    raise KeyError(name)


def traced(inst):
    with Tracer() as tracer:
        tracer.instance = inst.spec.name
        outcome = pipeline.run_instance(inst)
    return outcome, layer_metrics(tracer)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_texts(workload):
    def texts(seed):
        return [[(i.spec.name, i.text) for i in batch]
                for batch in first_passes(workload, seed, 4)]
    assert texts(5) == texts(5)
    assert texts(5) != texts(6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_text_repeats_within_a_run(workload):
    texts = [i.text for batch in first_passes(workload, 5, 8) for i in batch]
    assert len(set(texts)) == len(texts)


def test_renaming_reaches_every_name():
    inst = instance("anchored.Anchored@6", 3)
    sf = clhavoc.frontend.parse_system(inst.text)
    names = (set(sf.sid.predicates) | set(sf.behavior.states) | set(sf.behavior.ports)
             | {v.name for r in sf.sid.rules for v in r.params})
    assert all(n.startswith(inst.tag) for n in names)


@pytest.mark.parametrize("name", CHEAP)
def test_seeds_give_same_verdicts_counts_and_digests(name):
    (out1, m1), (out2, m2) = traced(instance(name, 1)), traced(instance(name, 2))
    assert out1.verdicts == out2.verdicts
    assert out1.digests == out2.digests
    assert {k: v for k, v in m1.items() if is_count(k)} == \
        {k: v for k, v in m2.items() if is_count(k)}
    assert m1["transducer.product_states"] > 0
    assert not out1.wrong_ops()


def test_digests_ignore_the_renaming():
    spec = next(s for s in workloads.workload_specs("tree-mix") if s.name == "tll_pcr.Root@4")
    plain = pipeline.run_instance(workloads.Instance(spec, "", spec.text))
    assert plain.digests == pipeline.run_instance(instance(spec.name, 9)).digests


def test_tracer_restores_the_library():
    image = clhavoc.reduction.image
    make = clhavoc.eqform.EqFormula.__dict__["make"]
    with Tracer():
        assert clhavoc.reduction.image is not image
        assert clhavoc.transducer.image is clhavoc.reduction.image
    assert clhavoc.reduction.image is image
    assert clhavoc.eqform.EqFormula.__dict__["make"] is make


def test_known_answers_cover_every_instance():
    names = set()
    for workload in workloads.WORKLOADS:
        for spec in workloads.workload_specs(workload):
            assert set(spec.expect) == set(pipeline.OPS) and spec.reason
            names.add(spec.name)
    assert workloads.BARE_COMP_GAPS <= names


def test_declared_metrics_are_produced():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    outcome, layers = traced(instance("bad.TH@3", 1))
    e2e = run.end_to_end([[outcome]], [(0.1, 1.0)])
    assert {m["name"] for m in declared["end_to_end"]} == set(e2e)
    assert {m["name"] for m in declared["per_layer"]} <= set(layers) | {"trace.overhead_ratio"}


def test_every_part_gets_a_host_scale():
    outcomes = run.run_pass([instance("bad.TH@3", 1), instance("tll_pcr.Root@4", 1)])
    assert all(0 < k < float("inf") for o in outcomes for k in (o.check_scale, o.validate_scale))
    assert hostspeed.scale(hostspeed.REFERENCE_S, hostspeed.REFERENCE_S) == 1.0


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "tree-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
