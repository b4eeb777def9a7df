#!/usr/bin/env python3
"""clhavoc benchmark: time to verdict on seeded workloads.

    python3 perfbench/run.py --workload ring-deep --seed 1 --seconds 40 --trace 0

Run from the repository root.  With `--trace 0` the run repeats passes over
the workload's instances for about `--seconds` seconds (at least three
passes) and reports the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it alternates untraced and traced passes for about `--seconds`
seconds (at least two of each) and reports the per-layer metrics.  Every
metric is printed with its unit; the last line of standard output is one
JSON object.  End-to-end times are scaled to a fixed host speed measured
around each part of every instance (hostspeed.py).  The run's per-instance verdicts,
measured times, scale factors and output digests are also written to
perfbench/out/.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads
from tracing import Tracer, is_count, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_SAMPLES = 9

# What one set-up pays: a fresh interpreter, `import clhavoc`, and the first
# pass of renamed instance texts.
SETUP_PROBE = ("import sys; sys.path[:0] = {paths!r}; import clhavoc, workloads; "
               "next(workloads.passes({workload!r}, {seed}))")


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(measured seconds, host scale) of each set-up sample."""
    code = SETUP_PROBE.format(paths=[str(SRC), str(HERE)], workload=workload, seed=seed)
    samples = []
    before = hostspeed.probe()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        elapsed = time.perf_counter() - start
        after = hostspeed.probe()
        samples.append((elapsed, hostspeed.scale(before, after)))
        before = after
    return samples


def run_pass(batch, tracer: Tracer | None = None) -> list:
    """Run one pass, probing the host's speed before, after and between the
    two parts of every instance; each part is scaled by its two probes."""
    from pipeline import run_instance
    before = hostspeed.probe()
    outcomes = []
    for inst in batch:
        if tracer is not None:
            tracer.instance = inst.spec.name
        middle = []
        o = run_instance(inst, between=lambda: middle.append(hostspeed.probe()))
        after = hostspeed.probe()
        o.check_scale = hostspeed.scale(before, middle[0])
        o.validate_scale = hostspeed.scale(middle[0], after)
        outcomes.append(o)
        before = after
    return outcomes


def scaled_check(o) -> float:
    return o.check_s * o.check_scale


def scaled_validate(o) -> float:
    return o.validate_s * o.validate_scale


def scaled(o) -> float:
    """An instance's check plus validate time at the reference host speed."""
    return scaled_check(o) + scaled_validate(o)


def end_to_end(passes: list[list], setup: list[tuple[float, float]]) -> dict[str, float]:
    """End-to-end metrics of untraced passes; times are scaled medians."""
    per_instance: dict[str, list[float]] = {}
    for outcomes in passes:
        for o in outcomes:
            per_instance.setdefault(o.spec.name, []).append(scaled(o))
    ops = 4 * sum(len(outcomes) for outcomes in passes)
    failed = sum(len(o.failed_ops()) for outcomes in passes for o in outcomes)
    return {
        "setup_s": statistics.median(seconds * k for seconds, k in setup),
        "check_s": statistics.median(sum(map(scaled_check, p)) for p in passes),
        "validate_s": statistics.median(sum(map(scaled_validate, p)) for p in passes),
        "instance_s_p50": statistics.median(statistics.median(ts)
                                            for ts in per_instance.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": (ops - failed) / ops,
    }


def per_layer(layers: list[dict], untraced: list[list],
              traced: list[list]) -> tuple[dict[str, float], list[str]]:
    """Median per-layer metrics over traced passes, and the counts that differ."""
    first = layers[0]
    metrics = {name: statistics.median(m[name] for m in layers) for name in first}
    unstable = [n for n in first if is_count(n) and any(m[n] != first[n] for m in layers)]
    metrics["trace.overhead_ratio"] = (sum(scaled(o) for p in traced for o in p)
                                       / sum(scaled(o) for p in untraced for o in p))
    return metrics, unstable


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "clhavoc" / "__init__.py").is_file():
        sys.stderr.write(f"no clhavoc sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import clhavoc
    if Path(clhavoc.__file__).resolve().parent != SRC / "clhavoc":
        sys.stderr.write(f"imported clhavoc from {clhavoc.__file__}, not {SRC}\n")
        return 2

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    batches = workloads.passes(args.workload, args.seed)
    untraced: list[list] = []
    traced: list[list] = []
    layers: list[dict] = []
    tracer = None
    start = time.perf_counter()
    rounds = 0
    while True:
        untraced.append(run_pass(next(batches)))
        if args.trace:
            with Tracer() as tracer:
                traced.append(run_pass(next(batches), tracer))
            layers.append(layer_metrics(tracer))
        rounds += 1
        elapsed = time.perf_counter() - start
        # Stop at the round boundary nearest to the deadline.
        if (rounds >= (MIN_TRACED_PASSES if args.trace else MIN_PASSES)
                and elapsed + elapsed / rounds / 2 >= args.seconds):
            break

    every = [o for outcomes in untraced + traced for o in outcomes]
    problems = sorted({f"{o.spec.name}: {op} = {o.verdicts.get(op)!r}, expected "
                       f"{o.spec.expect[op]!r}" for o in every for op in o.wrong_ops()})
    if args.trace:
        values, unstable = per_layer(layers, untraced, traced)
        problems += [f"count {n} differs between traced passes" for n in unstable]
    else:
        values = end_to_end(untraced, setup)
    result = {
        "correct": not problems,
        "attempted": 4 * len(every),
        "failed": sum(len(o.failed_ops()) for o in every),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "result": result, "problems": problems, "setup_samples": setup,
        "instances": {s.name: {"pred": s.pred, "depth": s.depth, "expect": s.expect,
                               "reason": s.reason}
                      for s in workloads.workload_specs(args.workload)},
        "passes": [[{"name": o.spec.name, "traced": is_traced,
                     "check_s": o.check_s, "validate_s": o.validate_s,
                     "check_scale": o.check_scale, "validate_scale": o.validate_scale,
                     "verdicts": o.verdicts, "xval_sizes": o.xval_sizes,
                     "digests": o.digests} for o in outcomes]
                   for is_traced, group in ((False, untraced), (True, traced))
                   for outcomes in group],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for sid, span in enumerate(tracer.spans):
                fh.write(json.dumps((sid,) + span) + "\n")

    for p in problems:
        sys.stderr.write(f"problem: {p}\n")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
