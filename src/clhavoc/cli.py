"""Batch command-line driver: parse | analyze | reduce | check | simulate | oracle.

Exit codes: 0 verdict-positive, 1 verdict-negative (counterexample or
mismatch), 2 unknown/gated (tightness not established, a state atom on a
variable its rule does not allocate, no entailment or target to check, or
no unfolding of the predicate completes within the depth), 3 input error
(malformed input, a usage error, or an -o path that cannot be written).
Diagnostics go to stderr; results to stdout or the -o path.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import frontend
from .analysis import render_pcr_table, check_pcr
from .core import havoc_closure
from .frontend import (ParseError, SystemFile, parse_system, render_config,
                       render_system)
from .logic import least_heights, var_text
from .oracle import (cross_validate_reduction, entails_bounded,
                     havoc_invariant_bounded)
from .reduction import (ReductionResult, TightnessNotEstablished,
                        UnallocatedStateAtom, manifest_dict,
                        reduce_havoc_to_entailment)
from .automata import symbol_text


def _load(path: str) -> SystemFile:
    with open(path, encoding="utf-8") as fh:
        return parse_system(fh.read())


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _reduced_paths(path: str, out: str | None) -> tuple[str, str]:
    stem = path[:-len(".clsys")] if path.endswith(".clsys") else path
    reduced = out or stem + ".reduced.clsys"
    rstem = reduced[:-len(".reduced.clsys")] if reduced.endswith(".reduced.clsys") \
        else reduced
    return reduced, rstem + ".manifest.json"


# the reduction's refusals: it cannot vouch for its answer on such input
REFUSED = (TightnessNotEstablished, UnallocatedStateAtom)


def _refused(e: Exception) -> None:
    sys.stderr.write(f"{type(e).__name__}: {e}\n")


def _reduce(sf: SystemFile, args) -> ReductionResult:
    """Reduce args.pred; with --trace-transducer, print each product
    transition's witnesses to stderr."""
    result = reduce_havoc_to_entailment(sf.sid, args.pred,
                                        assume_tight=args.assume_tight)
    if args.trace_transducer:
        for tr, wits in sorted(result.witnesses.items(),
                               key=lambda kv: symbol_text(kv[0].symbol)):
            for w in wits:
                sys.stderr.write(
                    f"trace: {symbol_text(tr.symbol)} tau=({','.join(w.tau)}) "
                    f"rewrites={[(i, var_text(x), q, q2) for i, x, q, q2 in w.rewrites]} "
                    f"fired_atom={w.fired_atom}\n")
    return result


def _write_reduction(sf: SystemFile, result: ReductionResult, path: str,
                     out: str | None) -> str:
    queries = [frontend.Query("entail", lhs, rhs) for lhs, rhs in result.entailments]
    reduced = frontend.SystemFile(sf.behavior, result.combined_sid, {}, queries)
    reduced_path, manifest_path = _reduced_paths(path, out)
    with open(reduced_path, "w", encoding="utf-8") as fh:
        fh.write(render_system(reduced))
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest_dict(result), indent=2, sort_keys=True) + "\n")
    return reduced_path


def _incomplete(sf: SystemFile, pred: str, depth: int) -> str | None:
    """Why the bounded check of pred enumerates nothing, if it does not."""
    height = least_heights(sf.sid, [pred])[pred]
    if height <= depth:
        return None
    least = f"least height {height}" if height < math.inf else "none ever completes"
    return f"no unfolding of {pred} completes within depth {depth}; {least}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="clhavoc")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, pred=False):
        p.add_argument("file")
        if pred:
            p.add_argument("--pred", required=True)
            p.add_argument("--depth", type=int, default=4)
            p.add_argument("--assume-tight", action="store_true")
            p.add_argument("--trace-transducer", action="store_true")
        p.add_argument("-o", "--output")

    common(sub.add_parser("parse"))
    common(sub.add_parser("analyze"))
    common(sub.add_parser("reduce"), pred=True)
    common(sub.add_parser("check"), pred=True)
    sim = sub.add_parser("simulate")
    common(sim)
    sim.add_argument("--config", required=True)
    common(sub.add_parser("oracle"), pred=True)

    try:
        args = ap.parse_args(argv)
        if getattr(args, "depth", 0) < 0:
            sub.choices[args.command].error(f"argument --depth: must be at least 0, "
                                            f"not {args.depth}")
    except SystemExit as e:
        # argparse exits 2 on a usage error, but 2 means unknown here
        return 3 if e.code else 0
    try:
        sf = _load(args.file)
    except (OSError, ParseError) as e:
        sys.stderr.write(f"{args.file}: {e}\n")
        return 3

    if args.command in ("reduce", "check", "oracle") and args.pred not in sf.sid.predicates:
        sys.stderr.write(f"unknown predicate {args.pred!r}; defined: "
                         f"{', '.join(sf.sid.predicates)}\n")
        return 3

    try:
        return _run(sf, args)
    except OSError as e:
        # the -o path, or a file beside it, cannot be written
        sys.stderr.write(f"{e.filename}: {e.strerror}\n")
        return 3


def _run(sf: SystemFile, args) -> int:
    """Run the command on the loaded system; its exit code."""
    if args.command == "parse":
        _emit(render_system(sf), args.output)
        return 0

    if args.command == "analyze":
        _emit(render_pcr_table(sf.sid, check_pcr(sf.sid)), args.output)
        return 0

    if args.command == "simulate":
        if args.config not in sf.configs:
            sys.stderr.write(f"unknown config {args.config!r}\n")
            return 3
        reach = sorted(havoc_closure(sf.behavior, sf.configs[args.config]),
                       key=lambda g: g.state_pairs)
        text = f"reachable: {len(reach)}\n" + "\n".join(
            render_config(f"{args.config}_{i}", g) for i, g in enumerate(reach)) + "\n"
        _emit(text, args.output)
        return 0

    if args.command == "reduce":
        try:
            result = _reduce(sf, args)
        except REFUSED as e:
            _refused(e)
            return 2
        reduced_path = _write_reduction(sf, result, args.file, args.output)
        sys.stdout.write(f"wrote {reduced_path}\n")
        sys.stdout.write(f"targets: {len(result.targets)}\n")
        for t in result.targets:
            sys.stdout.write(f"  {t} |= {result.predicate}\n")
        return 0

    if args.command == "check":
        try:
            result = _reduce(sf, args)
        except REFUSED as e:
            _refused(e)
            _emit("verdict: Unknown\n", args.output)
            return 2
        if not result.entailments:
            # no target survived the reduction: nothing was checked
            _emit("verdict: Unknown (no entailment to check)\n", args.output)
            return 2
        incomplete = _incomplete(sf, args.pred, args.depth)
        if incomplete:
            # every entailment would hold on zero models
            _emit(f"verdict: Unknown ({incomplete})\n", args.output)
            return 2
        lines = []
        bad = None
        for lhs, rhs in result.entailments:
            rep = entails_bounded(result.combined_sid, lhs, rhs, args.depth)
            lines.append(f"{lhs} |= {rhs}: "
                         f"{'HoldsUpToDepth' if rep.holds else 'Counterexample'}"
                         f"({args.depth})")
            if not rep.holds and bad is None:
                bad = rep
        text = "\n".join(lines)
        if bad is None:
            text += f"\nverdict: InvariantUpToDepth({args.depth})\n"
            _emit(text, args.output)
            return 0
        text += "\nverdict: Counterexample\n"
        text += render_config("counterexample", bad.counterexample.config) + "\n"
        _emit(text, args.output)
        return 1

    if args.command == "oracle":
        rep = havoc_invariant_bounded(sf.sid, args.pred, args.depth)
        lines = [f"models({args.pred}, depth={args.depth}): {rep.models}"]
        incomplete = _incomplete(sf, args.pred, args.depth)
        if incomplete:
            lines.append(f"direct: Unknown ({incomplete})")
        elif rep.invariant:
            lines.append(f"direct: InvariantUpToDepth({args.depth})")
        else:
            ce = rep.counterexample
            lines.append("direct: Counterexample")
            lines.append(render_config("model", ce.config))
            lines.append(f"fires {ce.interaction!r} reaching")
            lines.append(render_config("successor", ce.successor))
        try:
            result = _reduce(sf, args)
            # with no target, an empty right side says nothing, and with
            # no model neither side does
            unknown = incomplete if result.targets else "no target"
        except REFUSED as e:
            _refused(e)
            unknown = ("tightness gate" if isinstance(e, TightnessNotEstablished)
                       else "state atom gate")
        if unknown:
            lines.append(f"cross-validation: Unknown ({unknown})")
            _emit("\n".join(lines) + "\n", args.output)
            return 2 if rep.invariant else 1
        cross = cross_validate_reduction(sf.sid, args.pred, args.depth, result)
        lines.append(f"cross-validation: {'PASS' if cross.equal else 'FAIL'} "
                     f"(left={cross.left_size}, right={cross.right_size})")
        if not cross.equal:
            lines.append(f"left-only: {len(cross.left_only)}, "
                         f"right-only: {len(cross.right_only)}")
        _emit("\n".join(lines) + "\n", args.output)
        return 0 if rep.invariant and cross.equal else 1

    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
