"""One instance through the calls `clhavoc check` and `clhavoc oracle` make.

The check part is parse, reduce, render the reduced system and bounded
entailment on every target; the validate part is the direct bounded check,
cross-validation of the reduction and class equivalence of source and
derived SIDs.  Library calls go through their module attributes, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from clhavoc import frontend, oracle, reduction

from workloads import BARE_COMP_GAPS, Instance, Spec, unrename

OPS = ("check", "direct", "xval", "class")


@dataclass
class Outcome:
    """Verdicts, timings and output digests of one instance."""
    spec: Spec
    check_s: float = 0.0
    validate_s: float = 0.0
    verdicts: dict = field(default_factory=dict)
    xval_sizes: tuple | None = None
    digests: dict = field(default_factory=dict)
    # Factors from measured seconds to seconds at hostspeed.REFERENCE_S.
    check_scale: float = 1.0
    validate_scale: float = 1.0

    def failed_ops(self) -> list[str]:
        return [op for op in OPS if self.verdicts.get(op) != self.spec.expect[op]]

    def wrong_ops(self) -> list[str]:
        """Failed operations not explained by a known bare-comp gap."""
        return [op for op in self.failed_ops()
                if not (op == "xval" and self.spec.name in BARE_COMP_GAPS
                        and self.verdicts.get(op) == "under")]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_instance(inst: Instance, between=lambda: None) -> Outcome:
    """Run both parts; an operation that raises is recorded, not propagated.

    `between` is called after the check part and before the validate part,
    outside both timings.
    """
    spec = inst.spec
    out = Outcome(spec)
    sf = result = None
    t0 = time.perf_counter()
    try:
        sf = frontend.parse_system(inst.text)
        result = reduction.reduce_havoc_to_entailment(sf.sid, inst.pred, assume_tight=True)
        queries = [frontend.Query("entail", lhs, rhs) for lhs, rhs in result.entailments]
        reduced = frontend.render_system(
            frontend.SystemFile(sf.behavior, result.combined_sid, {}, queries))
        holds = [oracle.entails_bounded(result.combined_sid, lhs, rhs, spec.depth).holds
                 for lhs, rhs in result.entailments]
        out.verdicts["check"] = "invariant" if all(holds) else "counterexample"
    except Exception as e:  # a failed verdict is counted, the run goes on
        out.verdicts["check"] = f"error: {type(e).__name__}: {e}"
    check_end = time.perf_counter()
    between()
    t1 = time.perf_counter()
    if sf is not None:
        try:
            rep = oracle.havoc_invariant_bounded(sf.sid, inst.pred, spec.depth)
            out.verdicts["direct"] = "invariant" if rep.invariant else "counterexample"
        except Exception as e:
            out.verdicts["direct"] = f"error: {type(e).__name__}: {e}"
    if result is not None:
        try:
            cross = oracle.cross_validate_reduction(sf.sid, inst.pred, spec.depth, result)
            out.xval_sizes = (cross.left_size, cross.right_size)
            out.verdicts["xval"] = ("equal" if cross.equal else
                                    "under" if not cross.right_only else "mismatch")
        except Exception as e:
            out.verdicts["xval"] = f"error: {type(e).__name__}: {e}"
        try:
            out.verdicts["class"] = reduction.class_equiv(sf.sid, result.derived_sid).verdict
        except Exception as e:
            out.verdicts["class"] = f"error: {type(e).__name__}: {e}"
    t2 = time.perf_counter()
    out.check_s, out.validate_s = check_end - t0, t2 - t1
    if result is not None and not out.verdicts["check"].startswith("error"):
        manifest = json.dumps(reduction.manifest_dict(result), sort_keys=True)
        out.digests = {"reduced": _digest(unrename(reduced, inst.tag)),
                       "manifest": _digest(unrename(manifest, inst.tag))}
    return out
