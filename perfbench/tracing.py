"""Spans and counts at the public boundaries of each clhavoc module.

The tracer replaces each boundary function by a wrapper in every clhavoc
module that holds it, because callers look a name up in their own module
(`clhavoc.reduction.image`, `clhavoc.oracle.eval_bounded`).  A wrapper
records a span (name, start, end, parent span, instance) and counts derived
from the call's result.  Spans stay in memory; self time is a span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name, timed, result counters).  `prenex` is only
# counted: it is the hottest boundary and too small to time without
# distorting its callers.
BOUNDARIES = (
    ("frontend", "parse_system", "frontend.parse", True,
     (("frontend.rules", lambda r: len(r.sid.rules)),)),
    ("frontend", "render_system", "frontend.render", True, ()),
    ("analysis", "check_pcr", "analysis.check_pcr", True, ()),
    ("automata", "sid_to_ta", "automata.sid_to_ta", True,
     (("automata.ta_transitions", lambda r: len(r[0].transitions)),)),
    ("automata", "ta_trim", "automata.ta_trim", True,
     (("automata.trimmed_states", lambda r: len(r.states)),)),
    ("automata", "ta_to_sid", "automata.ta_to_sid", True,
     (("automata.derived_rules", lambda r: len(r.rules)),)),
    ("transducer", "image", "transducer.image", True,
     (("transducer.product_states", lambda r: len(r.automaton.states)),
      ("transducer.product_transitions", lambda r: len(r.automaton.transitions)))),
    ("transducer", "transducer_step", "transducer.step", True,
     (("transducer.step_emits", len),)),
    ("eqform", "EqFormula.make", "eqform.make", True, ()),
    ("reduction", "reduce_havoc_to_entailment", "reduction.reduce", True,
     (("reduction.targets", lambda r: len(r.targets)),)),
    ("reduction", "class_equiv", "reduction.class_equiv", True, ()),
    ("logic", "unfold_formula", "logic.unfold", True,
     (("logic.unfoldings", len),
      ("logic.unfoldings_complete", lambda r: sum(1 for _, done in r if done)))),
    ("logic", "prenex", "logic.prenex", False, ()),
    ("logic", "eval_bounded", "logic.eval_bounded", True, ()),
    ("logic", "eval_pf", "logic.eval_pf", True, ()),
    ("oracle", "enumerate_models", "oracle.enumerate_models", True,
     (("oracle.models", len),)),
    ("oracle", "canonical_model", "oracle.canonical_model", True, ()),
    ("oracle", "havoc_invariant_bounded", "oracle.havoc", True, ()),
    ("oracle", "entails_bounded", "oracle.entails", True, ()),
    ("oracle", "cross_validate_reduction", "oracle.xval", True,
     (("oracle.xval_left", lambda r: r.left_size),
      ("oracle.xval_right", lambda r: r.right_size))),
    ("core", "step", "core.step", True, (("core.step_successors", len),)),
)

LAYERS = ("frontend", "analysis", "automata", "transducer", "eqform",
          "reduction", "logic", "oracle", "core")


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.instance: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _timed(self, fn, name, counters):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.instance)
            counts[name + "_calls"] += 1
            for key, measure in counters:
                counts[key] += measure(result)
            return result
        return traced

    def _counted(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name + "_calls"] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if n == "clhavoc" or n.startswith("clhavoc.")]
        for modname, attr, name, timed, counters in BOUNDARIES:
            module = importlib.import_module("clhavoc." + modname)
            cls_name, _, attr = attr.rpartition(".")
            if cls_name:  # a static method: callers look it up on the class
                cls = getattr(module, cls_name)
                fn, owners, box = cls.__dict__[attr].__func__, [cls], staticmethod
            else:
                fn, box = getattr(module, attr), (lambda f: f)
                owners = [m for m in modules if m.__dict__.get(attr) is fn]
            wrapped = box(self._timed(fn, name, counters) if timed else self._counted(fn, name))
            for owner in owners:
                self._patch(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return dict(out)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    selfs = tracer.self_times()
    counts = tracer.counts
    metrics: dict[str, float] = {}
    for _, _, name, timed, counters in BOUNDARIES:
        metrics[name + "_calls"] = counts[name + "_calls"]
        if timed:
            metrics[name + "_s"] = selfs.get(name, 0.0)
        for key, _ in counters:
            metrics[key] = counts[key]
    product = counts["transducer.product_states"]
    metrics["automata.trim_kept_ratio"] = (
        counts["automata.trimmed_states"] / product if product else 0.0)
    covered = sum(selfs.values())
    for layer in LAYERS:
        own = sum(t for n, t in selfs.items() if n.split(".")[0] == layer)
        metrics[layer + ".self_share"] = own / covered if covered else 0.0
    return metrics


def is_count(name: str) -> bool:
    """Count metrics must repeat exactly between traced passes of one seed."""
    return not (name.endswith("_s") or name.endswith("_ratio")
                or name.endswith("_share"))
