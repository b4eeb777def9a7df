"""Instances of the three benchmark workloads, their seeded renaming and known answers.

An instance is one `.clsys` text plus a predicate and a depth; every
instance is reduced with assume-tight.  Its four verdicts (check, direct,
cross-validation, class equivalence) are fixed here from the construction of
the input, never from the program's output.

Every pass of a run uses fresh instance texts: the seed picks the instance
order and, per instance, a tag of lowercase letters that is prefixed to every
identifier of the text (predicates, variables, states, ports, config and
component names).  A common prefix keeps every sorted order of these names,
so each seed and pass does the same work, while no two texts of a run are
equal and a cache keyed on SID values cannot carry work between instances.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs"

# Words the `.clsys` parser reads as syntax; every other identifier is a name.
KEYWORDS = frozenset({"behavior", "comp", "comps", "config", "emp", "entail",
                      "exists", "inters", "invariant", "max", "ports", "query",
                      "sid", "state", "states", "trans"})
IDENT = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*")
TAG_LETTERS = 6

# ring-family: the token ring with budgets h, t = 0..k.
FAMILY_KS = (2, 3, 4, 5)
# tree-mix: a PCR ring anchored at a fixed H component; firing its first
# interaction moves the anchor's token and leaves the predicate.
ANCHORED_RULE = ("  Anchored(x) <- exists y, z . comp(x : H) * <x.out, z.in> * "
                 "<y.out, x.in> * Chain_1_1(z, y);\n")

INVARIANT = {"check": "invariant", "direct": "invariant",
             "xval": "equal", "class": "equivalent"}
COUNTEREXAMPLE = {"check": "counterexample", "direct": "counterexample",
                  "xval": "equal", "class": "equivalent"}

# Why each expected verdict holds.  Cross-validation is equal by the
# reduction's exactness for tight SIDs, and class equivalence holds because
# derived rules are source rules up to state atoms and equalities.
REASONS = {
    "ring": "every interaction swaps one T/H pair, so the number of H and of "
            "T components is preserved and the successor is again a ring with "
            "the same budgets",
    "tree": "every interaction swaps one q1/q0 pair, so the state counts of "
            "the linked leaves are preserved",
    "bad": "firing <x.out, y.in> leaves x in H and y in T, which TH forbids",
    "anchored": "firing <x.out, z.in> moves the anchor x from H to T",
}

# Cross-validations that mismatch at this commit because the transducer
# cannot rewrite a bare `comp(x)` (ROADMAP item 4).  Their derived side is
# missing successors but adds none, so they are counted as failed operations
# and not as wrong outputs; any other mismatch is a wrong output.
BARE_COMP_GAPS = frozenset({"ring.Ring_0_0@8", "chain.Chain_1_1@6",
                            "tll_pcr.Root@4", "pcring.PcRing_0_0@5",
                            "pcring.PcRing_1_1@5", "anchored.Anchored@6"})


@dataclass(frozen=True)
class Spec:
    """One instance before renaming; every instance is reduced with assume-tight."""
    name: str
    text: str
    pred: str
    depth: int
    expect: dict
    reason: str


@dataclass(frozen=True)
class Instance:
    """One renamed instance of a pass; `tag` prefixes every name in `text`."""
    spec: Spec
    tag: str
    text: str

    @property
    def pred(self) -> str:
        return self.tag + self.spec.pred


def _read(name: str) -> str:
    return (INPUTS / name).read_text(encoding="utf-8")


def ring_family_text(k: int) -> str:
    """`ring.clsys` with the budget ranges widened from 0..1 to 0..k."""
    return _read("ring.clsys").replace("=0..1", f"=0..{k}")


def anchored_text() -> str:
    """`pcring.clsys` plus the `Anchored` rule at the end of its sid block."""
    text = _read("pcring.clsys")
    end = text.rindex("}")
    return text[:end] + ANCHORED_RULE + text[end:]


def _spec(source: str, text: str, pred: str, depth: int, reason: str,
          invariant: bool = True) -> Spec:
    return Spec(f"{source}.{pred}@{depth}", text, pred, depth,
                INVARIANT if invariant else COUNTEREXAMPLE, REASONS[reason])


def workload_specs(workload: str) -> tuple[Spec, ...]:
    """The instances of one workload, in their unpermuted order."""
    if workload == "ring-deep":
        ring = _read("ring.clsys")
        return (_spec("ring", ring, "Ring_0_0", 8, "ring"),
                _spec("ring", ring, "Ring_1_1", 8, "ring"),
                _spec("chain", _read("chain.clsys"), "Chain_1_1", 6, "ring"))
    if workload == "ring-family":
        return tuple(_spec(f"ring{k}", ring_family_text(k), f"Ring_{k}_{k}", 3, "ring")
                     for k in FAMILY_KS)
    if workload == "tree-mix":
        pcring = _read("pcring.clsys")
        return (_spec("tll", _read("tll.clsys"), "Root", 4, "tree"),
                _spec("tll_pcr", _read("tll_pcr.clsys"), "Root", 4, "tree"),
                _spec("pcring", pcring, "PcRing_0_0", 5, "ring"),
                _spec("pcring", pcring, "PcRing_1_1", 5, "ring"),
                _spec("bad", _read("bad.clsys"), "TH", 3, "bad", invariant=False),
                _spec("anchored", anchored_text(), "Anchored", 6, "anchored",
                      invariant=False))
    raise KeyError(workload)


WORKLOADS = ("ring-deep", "ring-family", "tree-mix")


def rename(text: str, tag: str) -> str:
    """Prefix every non-keyword identifier of a `.clsys` text with `tag`."""
    return IDENT.sub(lambda m: m[0] if m[0] in KEYWORDS else tag + m[0], text)


def unrename(text: str, tag: str) -> str:
    """Undo `rename` on program output, so digests do not depend on the seed."""
    return re.sub(r"\b" + tag, "", text)


def passes(workload: str, seed: int):
    """Endless iterator of passes; each pass is every instance, freshly renamed.

    The same workload and seed give the same sequence of texts.
    """
    specs = workload_specs(workload)
    rng = random.Random(f"{workload}/{seed}")
    used: set[str] = set()

    def fresh_tag() -> str:
        while True:
            tag = "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=TAG_LETTERS))
            if tag not in used:
                used.add(tag)
                return tag

    while True:
        batch = []
        for spec in rng.sample(specs, len(specs)):
            tag = fresh_tag()
            batch.append(Instance(spec, tag, rename(spec.text, tag)))
        yield batch
