"""End-to-end reduction of havoc invariance to entailment instances.

The pipeline translates the SID into its rule automaton, computes the useful
part of its image under the union of the interaction-typed transducers, and
translates it back.  Each accepting product state yields one target
predicate of the same arity as the checked predicate; havoc invariance
holds iff every emitted entailment `target |= predicate` holds over the
combined definitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import check_pcr
from .automata import sid_to_ta, ta_to_sid
from .eqform import Partition
from .logic import Comp, Pred, Rule, SID, var_text
from .transducer import InteractionType, ProductState, image


class TightnessNotEstablished(RuntimeError):
    """The reduction precondition has no PCR proof and no explicit waiver."""


class UnallocatedStateAtom(RuntimeError):
    """A rule pins the state of a variable that has no component atom in the
    same body.  The transducer rewrites a state atom only together with the
    component atom of its variable, so such a pin would keep the old state."""


def check_state_atoms(sid: SID) -> None:
    """Raise UnallocatedStateAtom for the first rule with a state atom on a
    variable that no component atom of the same body allocates."""
    for rule in sid.rules:
        comps = {slots[0] for kind, slots, _ in rule.skeleton[2] if kind is Comp}
        for i, _ in rule.state_slots:
            if i not in comps:
                k = sid.rules_of(rule.head).index(rule) + 1
                raise UnallocatedStateAtom(
                    f"rule {k} of {rule.head} has a state atom on "
                    f"{var_text((rule.params + rule.binders)[i])}, "
                    "which has no comp atom in the same body; the reduction "
                    "rewrites a state only with its component")


def _type_text(tau: InteractionType) -> str:
    """An interaction type as the manifest prints it: `(out,in)`."""
    return "(" + ",".join(tau) + ")"


@dataclass
class ReductionResult:
    predicate: str
    base_sid: SID
    derived_sid: SID
    targets: tuple[str, ...]
    entailments: tuple[tuple[str, str], ...]
    combined_sid: SID
    tightness: str
    state_names: dict[ProductState, str]
    stats: dict
    witnesses: dict
    # the text of each distinct state partition, by its classes
    partition_texts: dict[frozenset, str]


def reduce_havoc_to_entailment(sid: SID, pred: str,
                               assume_tight: bool = False) -> ReductionResult:
    """Build the derived SID and the entailment instances for one predicate.

    Tightness of the predicate is the semantic precondition; the only
    automatic proof is the PCR check.  Callers may assert tightness
    explicitly, which is recorded in the result.  A state atom on a variable
    its rule does not allocate is refused (see `check_state_atoms`).
    """
    if pred not in sid.predicates:
        raise KeyError(f"unknown predicate {pred!r}")
    check_state_atoms(sid)
    report = check_pcr(sid)
    if report.sid_pcr:
        tightness = "pcr"
    elif assume_tight:
        tightness = "assumed"
    else:
        raise TightnessNotEstablished(
            f"SID is not PCR, so tightness of {pred} is unproven; "
            "pass assume_tight to proceed")

    ta, _ = sid_to_ta(sid)
    info = image(ta, pred, sid)
    trimmed = info.automaton
    # many states share a partition: each distinct one is rendered once
    texts: dict[frozenset, str] = {}

    def state_key(s: ProductState) -> tuple:
        text = texts.get(s.phi.classes)
        if text is None:
            text = texts[s.phi.classes] = s.phi.render(var_text)
        return (s.tau, str(s.base), text)

    ordered = sorted(trimmed.states, key=state_key)
    taken = set(sid.predicates)
    names: dict[ProductState, str] = {}
    for idx, s in enumerate(ordered, start=1):
        name = f"{s.base}__h{idx}"
        while name in taken:
            name += "_"
        taken.add(name)
        names[s] = name

    derived = ta_to_sid(trimmed, sid.behavior, lambda s: names[s])
    targets = tuple(sorted(names[s] for s in trimmed.finals))
    for t in targets:
        assert derived.arity(t) == sid.arity(pred)
    combined = sid.extend(derived.rules)
    entailments = tuple((t, pred) for t in targets)
    stats = {
        # image steps every interaction type of the SID and counts each one's states
        "interaction_types": [_type_text(tau) for tau in sorted(info.per_tau_states)],
        "product_states": len(trimmed.states),
        "product_transitions": len(trimmed.transitions),
        "product_alphabet": len(trimmed.alphabet),
        "targets": len(targets),
        "per_type_states": {_type_text(t): n for t, n in sorted(info.per_tau_states.items())},
    }
    return ReductionResult(pred, sid, derived, targets, entailments, combined,
                           tightness, names, stats, info.witnesses, texts)


def manifest_dict(result: ReductionResult) -> dict:
    """Plain-data report for the manifest file; fully deterministic."""
    return {
        "predicate": result.predicate,
        "tightness": result.tightness,
        "targets": list(result.targets),
        "entailments": [f"{a} |= {b}" for a, b in result.entailments],
        "states": {name: {"base": str(s.base),
                          "type": _type_text(s.tau),
                          "partition": result.partition_texts[s.phi.classes]}
                   for s, name in sorted(result.state_names.items(),
                                         key=lambda kv: kv[1])},
        "stats": result.stats,
    }


# ---------------------------------------------------------------------------
# class equivalence (rule-wise body equality modulo state atoms)

@dataclass
class ClassEquivResult:
    verdict: str  # "equivalent" | "inequivalent"
    pairing: list[tuple[int, int]] | None
    relation: list[tuple[str, str]] | None


def _rule_key(rule: Rule) -> tuple:
    """The rule's positional key (`Rule.skeleton`) with its calls moved
    last: the two counts, each non-call entry in body order, then each
    call's argument positions.  State atoms and predicate names are left
    out."""
    nparams, nbinders, body = rule.skeleton
    atoms, calls = [], []
    for entry in body:
        if entry[0] is Pred:
            calls.append(entry[1])
        else:
            atoms.append(entry)
    return nparams, nbinders, tuple(atoms), tuple(calls)


def class_equiv(d1: SID, d2: SID) -> ClassEquivResult:
    """Decide Def.-class equivalence by pairing rules with equal keys.

    Each rule pairs with the first rule of the other SID whose body is equal
    to its own up to state atoms and predicate names: the same atoms in the
    same order, parameters and binders numbered by position.  The key
    (`_rule_key`) is read off the skeleton the rule stored when it was
    built: tuples of atom kinds, variable positions and ports, so no atom is
    rebuilt or hashed.
    The pairs unite their heads and calls position by position into the
    class relation.  Equality is syntactic, so atoms written in
    another order do not pair; a derived rule is its source rule with other
    state atoms and predicate names (`ta_to_sid` inverts `sid_to_ta`), so
    the reduction's output always pairs with its source.
    """
    keys1 = [_rule_key(r) for r in d1.rules]
    keys2 = [_rule_key(r) for r in d2.rules]
    first1: dict[tuple, int] = {}
    first2: dict[tuple, int] = {}
    for i, k in enumerate(keys1):
        first1.setdefault(k, i)
    for j, k in enumerate(keys2):
        first2.setdefault(k, j)
    if any(k not in first2 for k in keys1) or any(k not in first1 for k in keys2):
        return ClassEquivResult("inequivalent", None, None)

    part = Partition([("1", p) for p in d1.predicates] + [("2", p) for p in d2.predicates])
    pairing = [(i, first2[k]) for i, k in enumerate(keys1)]
    # each rule's head and call names, read once; the keys are equal, so
    # two paired rules have as many calls.  A repeated pair of name tuples
    # unites classes that are already one, so each is united once
    names1 = [(r.head, *(r.atoms[i].name for i in r.calls)) for r in d1.rules]
    names2 = [(r.head, *(r.atoms[i].name for i in r.calls)) for r in d2.rules]
    united = dict.fromkeys([("1", n, "2", names2[first2[k]]) for n, k in zip(names1, keys1)]
                           + [("2", n, "1", names1[first1[k]]) for n, k in zip(names2, keys2)])
    for side1, own, side2, other in united:
        for p1, p2 in zip(own, other):
            part.union((side1, p1), (side2, p2))
    rel = sorted({(x[1], part.items[r][1])
                  for x, r in part.roots().items() if part.items[r] != x})
    return ClassEquivResult("equivalent", pairing, rel)
