"""End-to-end reduction of havoc invariance to entailment instances.

The pipeline translates the SID into its rule automaton, computes the image
under the union of the interaction-typed transducers, trims, and translates
back.  Each accepting product state yields one target predicate of the same
arity as the checked predicate; havoc invariance holds iff every emitted
entailment `target |= predicate` holds over the combined definitions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .analysis import check_pcr
from .automata import sid_to_ta, ta_to_sid, ta_trim
from .eqform import Partition
from .logic import (Comp, Eq, Inter, Neq, Rule, SID, StateAtom, Var, atom_vars,
                    substitute, var_text)
from .transducer import ProductState, image, interaction_types


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
        comps = {a.var for a in rule.atoms if isinstance(a, Comp)}
        for a in rule.atoms:
            if isinstance(a, StateAtom) and a.var not in comps:
                k = sid.rules_of(rule.head).index(rule) + 1
                raise UnallocatedStateAtom(
                    f"rule {k} of {rule.head} has a state atom on "
                    f"{var_text(rule.written_name(a.var))}, "
                    "which has no comp atom in the same body; the reduction "
                    "rewrites a state only with its component")


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
    info = image(ta, pred, sid, sid.behavior)
    trimmed = ta_trim(info.automaton)

    def state_key(s: ProductState) -> tuple:
        return (s.tau, str(s.base), s.phi.render(var_text))

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
        "interaction_types": ["(" + ",".join(tau) + ")" for tau in
                              sorted(interaction_types(sid))],
        "product_states": len(trimmed.states),
        "product_transitions": len(trimmed.transitions),
        "product_alphabet": len(trimmed.alphabet),
        "targets": len(targets),
        "per_type_states": {"(" + ",".join(t) + ")": n
                            for t, n in sorted(info.per_tau_states.items())},
    }
    return ReductionResult(pred, sid, derived, targets, entailments, combined,
                           tightness, names, stats, info.witnesses)


def manifest_dict(result: ReductionResult) -> dict:
    """Plain-data report for the manifest file; fully deterministic."""
    return {
        "predicate": result.predicate,
        "tightness": result.tightness,
        "targets": list(result.targets),
        "entailments": [f"{a} |= {b}" for a, b in result.entailments],
        "states": {name: {"base": str(s.base),
                          "type": "(" + ",".join(s.tau) + ")",
                          "partition": s.phi.render(var_text)}
                   for s, name in sorted(result.state_names.items(),
                                         key=lambda kv: kv[1])},
        "stats": result.stats,
    }


# ---------------------------------------------------------------------------
# class equivalence (rule-wise body equivalence modulo state atoms)

def _norm_body(rule: Rule):
    pmap = {p: Var(f"x{i}") for i, p in enumerate(rule.params, start=1)}
    qpf = [substitute(a, pmap) for a in rule.pf_atoms if not isinstance(a, StateAtom)]
    eqs = [a for a in qpf if isinstance(a, Eq)]
    rest = [a for a in qpf if not isinstance(a, Eq)]

    # collapse existentials through equalities; free variables are kept
    bset = set(rule.binders)
    rep: dict[Var, Var] = {}
    canon_eqs: list[tuple[Var, Var]] = []
    for c in Partition(pairs=[(a.left, a.right) for a in eqs]).classes():
        freevs = sorted(v for v in c if v not in bset)
        r = freevs[0] if freevs else min(c)
        for w in c:
            rep[w] = r
        for w in freevs[1:]:
            canon_eqs.append((r, w))

    out_atoms = []
    for a in rest:
        a = substitute(a, rep)
        out_atoms.append(Neq(*sorted((a.left, a.right))) if isinstance(a, Neq) else a)
    out_atoms.extend(Eq(x, y) for x, y in sorted(canon_eqs))
    live = {v for a in out_atoms for v in atom_vars(a)}
    kept_binders = tuple(sorted({rep.get(b, b) for b in rule.binders} & live & bset))
    pred_heads = tuple((p.name, len(p.args)) for p in rule.preds)
    return kept_binders, tuple(out_atoms), pred_heads


def _atoms_match(atoms1, atoms2, binders1, binders2) -> bool:
    """Multiset equality of atom lists under a bijection of the binders."""
    if len(atoms1) != len(atoms2):
        return False
    if len(binders1) != len(binders2):
        return False
    return _match(0, atoms1, atoms2, set(binders1), set(binders2), set(), {}, {})


def _match(i: int, atoms1, atoms2, bset1: set[Var], bset2: set[Var],
           used: set[int], bij: dict[Var, Var], inv: dict[Var, Var]) -> bool:
    """Match atoms1[i:] into the unused atoms2, extending the bijection."""
    if i == len(atoms1):
        return True
    a = atoms1[i]
    for j, b in enumerate(atoms2):
        if j in used or type(a) is not type(b):
            continue
        pairs = _var_pairs(a, b)
        if pairs is None:
            continue
        added = []
        ok = True
        for x, y in pairs:
            bx, by = x in bset1, y in bset2
            if bx != by:
                ok = False
                break
            if not bx:
                if x != y:
                    ok = False
                    break
                continue
            if bij.get(x, y) != y or inv.get(y, x) != x:
                ok = False
                break
            if x not in bij:
                bij[x] = y
                inv[y] = x
                added.append((x, y))
        if ok and _match(i + 1, atoms1, atoms2, bset1, bset2, used | {j}, bij, inv):
            return True
        for x, y in added:
            del bij[x]
            del inv[y]
    return False


def _var_pairs(a, b):
    """Positional variable pairs of two atoms of one kind; None if they are
    interaction atoms over different ports."""
    if isinstance(a, Inter) and [p for _, p in a.bindings] != [p for _, p in b.bindings]:
        return None
    return list(zip(atom_vars(a), atom_vars(b)))


def _solve(k: int, all_c: list[list[int]], n1: int, heads1, heads2,
           arity: dict, part: Partition, pairing: list[tuple[int, int]],
           steps: Iterator[int]) -> bool:
    """Choose a candidate for rule k onwards (the first n1 rules of all_c are
    d1's), uniting the paired predicates in part; raises TimeoutError after
    200000 steps."""
    if next(steps) > 200000:
        raise TimeoutError
    if k == len(all_c):
        return True
    saved = part.parent[:]
    if k < n1:
        side1, side2, own, other = "1", "2", heads1[k], heads2
    else:
        side1, side2, own, other = "2", "1", heads2[k - n1], heads1
    for j in all_c[k]:
        ok = True
        for p1, p2 in zip(own, other[j]):
            # each class keeps one arity, so comparing the two predicates
            # compares their classes
            x, y = (side1, p1), (side2, p2)
            if arity[x] != arity[y]:
                ok = False
                break
            part.union(x, y)
        if ok:
            if k < n1:
                pairing.append((k, j))
            if _solve(k + 1, all_c, n1, heads1, heads2, arity, part, pairing, steps):
                return True
            if k < n1:
                pairing.pop()
        part.parent[:] = saved
    return False


@dataclass
class ClassEquivResult:
    verdict: str  # "equivalent" | "inequivalent" | "unknown"
    pairing: list[tuple[int, int]] | None
    relation: list[tuple[str, str]] | None


def class_equiv(d1: SID, d2: SID) -> ClassEquivResult:
    """Decide Def.-class equivalence by canonical rule matching.

    Searches a rule pairing in both directions together with an
    arity-preserving predicate correspondence; complete for SIDs whose rule
    bodies differ by state renaming plus equalities on quantified variables,
    which covers everything the reduction emits.
    """
    # rules share few distinct normalised bodies: number each (binders,
    # atoms) pair once and match each pair of numbers once
    body_ids: dict[tuple, int] = {}
    matches: dict[tuple[int, int], bool] = {}

    def norms(sid: SID) -> tuple[list, dict[tuple, list[int]]]:
        out, by_shape = [], {}
        for j, r in enumerate(sid.rules):
            b, a, ph = _norm_body(r)
            shape = (len(r.params), tuple(n for _, n in ph))
            out.append((b, a, ph, body_ids.setdefault((b, a), len(body_ids)), shape))
            # only rules of one shape (parameter count, head arities) can
            # pair; each shape lists its rules in ascending order
            by_shape.setdefault(shape, []).append(j)
        return out, by_shape

    (norm1, shapes1), (norm2, shapes2) = norms(d1), norms(d2)

    def rule_candidates(i: int, norms1, norms2, shapes) -> list[int]:
        b1, a1, _, id1, shape1 = norms1[i]
        out = []
        for j in shapes.get(shape1, ()):
            b2, a2, _, id2, _ = norms2[j]
            if (id1, id2) not in matches:
                matches[id1, id2] = _atoms_match(a1, a2, b1, b2)
            if matches[id1, id2]:
                out.append(j)
        return out

    cand1 = [rule_candidates(i, norm1, norm2, shapes2) for i in range(len(d1.rules))]
    cand2 = [rule_candidates(j, norm2, norm1, shapes1) for j in range(len(d2.rules))]
    if any(not c for c in cand1) or any(not c for c in cand2):
        return ClassEquivResult("inequivalent", None, None)

    arity = {}
    for sid, side in ((d1, "1"), (d2, "2")):
        for p in sid.predicates:
            arity[(side, p)] = sid.arity(p)

    # every predicate is registered now (SIDs reject undefined ones), so a
    # snapshot of the parent slots restores the partition exactly
    part = Partition(arity)

    # each rule's head, then its predicate atoms: paired position by position
    # with a candidate's, they are the constraints of choosing it
    def heads(sid: SID, norms) -> list[tuple[str, ...]]:
        return [(r.head, *(p for p, _ in ph)) for r, (_, _, ph, _, _) in zip(sid.rules, norms)]

    pairing: list[tuple[int, int]] = []
    try:
        if _solve(0, cand1 + cand2, len(cand1), heads(d1, norm1), heads(d2, norm2),
                  arity, part, pairing, itertools.count(1)):
            rel = sorted({(str(x[1]), str(part.items[r][1]))
                          for x, r in part.roots().items() if part.items[r] != x})
            return ClassEquivResult("equivalent", list(pairing), rel)
        return ClassEquivResult("inequivalent", None, None)
    except TimeoutError:
        return ClassEquivResult("unknown", None, None)
