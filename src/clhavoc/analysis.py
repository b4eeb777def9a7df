"""Syntactic SID analyses: profile fixpoint, PCR restrictions, size metrics.

The progressing check accepts state atoms attached to the allocated first
parameter (the component-in-state shorthand) and compares the passed-variable
equation modulo the equalities that tie variables to the first parameter, so
that base rules written with a repeated head parameter classify the same way
as their normalized form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eqform import Partition
from .logic import Inter, SID, StateAtom, atom_vars, split_atoms, var_text


def formula_size(binders, atoms) -> int:
    """Number of symbol occurrences needed to write `exists binders . *atoms`
    down.  An atom counts its symbol, its variables and the ports of an
    interaction or the state of a state atom; no atoms is `emp`, and a `*`
    joins two atoms."""
    body = sum(1 + len(atom_vars(a)) + (len(a.bindings) if isinstance(a, Inter)
                                        else int(isinstance(a, StateAtom)))
               for a in atoms)
    body += len(atoms) - 1 if atoms else 1
    return 1 + len(binders) + body if binders else body


def sid_metrics(sid: SID) -> tuple[int, int, int, int]:
    """(size, maxarity, maxinter, maxpreds), with max over the empty set = 0."""
    size = sum(formula_size(r.binders, r.atoms) + len(r.params) + 1 for r in sid.rules)
    maxarity = max((len(r.params) for r in sid.rules), default=0)
    maxinter = 0
    maxpreds = 0
    for r in sid.rules:
        for a in r.atoms:
            if isinstance(a, Inter):
                maxinter = max(maxinter, len(a.bindings))
        maxpreds = max(maxpreds, len(r.calls))
    return size, maxarity, maxinter, maxpreds


def profile(sid: SID) -> dict[str, frozenset[int]]:
    """Greatest fixpoint of the parameter-propagation constraint.

    Position i survives in profile(B) only if every occurrence of B in a rule
    body passes a caller-profile parameter at position i.
    """
    prof: dict[str, set[int]] = {p: set(range(1, sid.arity(p) + 1))
                                 for p in sid.predicates}
    changed = True
    while changed:
        changed = False
        for rule in sid.rules:
            params = rule.params
            for atom in rule.preds:
                for i in sorted(prof[atom.name]):
                    y = atom.args[i - 1]
                    if not any(params[j - 1] == y for j in prof[rule.head]):
                        prof[atom.name].discard(i)
                        changed = True
    return {p: frozenset(s) for p, s in prof.items()}


@dataclass(frozen=True)
class RulePcr:
    head: str
    index: int
    progressing: bool
    connected: bool
    erestricted: bool
    reasons: tuple[str, ...]

    @property
    def pcr(self) -> bool:
        return self.progressing and self.connected and self.erestricted


@dataclass(frozen=True)
class PcrReport:
    rules: tuple[RulePcr, ...]

    @property
    def progressing(self) -> bool:
        return all(r.progressing for r in self.rules)

    @property
    def connected(self) -> bool:
        return all(r.connected for r in self.rules)

    @property
    def erestricted(self) -> bool:
        return all(r.erestricted for r in self.rules)

    @property
    def sid_pcr(self) -> bool:
        return all(r.pcr for r in self.rules)


def check_pcr(sid: SID) -> PcrReport:
    """Per-rule progressing / connected / e-restricted classification."""
    prof = profile(sid)
    rows = []
    for idx, rule in enumerate(sid.rules):
        preds = rule.preds
        comps, inters, states, eqs, neqs = split_atoms(rule.pf_atoms)
        reasons: list[str] = []

        progressing = True
        if not rule.params:
            progressing = False
            reasons.append("P: no parameters, so no allocated comp(x1)")
        else:
            x1 = rule.params[0]
            if len(comps) != 1 or comps[0] != x1:
                progressing = False
                reasons.append("P: body must allocate exactly comp(x1)")
            if any(a.var != x1 for a in states):
                progressing = False
                reasons.append("P: state atom on a variable other than x1")
            if progressing:
                roots = Partition([x1], eqs).roots()
                cls = {v for v, r in roots.items() if r == roots[x1]}
                zvars = {z for pa in preds for z in pa.args}
                rhs = set(rule.params[1:]) | set(rule.binders)
                if zvars - cls != rhs - cls:
                    progressing = False
                    only_rhs = sorted(var_text(v) for v in (rhs - cls) - zvars)
                    only_z = sorted(var_text(v) for v in (zvars - cls) - rhs)
                    reasons.append("P: passed variables differ from parameters+existentials"
                                   f" (unpassed={only_rhs}, stray={only_z})")

        anchors = set()
        if rule.params:
            anchors.add(rule.params[0])
            anchors |= {rule.params[i - 1] for i in prof[rule.head]}
        connected = True
        for l, pa in enumerate(preds, start=1):
            if not pa.args:
                connected = False
                reasons.append(f"C: predicate atom #{l} has no first argument")
                continue
            z1 = pa.args[0]
            if not any(z1 in {v for v, _ in it.bindings}
                       and anchors & {v for v, _ in it.bindings} for it in inters):
                connected = False
                reasons.append(f"C: no interaction atom links predicate atom #{l}'s "
                               "first argument to x1 or a profile parameter")

        profparams = {rule.params[i - 1] for i in prof[rule.head]} if rule.params else set()
        erestricted = True
        for x, y in neqs:
            if not ({x, y} & profparams):
                erestricted = False
                reasons.append(f"R: disequality {var_text(x)} != {var_text(y)} "
                               "avoids all profile parameters")

        rows.append(RulePcr(rule.head, idx, progressing, connected, erestricted,
                            tuple(reasons)))
    return PcrReport(tuple(rows))


def render_pcr_table(sid: SID, report: PcrReport) -> str:
    """Stable text table: one row per rule plus profile and metrics lines."""
    prof = profile(sid)
    lines = ["rule  head                 P C R"]
    for row in report.rules:
        flags = " ".join("y" if b else "n"
                         for b in (row.progressing, row.connected, row.erestricted))
        lines.append(f"{row.index:<5} {row.head:<20} {flags}")
        for reason in row.reasons:
            lines.append(f"      - {reason}")
    lines.append(f"sid: progressing={'y' if report.progressing else 'n'} "
                 f"connected={'y' if report.connected else 'n'} "
                 f"e-restricted={'y' if report.erestricted else 'n'} "
                 f"pcr={'y' if report.sid_pcr else 'n'}")
    for p in sid.predicates:
        members = ",".join(map(str, sorted(prof[p]))) or "-"
        lines.append(f"profile {p}: {{{members}}}")
    size, maxarity, maxinter, maxpreds = sid_metrics(sid)
    lines.append(f"metrics: size={size} maxarity={maxarity} "
                 f"maxinter={maxinter} maxpreds={maxpreds}")
    return "\n".join(lines) + "\n"
