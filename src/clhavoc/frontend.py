"""Concrete syntax for systems: behavior, inductive definitions, configs, queries.

One `.clsys` file fixes the behavior and everything interpreted against it.
Indexed rule families are expanded at parse time: binders in a head such as
`Chain[h=0..2, t=0..2]` range over their intervals, and index expressions in
body atoms (`Chain[max(h-1,0), t]`) are evaluated per instance, producing
plain predicates named `Chain_0_1` and so on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, TypeVar

from .core import Behavior, Configuration, Interaction
from .logic import (Atom, Comp, Eq, Inter, Neq, Pred, Rule, SID, StateAtom,
                    Var, atom_text)


T = TypeVar("T")


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Query:
    kind: str  # "entail" | "invariant"
    lhs: str
    rhs: str | None = None


@dataclass
class SystemFile:
    behavior: Behavior
    sid: SID
    configs: dict[str, Configuration]
    queries: list[Query]


# ---------------------------------------------------------------------------
# lexer

_PUNCT = ["<-", "->", "!=", "|=", "..", "{", "}", "(", ")", "<", ">", "[", "]",
          ",", ";", ".", ":", "*", "=", "-", "+"]
# one alternative per token kind and skip, tried in order.  Index literals
# are ASCII: \d also matches "²", which int() refuses, and "٣", which int()
# reads as 3.  For str patterns \w is str.isalnum() or "_", so a name is the
# longest run of those; one that starts with neither a letter nor "_" is an
# unexpected character.  Punctuation is listed longest first
_TOKEN = re.compile("|".join([
    r"(?P<newline>\n)", r"(?P<blank>[ \t\r]+)", r"(?P<comment>#[^\n]*)",
    r"(?P<int>[0-9]+)", r"(?P<ident>\w+)",
    "(?P<punct>" + "|".join(map(re.escape, _PUNCT)) + ")"]))


class Tok(NamedTuple):
    kind: str  # "ident" | "int" | "punct" | "eof"
    value: str
    line: int
    col: int


def _lex(text: str) -> list[Tok]:
    """One `_TOKEN` match per token or skip; a comment takes no column."""
    toks: list[Tok] = []
    i, line, col = 0, 1, 1
    n = len(text)
    match = _TOKEN.match
    while i < n:
        m = match(text, i)
        kind = m and m.lastgroup
        if kind is None or (kind == "ident" and not (text[i].isalpha() or text[i] == "_")):
            raise ParseError(f"unexpected character {text[i]!r}", line, col)
        j = m.end()
        if kind == "newline":
            line, col = line + 1, 1
        elif kind != "comment":
            if kind != "blank":
                toks.append(Tok(kind, m.group(), line, col))
            col += j - i
        i = j
    toks.append(Tok("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# index expressions

@dataclass(frozen=True)
class IExpr:
    op: str  # "int" | "var" | "max" | "+" | "-"
    value: int = 0
    name: str = ""
    args: tuple["IExpr", ...] = ()

    def eval(self, env: dict[str, int], where: Tok) -> int:
        if self.op == "int":
            return self.value
        if self.op == "var":
            if self.name not in env:
                raise ParseError(f"unbound index variable {self.name!r}",
                                 where.line, where.col)
            return env[self.name]
        if self.op == "max":
            return max(a.eval(env, where) for a in self.args)
        a, b = (x.eval(env, where) for x in self.args)
        return a + b if self.op == "+" else a - b


@dataclass(frozen=True)
class PredTemplate:
    """A predicate reference whose indices are still expressions."""
    base: str
    indices: tuple[IExpr, ...]
    args: tuple[Var, ...]
    where: Tok

    def instantiate(self, env: dict[str, int]) -> Pred:
        vals = [ix.eval(env, self.where) for ix in self.indices]
        for v in vals:
            if v < 0:
                raise ParseError(f"negative index {v} for {self.base}",
                                 self.where.line, self.where.col)
        return Pred(_mangle(self.base, vals), self.args)


def _mangle(base: str, indices: list[int]) -> str:
    return base if not indices else base + "_" + "_".join(map(str, indices))


class _Body:
    """A rule body as it is parsed, in prenex form: written names resolve
    to the parameters and the binders of the `exists` groups in scope, and
    each indexed predicate atom leaves a hole that `_expand_rules` fills per
    instance."""

    def __init__(self, params: list[Var], names: set[str]) -> None:
        self.scope = {v.name: v for v in params}
        self.params = params
        self.names = names  # every name of the rule's text, plus fresh ones
        self.binders: list[Var] = []
        self.atoms: list[Atom] = []
        self.holes: dict[int, PredTemplate] = {}  # atom index -> indexed call
        self.unbound: Tok | None = None  # the first unbound variable

    def bind(self, name: str) -> Var:
        """A binder for the written name; a clash with a parameter or an
        earlier binder gets a fresh name that occurs nowhere in the rule."""
        v = Var(name)
        if v in self.params or v in self.binders:
            k = 1
            while f"{name}_{k}" in self.names:
                k += 1
            v = Var(f"{name}_{k}")
            self.names.add(v.name)
        self.binders.append(v)
        return v


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, text: str) -> None:
        self.toks = _lex(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> Tok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def error(self, msg: str, tok: Tok | None = None) -> ParseError:
        t = tok or self.peek()
        return ParseError(msg, t.line, t.col)

    def expect(self, kind: str, value: str | None = None) -> Tok:
        t = self.next()
        if t.kind != kind or (value is not None and t.value != value):
            want = value or kind
            got = t.value or t.kind
            raise ParseError(f"expected {want!r}, found {got!r}", t.line, t.col)
        return t

    def at_punct(self, p: str) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.value == p

    def eat_punct(self, p: str) -> bool:
        if self.at_punct(p):
            self.next()
            return True
        return False

    def ident(self) -> str:
        return self.expect("ident").value

    def var(self) -> Var:
        """A variable of the rule body being parsed, by its written name: the
        innermost binder in scope, else the parameter.  An unbound name is
        reported once the rule has parsed, so syntax errors come first."""
        t = self.expect("ident")
        v = self.body.scope.get(t.value)
        if v is None:
            self.body.unbound = self.body.unbound or t
        return v or Var(t.value)

    # -- file --------------------------------------------------------------

    def parse_file(self) -> SystemFile:
        behavior: Behavior | None = None
        rules: list = []
        configs: dict[str, Configuration] = {}
        queries: list[tuple[Query, Tok]] = []
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind != "ident":
                raise self.error(f"expected a block, found {t.value!r}")
            if t.value == "behavior":
                if behavior is not None:
                    raise self.error("duplicate behavior block")
                behavior = self.parse_behavior()
            elif t.value == "sid":
                rules.extend(self.parse_sid_block())
            elif t.value == "config":
                name, cfg = self.parse_config(behavior)
                if name in configs:
                    raise self.error(f"duplicate config {name!r}", t)
                configs[name] = cfg
            elif t.value == "query":
                queries.append((self.parse_query(), t))
            else:
                raise self.error(f"unknown block {t.value!r}")
        if behavior is None:
            raise self.error("file declares no behavior block")
        sid = _expand_rules(rules, behavior)
        for q, t in queries:
            for name in filter(None, (q.lhs, q.rhs)):
                if name not in sid.predicates:
                    raise self.error(f"query names undefined predicate {name!r}", t)
        return SystemFile(behavior, sid, configs, [q for q, _ in queries])

    # -- behavior ----------------------------------------------------------

    def parse_behavior(self) -> Behavior:
        self.expect("ident", "behavior")
        self.expect("punct", "{")
        ports: list[str] = []
        states: list[str] = []
        trans: list[tuple[str, str, str]] = []
        while not self.eat_punct("}"):
            kw = self.ident()
            if kw == "ports":
                ports.extend(self.listed(self.ident))
            elif kw == "states":
                states.extend(self.listed(self.ident))
            elif kw == "trans":
                q = self.ident()
                self.expect("punct", "-")
                p = self.ident()
                self.expect("punct", "->")
                q2 = self.ident()
                trans.append((q, p, q2))
            else:
                raise self.error(f"unknown behavior declaration {kw!r}")
            self.expect("punct", ";")
        try:
            return Behavior.make(ports, states, trans)
        except ValueError as e:
            raise self.error(str(e))

    def listed(self, item: Callable[[], T]) -> list[T]:
        """One or more items, separated by commas."""
        out = [item()]
        while self.eat_punct(","):
            out.append(item())
        return out

    # -- sid ---------------------------------------------------------------

    def parse_sid_block(self) -> list:
        self.expect("ident", "sid")
        self.expect("punct", "{")
        rules = []
        while not self.eat_punct("}"):
            rules.append(self.parse_rule())
        return rules

    def parse_rule(self):
        where = self.peek()
        end = self.pos
        while self.toks[end].value not in (";", ""):  # "" is the end of the text
            end += 1
        names = {t.value for t in self.toks[self.pos:end] if t.kind == "ident"}
        base = self.ident()
        binders, indices = self.parse_head_indices()
        self.expect("punct", "(")
        params = [Var(v) for v in self.listed(self.ident)] if not self.at_punct(")") else []
        self.expect("punct", ")")
        self.expect("punct", "<-")
        self.body = _Body(params, names)
        self.parse_formula()
        self.expect("punct", ";")
        if self.body.unbound:
            raise self.error(f"unbound variable {self.body.unbound.value!r}",
                             self.body.unbound)
        return (base, binders, indices, tuple(params), self.body, where)

    def parse_head_indices(self):
        """Head indices: either range binders i=lo..hi or constant expressions."""
        if not self.at_punct("["):
            return (), ()
        self.next()
        binders: list[tuple[str, int, int]] = []
        consts: list[IExpr] = []
        while True:
            if (self.peek().kind == "ident" and self.peek(1).kind == "punct"
                    and self.peek(1).value == "="):
                name = self.ident()
                self.next()
                lo = int(self.expect("int").value)
                self.expect("punct", "..")
                hi = int(self.expect("int").value)
                binders.append((name, lo, hi))
            else:
                consts.append(self.parse_iexpr())
            if not self.eat_punct(","):
                break
        self.expect("punct", "]")
        if binders and consts:
            raise self.error("head indices mix range binders and constants")
        return tuple(binders), tuple(consts)

    def parse_iexpr(self) -> IExpr:
        left = self.parse_iterm()
        while self.peek().kind == "punct" and self.peek().value in ("+", "-"):
            op = self.next().value
            right = self.parse_iterm()
            left = IExpr(op, args=(left, right))
        return left

    def parse_iterm(self) -> IExpr:
        t = self.next()
        if t.kind == "int":
            return IExpr("int", value=int(t.value))
        if t.kind == "ident" and t.value == "max":
            self.expect("punct", "(")
            a = self.parse_iexpr()
            self.expect("punct", ",")
            b = self.parse_iexpr()
            self.expect("punct", ")")
            return IExpr("max", args=(a, b))
        if t.kind == "ident":
            return IExpr("var", name=t.value)
        raise ParseError(f"expected an index expression, found {t.value!r}",
                         t.line, t.col)

    # -- formulas ------------------------------------------------------------

    def parse_formula(self) -> None:
        """Append the formula's binders and atoms to the rule body."""
        if self.peek().kind == "ident" and self.peek().value == "exists":
            self.next()
            names = self.listed(self.ident)
            self.expect("punct", ".")
            outer = self.body.scope
            self.body.scope = {**outer, **{n: self.body.bind(n) for n in names}}
            self.parse_formula()
            self.body.scope = outer
            return
        self.parse_factor()
        while self.eat_punct("*"):
            self.parse_factor()

    def parse_factor(self) -> None:
        t = self.peek()
        atoms = self.body.atoms
        if self.eat_punct("("):
            self.parse_formula()
            self.expect("punct", ")")
        elif self.at_punct("<"):
            atoms.append(self.parse_interaction())
        elif t.kind != "ident":
            raise self.error(f"expected an atom, found {t.value or t.kind!r}")
        elif t.value == "emp":
            self.next()
        elif t.value in ("comp", "state"):
            # comp(x), comp(x : q) for comp(x) * state(x : q), or state(x : q)
            self.next()
            self.expect("punct", "(")
            x = self.var()
            if t.value == "comp":
                atoms.append(Comp(x))
            if t.value == "state" or self.at_punct(":"):
                self.expect("punct", ":")
                atoms.append(StateAtom(x, self.ident()))
            self.expect("punct", ")")
        elif t.value == "exists":
            raise self.error("exists must start the formula or be parenthesized")
        elif self.peek(1).kind == "punct" and self.peek(1).value in ("(", "["):
            self.parse_pred_atom()
        else:
            x = self.var()
            if self.eat_punct("="):
                atoms.append(Eq(x, self.var()))
            elif self.eat_punct("!="):
                atoms.append(Neq(x, self.var()))
            else:
                raise self.error(f"expected '=', '!=', or a predicate after {t.value!r}")

    def parse_interaction(self) -> Inter:
        self.expect("punct", "<")
        bindings = self.listed(self.parse_binding)
        if not self.eat_punct(">"):
            raise self.error("expected ',' or '>' in interaction atom")
        return Inter(tuple(bindings))

    def parse_binding(self) -> tuple[Var, str]:
        x = self.var()
        self.expect("punct", ".")
        return (x, self.ident())

    def parse_pred_atom(self) -> None:
        where = self.peek()
        base = self.ident()
        indices: tuple[IExpr, ...] = ()
        if self.eat_punct("["):
            indices = tuple(self.listed(self.parse_iexpr))
            self.expect("punct", "]")
        self.expect("punct", "(")
        args = self.listed(self.var) if not self.at_punct(")") else []
        self.expect("punct", ")")
        atoms = self.body.atoms
        if indices:
            self.body.holes[len(atoms)] = PredTemplate(base, indices, tuple(args), where)
        atoms.append(Pred(base, tuple(args)))

    # -- configs and queries -------------------------------------------------

    def parse_config(self, behavior: Behavior | None):
        self.expect("ident", "config")
        name = self.ident()
        if behavior is None:
            raise self.error("config block before behavior block")
        self.expect("punct", "{")
        comps: list[str] = []
        inters: list[Interaction] = []
        states: dict[str, str] = {}
        while not self.eat_punct("}"):
            kw = self.ident()
            if kw == "comps":
                comps.extend(self.listed(self.ident))
            elif kw == "inters":
                inters.append(self.parse_config_interaction(behavior))
                while self.eat_punct(","):
                    inters.append(self.parse_config_interaction(behavior))
            elif kw == "states":
                while True:
                    c = self.ident()
                    self.expect("punct", ":")
                    q = self.ident()
                    if q not in behavior.states:
                        raise self.error(f"undeclared state {q!r}")
                    states[c] = q
                    if not self.eat_punct(","):
                        break
            else:
                raise self.error(f"unknown config declaration {kw!r}")
            self.expect("punct", ";")
        try:
            return name, Configuration.make(comps, inters, states)
        except ValueError as e:
            raise self.error(f"config {name!r}: {e}")

    def parse_config_interaction(self, behavior: Behavior) -> Interaction:
        self.expect("punct", "<")
        bindings = []
        while True:
            c = self.ident()
            self.expect("punct", ".")
            p = self.ident()
            if p not in behavior.ports:
                raise self.error(f"undeclared port {p!r}")
            bindings.append((c, p))
            if self.eat_punct(">"):
                break
            self.expect("punct", ",")
        try:
            return Interaction(tuple(bindings))
        except ValueError as e:
            raise self.error(str(e))

    def parse_query(self) -> Query:
        self.expect("ident", "query")
        kind = self.ident()
        if kind == "entail":
            lhs = self.parse_predref()
            self.expect("punct", "|=")
            rhs = self.parse_predref()
            self.expect("punct", ";")
            return Query("entail", lhs, rhs)
        if kind == "invariant":
            lhs = self.parse_predref()
            self.expect("punct", ";")
            return Query("invariant", lhs)
        raise self.error(f"unknown query kind {kind!r}")

    def parse_predref(self) -> str:
        base = self.ident()
        if self.eat_punct("["):
            vals = self.listed(lambda: int(self.expect("int").value))
            self.expect("punct", "]")
            return _mangle(base, vals)
        return base


def _expand_rules(templates: list, behavior: Behavior) -> SID:
    rules: list[Rule] = []
    wheres: list[Tok] = []  # the head token of each rule
    for base, ranges, indices, params, body, where in templates:
        envs: list[dict[str, int]] = [{}]
        for name, lo, hi in ranges:
            envs = [{**e, name: v} for e in envs for v in range(lo, hi + 1)]
        for env in envs:
            if ranges:
                vals = [env[name] for name, _, _ in ranges]
            else:
                vals = [ix.eval({}, where) for ix in indices]
            atoms = list(body.atoms)
            for i, template in body.holes.items():
                atoms[i] = template.instantiate(env)
            try:
                rules.append(Rule(_mangle(base, vals), params, tuple(body.binders),
                                  tuple(atoms)))
            except ValueError as e:
                raise ParseError(str(e), where.line, where.col)
            wheres.append(where)
    try:
        return SID(tuple(rules), behavior)
    except ValueError as e:
        where = wheres[e.rule]
        raise ParseError(str(e), where.line, where.col)


def parse_system(text: str) -> SystemFile:
    """Parse and macro-expand a `.clsys` file."""
    return _Parser(text).parse_file()


# ---------------------------------------------------------------------------
# rendering

def render_var(v: Var) -> str:
    assert not v.name.startswith("%"), f"canonical variable {v} in surface syntax"
    if v.tag:
        return v.name + "_" + "_".join(map(str, v.tag))
    return v.name


def _var_list(vs: tuple[Var, ...], texts: dict[Atom | tuple[Var, ...], str]) -> str:
    text = texts.get(vs)
    if text is None:
        text = texts[vs] = ", ".join(map(render_var, vs))
    return text


def render_body(rule: Rule, texts: dict[Atom | tuple[Var, ...], str]) -> str:
    """`exists binders . *atoms`, with comp(x) * state(x : q) as comp(x : q).

    `texts` holds the text of each atom and variable list by value, so
    each distinct one is printed once however many rules share it."""
    out: list[str] = []
    prev = None
    for a in rule.atoms:
        if type(a) is StateAtom and type(prev) is Comp and prev.var == a.var:
            out[-1] = f"comp({render_var(a.var)} : {a.state})"
        else:
            text = texts.get(a)
            if text is None:
                text = texts[a] = atom_text(a, render_var, " ")
            out.append(text)
        prev = a
    body = " * ".join(out) or "emp"
    if not rule.binders:
        return body
    return f"exists {_var_list(rule.binders, texts)} . {body}"


def render_config(name: str, g: Configuration) -> str:
    lines = [f"config {name} {{"]
    if g.components:
        lines.append("  comps " + ", ".join(sorted(g.components)) + ";")
    if g.interactions:
        inters = sorted(g.interactions, key=repr)
        rendered = ", ".join("<" + ", ".join(f"{c}.{p}" for c, p in i.bindings) + ">"
                             for i in inters)
        lines.append("  inters " + rendered + ";")
    if g.state_pairs:
        lines.append("  states " + ", ".join(f"{c}: {q}" for c, q in g.state_pairs) + ";")
    lines.append("}")
    return "\n".join(lines)


def render_system(sf: SystemFile) -> str:
    """Canonical text; parse(render(parse(x))) == parse(x)."""
    b = sf.behavior
    lines = ["behavior {"]
    lines.append("  ports " + ", ".join(sorted(b.ports)) + ";")
    lines.append("  states " + ", ".join(sorted(b.states)) + ";")
    for q, p, q2 in sorted(b.transitions):
        lines.append(f"  trans {q} -{p}-> {q2};")
    lines.append("}")
    lines.append("")
    lines.append("sid {")
    texts: dict[Atom | tuple[Var, ...], str] = {}
    for r in sf.sid.rules:
        lines.append(f"  {r.head}({_var_list(r.params, texts)}) <- {render_body(r, texts)};")
    lines.append("}")
    for name in sf.configs:
        lines.append("")
        lines.append(render_config(name, sf.configs[name]))
    for q in sf.queries:
        lines.append("")
        if q.kind == "entail":
            lines.append(f"query entail {q.lhs} |= {q.rhs};")
        else:
            lines.append(f"query invariant {q.lhs};")
    return "\n".join(lines) + "\n"
