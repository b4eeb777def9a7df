"""Concrete syntax for systems: behavior, inductive definitions, configs, queries.

One `.clsys` file fixes the behavior and everything interpreted against it.
Indexed rule families are expanded at parse time: binders in a head such as
`Chain[h=0..2, t=0..2]` range over their intervals, and index expressions in
body atoms (`Chain[max(h-1,0), t]`) are evaluated per instance, producing
plain predicates named `Chain_0_1` and so on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Behavior, Configuration, Interaction
from .logic import (Comp, Emp, Eq, Exists, Formula, Inter, Neq, Pred, Rule,
                    SID, SepConj, StateAtom, Var, atom_text, comp_in, exists,
                    sep)


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


@dataclass(frozen=True)
class Tok:
    kind: str  # "ident" | "int" | "punct" | "eof"
    value: str
    line: int
    col: int


def _lex(text: str) -> list[Tok]:
    toks: list[Tok] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Tok("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Tok("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Tok("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
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

    # -- file --------------------------------------------------------------

    def parse_file(self) -> SystemFile:
        behavior: Behavior | None = None
        rules: list = []
        configs: dict[str, Configuration] = {}
        queries: list[Query] = []
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
                queries.append(self.parse_query())
            else:
                raise self.error(f"unknown block {t.value!r}")
        if behavior is None:
            raise self.error("file declares no behavior block")
        sid = _expand_rules(rules, behavior)
        for q in queries:
            for name in filter(None, (q.lhs, q.rhs)):
                if name not in sid.predicates:
                    raise self.error(f"query names undefined predicate {name!r}")
        return SystemFile(behavior, sid, configs, queries)

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
                ports.extend(self.ident_list())
            elif kw == "states":
                states.extend(self.ident_list())
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

    def ident_list(self) -> list[str]:
        out = [self.ident()]
        while self.eat_punct(","):
            out.append(self.ident())
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
        base = self.ident()
        binders, indices = self.parse_head_indices()
        self.expect("punct", "(")
        params: list[Var] = []
        if not self.at_punct(")"):
            params = [Var(v) for v in self.ident_list()]
        self.expect("punct", ")")
        self.expect("punct", "<-")
        body = self.parse_formula()
        self.expect("punct", ";")
        return (base, binders, indices, tuple(params), body, where)

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

    def parse_formula(self) -> Formula:
        if self.peek().kind == "ident" and self.peek().value == "exists":
            self.next()
            vars = [Var(v) for v in self.ident_list()]
            self.expect("punct", ".")
            return exists(tuple(vars), self.parse_formula())
        parts = [self.parse_factor()]
        while self.eat_punct("*"):
            parts.append(self.parse_factor())
        return sep(*parts)

    def parse_factor(self) -> Formula:
        t = self.peek()
        if self.eat_punct("("):
            f = self.parse_formula()
            self.expect("punct", ")")
            return f
        if self.at_punct("<"):
            return self.parse_interaction()
        if t.kind != "ident":
            raise self.error(f"expected an atom, found {t.value or t.kind!r}")
        if t.value == "emp":
            self.next()
            return Emp()
        if t.value == "comp":
            self.next()
            self.expect("punct", "(")
            x = Var(self.ident())
            state = None
            if self.eat_punct(":"):
                state = self.ident()
            self.expect("punct", ")")
            return comp_in(x, state) if state else Comp(x)
        if t.value == "state":
            self.next()
            self.expect("punct", "(")
            x = Var(self.ident())
            self.expect("punct", ":")
            q = self.ident()
            self.expect("punct", ")")
            return StateAtom(x, q)
        if t.value == "exists":
            raise self.error("exists must start the formula or be parenthesized")
        # predicate atom or (dis)equality
        nxt = self.peek(1)
        if nxt.kind == "punct" and nxt.value in ("(", "["):
            return self.parse_pred_atom()
        name = self.ident()
        if self.eat_punct("="):
            return Eq(Var(name), Var(self.ident()))
        if self.eat_punct("!="):
            return Neq(Var(name), Var(self.ident()))
        raise self.error(f"expected '=', '!=', or a predicate after {name!r}")

    def parse_interaction(self) -> Inter:
        self.expect("punct", "<")
        bindings = [self.parse_binding()]
        while True:
            if self.eat_punct(","):
                bindings.append(self.parse_binding())
            elif self.eat_punct(">"):
                break
            else:
                raise self.error("expected ',' or '>' in interaction atom")
        return Inter(tuple(bindings))

    def parse_binding(self) -> tuple[Var, str]:
        x = Var(self.ident())
        self.expect("punct", ".")
        p = self.ident()
        return (x, p)

    def parse_pred_atom(self) -> Formula:
        where = self.peek()
        base = self.ident()
        indices: tuple[IExpr, ...] = ()
        if self.eat_punct("["):
            ixs = [self.parse_iexpr()]
            while self.eat_punct(","):
                ixs.append(self.parse_iexpr())
            self.expect("punct", "]")
            indices = tuple(ixs)
        self.expect("punct", "(")
        args: list[Var] = []
        if not self.at_punct(")"):
            args = [Var(v) for v in self.ident_list()]
        self.expect("punct", ")")
        if indices:
            return _PredHole(PredTemplate(base, indices, tuple(args), where))
        return Pred(base, tuple(args))

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
                comps.extend(self.ident_list())
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
            vals = [int(self.expect("int").value)]
            while self.eat_punct(","):
                vals.append(int(self.expect("int").value))
            self.expect("punct", "]")
            return _mangle(base, vals)
        return base


@dataclass(frozen=True)
class _PredHole:
    """Placeholder atom for an indexed predicate reference inside a body."""
    template: PredTemplate


def _instantiate_formula(f: Formula, env: dict[str, int]) -> Formula:
    if isinstance(f, _PredHole):
        return f.template.instantiate(env)
    if isinstance(f, SepConj):
        return SepConj(tuple(_instantiate_formula(p, env) for p in f.parts))
    if isinstance(f, Exists):
        return Exists(f.vars, _instantiate_formula(f.body, env))
    return f


def _expand_rules(templates: list, behavior: Behavior) -> SID:
    rules: list[Rule] = []
    for base, binders, indices, params, body, where in templates:
        envs: list[dict[str, int]] = [{}]
        for name, lo, hi in binders:
            envs = [{**e, name: v} for e in envs for v in range(lo, hi + 1)]
        for env in envs:
            if binders:
                vals = [env[name] for name, _, _ in binders]
            else:
                vals = [ix.eval({}, where) for ix in indices]
            name = _mangle(base, vals)
            concrete = _instantiate_formula(body, env)
            try:
                rules.append(Rule(name, params, concrete))
            except ValueError as e:
                raise ParseError(str(e), where.line, where.col)
    try:
        return SID(tuple(rules), behavior)
    except ValueError as e:
        raise ParseError(str(e), 1, 1)


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


def render_formula(f: Formula) -> str:
    if isinstance(f, Exists):
        vs = ", ".join(render_var(v) for v in f.vars)
        return f"exists {vs} . {render_formula(f.body)}"
    parts = f.parts if isinstance(f, SepConj) else (f,)
    out: list[str] = []
    i = 0
    while i < len(parts):
        a = parts[i]
        if (isinstance(a, Comp) and i + 1 < len(parts)
                and isinstance(parts[i + 1], StateAtom)
                and parts[i + 1].var == a.var):
            out.append(f"comp({render_var(a.var)} : {parts[i + 1].state})")
            i += 2
            continue
        out.append(_render_atom(a))
        i += 1
    return " * ".join(out) if out else "emp"


def _render_atom(a: Formula) -> str:
    if isinstance(a, Exists):
        return f"({render_formula(a)})"
    return atom_text(a, render_var, " ")


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
    for r in sf.sid.rules:
        params = ", ".join(render_var(v) for v in r.params)
        lines.append(f"  {r.head}({params}) <- {render_formula(r.body)};")
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
