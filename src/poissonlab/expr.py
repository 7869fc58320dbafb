"""Surface syntax for multivector fields.

Scalars are exact rationals (`3/2`, `i`), `@v` is the coordinate vector
generator d/dv, `~v` an antiholomorphic generator, `^` is the exterior
product except directly before an integer where it is a power, and `*`
multiplies anything.  Wedge binds loosest, then +/-, then *, with
powers tightest; no floats exist in the grammar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .laurent import LaurentPoly, VarRegistry
from .multivector import Chart, FormedMultiVector, MultiVector, wedge
from .rational import GaussianRational


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class UnknownSymbol(Exception):
    pass


@dataclass(frozen=True)
class Num:
    value: GaussianRational


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Vec:
    name: str


@dataclass(frozen=True)
class Dbar:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class WedgeOp:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


_OPS = set("+-*^/()")


def _tokenize(src: str):
    tokens = []
    line, col = 1, 1
    k = 0
    while k < len(src):
        ch = src[k]
        if ch == "\n":
            line += 1
            col = 1
            k += 1
            continue
        if ch.isspace():
            k += 1
            col += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, line, col))
            k += 1
            col += 1
            continue
        if ch.isdigit():
            j = k
            while j < len(src) and src[j].isdigit():
                j += 1
            if j < len(src) and (src[j] == "." or src[j] == "e"):
                raise ParseError("decimal literals are not accepted; use rationals",
                                 line, col)
            tokens.append(("num", int(src[k:j]), line, col))
            col += j - k
            k = j
            continue
        if ch in ("@", "~"):
            j = k + 1
            if j >= len(src) or not (src[j].isalpha() or src[j] == "_"):
                raise ParseError(f"{ch!r} must be followed by a variable name", line, col)
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            kind = "vec" if ch == "@" else "dbar"
            tokens.append((kind, src[k + 1:j], line, col))
            col += j - k
            k = j
            continue
        if ch.isalpha() or ch == "_":
            j = k
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[k:j], line, col))
            col += j - k
            k = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.k = 0

    def peek(self, ahead=0):
        return self.tokens[min(self.k + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.k]
        if tok[0] != "end":
            self.k += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def error(self, message):
        tok = self.peek()
        raise ParseError(message, tok[2], tok[3])

    # precedence, loosest first: wedge, additive, product, power
    def parse_expr(self):
        node = self.parse_sum()
        while self.peek()[0] == "^":
            self.next()
            node = WedgeOp(node, self.parse_sum())
        return node

    def parse_sum(self):
        node = self.parse_product()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.parse_product()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_product(self):
        node = self.parse_unary()
        while self.peek()[0] == "*":
            self.next()
            node = Mul(node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.peek()[0] == "-":
            self.next()
            return Neg(self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self):
        node = self.parse_atom()
        while self.peek()[0] == "^" and self._power_ahead():
            self.next()
            sign = 1
            if self.peek()[0] == "-":
                self.next()
                sign = -1
            tok = self.expect("num")
            node = Pow(node, sign * tok[1])
        return node

    def _power_ahead(self):
        nxt = self.peek(1)
        if nxt[0] == "num":
            return True
        return nxt[0] == "-" and self.peek(2)[0] == "num"

    def parse_atom(self):
        tok = self.next()
        kind, value = tok[0], tok[1]
        if kind == "num":
            if self.peek()[0] == "/" and self.peek(1)[0] == "num":
                self.next()
                den = self.expect("num")[1]
                if den == 0:
                    raise ParseError("zero denominator", tok[2], tok[3])
                return Num(GaussianRational(Fraction(value, den)))
            return Num(GaussianRational(value))
        if kind == "name":
            if value == "i":
                return Num(GaussianRational(0, 1))
            return Sym(value)
        if kind == "vec":
            return Vec(value)
        if kind == "dbar":
            return Dbar(value)
        if kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {value!r}", tok[2], tok[3])


def parse(src: str):
    parser = _Parser(_tokenize(src))
    node = parser.parse_expr()
    end = parser.next()
    if end[0] != "end":
        raise ParseError(f"trailing input {end[1]!r}", end[2], end[3])
    return node


def collect_names(node) -> set[str]:
    if isinstance(node, Sym):
        return {node.name}
    if isinstance(node, (Num, Vec, Dbar)):
        return set()
    if isinstance(node, Neg):
        return collect_names(node.arg)
    if isinstance(node, Pow):
        return collect_names(node.base)
    return collect_names(node.left) | collect_names(node.right)


# ----------------------------------------------------------------------
# evaluation into formed multivector fields

def fmv_product(a: FormedMultiVector, b: FormedMultiVector) -> FormedMultiVector:
    out = FormedMultiVector.zero(a.chart, a.registry, a.dbar_vars)
    for ka, mva in a.parts.items():
        for kb, mvb in b.parts.items():
            if set(ka) & set(kb):
                continue
            from .multivector import _sort_key_names

            sign, key = _sort_key_names(ka + kb, a.dbar_vars)
            if sign == 0:
                continue
            piece = wedge(mva, mvb)
            if sign == -1:
                piece = -piece
            out = out + FormedMultiVector.of(piece, a.dbar_vars, key)
    return out


@dataclass(frozen=True)
class EvalContext:
    chart: Chart
    registry: VarRegistry
    dbar_vars: tuple[str, ...]

    def constant(self, value: GaussianRational) -> FormedMultiVector:
        mv = MultiVector.function(self.chart, self.registry,
                                  LaurentPoly.const(self.registry, value))
        return FormedMultiVector.of(mv, self.dbar_vars)


def evaluate(node, ctx: EvalContext) -> FormedMultiVector:
    if isinstance(node, Num):
        return ctx.constant(node.value)
    if isinstance(node, Sym):
        if node.name not in ctx.registry:
            raise UnknownSymbol(node.name)
        mv = MultiVector.function(ctx.chart, ctx.registry,
                                  LaurentPoly.var(ctx.registry, node.name))
        return FormedMultiVector.of(mv, ctx.dbar_vars)
    if isinstance(node, Vec):
        if node.name not in ctx.chart.vars:
            raise UnknownSymbol(f"@{node.name}")
        mv = MultiVector.term(ctx.chart, ctx.registry,
                              LaurentPoly.const(ctx.registry, 1), (node.name,))
        return FormedMultiVector.of(mv, ctx.dbar_vars)
    if isinstance(node, Dbar):
        if node.name not in ctx.dbar_vars:
            raise UnknownSymbol(f"~{node.name}")
        mv = MultiVector.function(ctx.chart, ctx.registry,
                                  LaurentPoly.const(ctx.registry, 1))
        return FormedMultiVector.of(mv, ctx.dbar_vars, (node.name,))
    if isinstance(node, Neg):
        return -evaluate(node.arg, ctx)
    if isinstance(node, Add):
        return evaluate(node.left, ctx) + evaluate(node.right, ctx)
    if isinstance(node, Sub):
        return evaluate(node.left, ctx) - evaluate(node.right, ctx)
    if isinstance(node, (Mul, WedgeOp)):
        return fmv_product(evaluate(node.left, ctx), evaluate(node.right, ctx))
    if isinstance(node, Pow):
        base = evaluate(node.base, ctx)
        keys = set(base.parts)
        if keys and keys != {()}:
            raise UnknownSymbol("powers only apply to scalar expressions")
        mv = base.part(())
        if set(mv.components) not in (set(), {()}):
            raise UnknownSymbol("powers only apply to scalar expressions")
        poly = mv.components.get((), LaurentPoly.zero(ctx.registry))
        out = MultiVector.function(ctx.chart, ctx.registry, poly ** node.exponent)
        return FormedMultiVector.of(out, ctx.dbar_vars)
    raise TypeError(f"not an expression node: {node!r}")


def eval_str(src: str, ctx: EvalContext) -> FormedMultiVector:
    return evaluate(parse(src), ctx)


def context_for(src_list, chart_vars: tuple[str, ...],
                dbar_vars: tuple[str, ...] = ()) -> EvalContext:
    """Build an evaluation context, auto-registering free names as parameters."""
    names = set()
    for src in src_list:
        names |= collect_names(parse(src))
    params = tuple(sorted(names - set(chart_vars)))
    reg = VarRegistry(chart_vars, params)
    return EvalContext(Chart("chart", chart_vars), reg, dbar_vars)


def print_formed(fmv: FormedMultiVector) -> str:
    """Canonical printable form; parse(print(x)) evaluates back to x."""
    return str(fmv)

