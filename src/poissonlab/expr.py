"""Surface syntax for multivector fields.

Scalars are exact rationals (`3/2`, `i`), `@v` is the coordinate vector
generator d/dv, `~v` an antiholomorphic generator, `^` is the exterior
product except directly before an integer where it is a power, and `*`
multiplies anything.  Wedge binds loosest, then +/-, then *, with
powers tightest; no floats exist in the grammar.

Evaluation keeps number subtrees in Q(i), stays in the Laurent ring for
subtrees without @v or ~v, and lifts to a FormedMultiVector only where a
field generator enters.  A chain of sums and differences accumulates its
ring operands into one term dict.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import LaurentPoly, VarRegistry, _accumulate
from .multivector import Chart, ChartFrame, FormedMultiVector, _sort_key_names, wedge
from .rational import Frozen, GaussianRational


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class UnknownSymbol(Exception):
    pass


_set = object.__setattr__


class Num(Frozen):
    __slots__ = ("value",)

    def __init__(self, value: GaussianRational):
        _set(self, "value", value)


class _Named(Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class Sym(_Named):
    __slots__ = ()


class Vec(_Named):
    __slots__ = ()


class Dbar(_Named):
    __slots__ = ()


class Neg(Frozen):
    __slots__ = ("arg",)

    def __init__(self, arg):
        _set(self, "arg", arg)


class _Binary(Frozen):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class WedgeOp(_Binary):
    __slots__ = ()


class Pow(Frozen):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent: int):
        _set(self, "base", base)
        _set(self, "exponent", exponent)


_OPS = set("+-*^/()")
# ASCII only: str.isdigit and str.isalpha also accept superscripts, circled
# digits and other letters, which int() and the grammar reject
_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NAME_CHARS = _NAME_START | _DIGITS


def tokenize(src: str) -> list[tuple]:
    """The tokens of `src`, (kind, value, line, column) each, closed by an
    "end" token; `parse`, `eval_str` and `context_for` take them in place
    of the text, `free_names` takes only them."""
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
        if ch in _DIGITS:
            j = k
            while j < len(src) and src[j] in _DIGITS:
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
            if j >= len(src) or src[j] not in _NAME_START:
                raise ParseError(f"{ch!r} must be followed by a variable name", line, col)
            while j < len(src) and src[j] in _NAME_CHARS:
                j += 1
            kind = "vec" if ch == "@" else "dbar"
            tokens.append((kind, src[k + 1:j], line, col))
            col += j - k
            k = j
            continue
        if ch in _NAME_START:
            j = k
            while j < len(src) and src[j] in _NAME_CHARS:
                j += 1
            tokens.append(("name", src[k:j], line, col))
            col += j - k
            k = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", None, line, col))
    return tokens


def _found(tok) -> str:
    return "end of input" if tok[0] == "end" else repr(tok[1])


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.k = 0

    # the closing "end" token keeps every index in range: `next` never
    # passes it, and a look past the current token follows a token that is
    # not "end"
    def peek(self, ahead=0):
        return self.tokens[self.k + ahead]

    def next(self):
        tok = self.tokens[self.k]
        if tok[0] != "end":
            self.k += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {_found(tok)}", tok[2], tok[3])
        return tok

    # precedence, loosest first: wedge, additive, product, power
    def parse_expr(self):
        node = self.parse_sum()
        while self.tokens[self.k][0] == "^":
            self.next()
            node = WedgeOp(node, self.parse_sum())
        return node

    def parse_sum(self):
        node = self.parse_product()
        while self.tokens[self.k][0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.parse_product()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_product(self):
        node = self.parse_unary()
        while self.tokens[self.k][0] == "*":
            self.next()
            node = Mul(node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.tokens[self.k][0] == "-":
            self.next()
            return Neg(self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self):
        node = self.parse_atom()
        while self.tokens[self.k][0] == "^" and self._power_ahead():
            self.next()
            sign = 1
            if self.tokens[self.k][0] == "-":
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
            if self.tokens[self.k][0] == "/" and self.peek(1)[0] == "num":
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
        if kind == "end":
            raise ParseError("unexpected end of input", tok[2], tok[3])
        raise ParseError(f"unexpected token {value!r}", tok[2], tok[3])


def _tokens(src) -> list[tuple]:
    return tokenize(src) if isinstance(src, str) else src


def parse(src):
    """The tree of `src`, a source text or its tokens."""
    parser = _Parser(_tokens(src))
    node = parser.parse_expr()
    end = parser.next()
    if end[0] != "end":
        raise ParseError(f"trailing input {end[1]!r}", end[2], end[3])
    return node


def free_names(tokens: list[tuple]) -> set[str]:
    """The names the tokens of a source mention, without `i`: every name
    token becomes a `Sym`, so this is the set of `Sym` names of
    parse(tokens) when it parses."""
    return {tok[1] for tok in tokens if tok[0] == "name" and tok[1] != "i"}


# ----------------------------------------------------------------------
# evaluation into formed multivector fields

def fmv_product(a: FormedMultiVector, b: FormedMultiVector) -> FormedMultiVector:
    out = FormedMultiVector.zero(a.chart, a.registry, a.dbar_vars)
    for ka, mva in a.parts.items():
        for kb, mvb in b.parts.items():
            if set(ka) & set(kb):
                continue
            sign, key = _sort_key_names(ka + kb, a.dbar_vars)
            if sign == 0:
                continue
            piece = wedge(mva, mvb)
            if sign == -1:
                piece = -piece
            out = out + FormedMultiVector.of(piece, a.dbar_vars, key)
    return out


EvalContext = ChartFrame


def _lift(value, ctx: EvalContext) -> FormedMultiVector:
    if isinstance(value, FormedMultiVector):
        return value
    if isinstance(value, GaussianRational):
        value = ctx.const(value)
    return ctx.formed(ctx.mv(value))


def _sum(node, ctx: EvalContext):
    """The value of a chain of Add and Sub nodes, its operands evaluated
    left to right.  Numbers and polynomials add into one term dict, a
    number under the key (); from the first field on, the sum adds fields."""
    chain = []
    while isinstance(node, (Add, Sub)):
        chain.append((isinstance(node, Sub), node.right))
        node = node.left
    chain.append((False, node))
    terms, poly, total = {}, False, None
    for neg, operand in reversed(chain):
        v = _value(operand, ctx)
        if total is None and not isinstance(v, FormedMultiVector):
            if isinstance(v, LaurentPoly):
                poly = True
                _accumulate(terms, (-v if neg else v).terms)
            elif not v.is_zero():
                _accumulate(terms, {(): -v if neg else v})
            continue
        if total is None:
            total = _lift(LaurentPoly._of_terms(ctx.registry, terms), ctx)
        v = _lift(v, ctx)
        total = total - v if neg else total + v
    if total is not None:
        return total
    return LaurentPoly._of_terms(ctx.registry, terms) if poly else terms.get((), GaussianRational(0))


def _value(node, ctx: EvalContext):
    """A GaussianRational for a subtree of numbers, a LaurentPoly for one
    without @v or ~v, else a FormedMultiVector; operands evaluate left to
    right."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Sym):
        if node.name not in ctx.registry:
            raise UnknownSymbol(node.name)
        return ctx.param(node.name)
    if isinstance(node, Vec):
        if node.name not in ctx.chart.vars:
            raise UnknownSymbol(f"@{node.name}")
        return ctx.formed(ctx.mv(ctx.const(1), (node.name,)))
    if isinstance(node, Dbar):
        if node.name not in ctx.dbar:
            raise UnknownSymbol(f"~{node.name}")
        return ctx.formed(ctx.mv(ctx.const(1)), (node.name,))
    if isinstance(node, Neg):
        return -_value(node.arg, ctx)
    if isinstance(node, (Add, Sub)):
        return _sum(node, ctx)
    if isinstance(node, (Mul, WedgeOp)):
        a, b = _value(node.left, ctx), _value(node.right, ctx)
        if isinstance(a, FormedMultiVector):
            return fmv_product(a, b) if isinstance(b, FormedMultiVector) else a.scale(b)
        if isinstance(b, FormedMultiVector):
            return b.scale(a)
        # GaussianRational * LaurentPoly is not defined: a number goes right
        return b * a if isinstance(a, GaussianRational) else a * b
    if isinstance(node, Pow):
        base = _value(node.base, ctx)
        if isinstance(base, GaussianRational):
            base = ctx.const(base)
        elif isinstance(base, FormedMultiVector):
            keys = set(base.parts)
            if keys and keys != {()}:
                raise UnknownSymbol("powers only apply to scalar expressions")
            mv = base.part(())
            if set(mv.components) not in (set(), {()}):
                raise UnknownSymbol("powers only apply to scalar expressions")
            base = mv.components.get((), ctx.const(0))
        if node.exponent < 0 and len(base.terms) != 1:
            raise UnknownSymbol(f"negative powers only apply to monomials, not to {base}")
        return base ** node.exponent
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node, ctx: EvalContext) -> FormedMultiVector:
    return _lift(_value(node, ctx), ctx)


def eval_str(src, ctx: EvalContext) -> FormedMultiVector:
    """The value of `src`, a source text or its tokens, in `ctx`."""
    return evaluate(parse(src), ctx)


def context_for(src_list, chart_vars: tuple[str, ...],
                dbar_vars: tuple[str, ...] = ()) -> EvalContext:
    """Build an evaluation context, auto-registering free names as parameters.

    Each source is a text or its tokens; a caller that evaluates the
    sources afterwards tokenizes them first and passes the tokens."""
    names = set()
    for src in src_list:
        names |= free_names(_tokens(src))
    params = tuple(sorted(names - set(chart_vars)))
    reg = VarRegistry(chart_vars, params)
    return ChartFrame(Chart("chart", chart_vars), reg, dbar_vars)
