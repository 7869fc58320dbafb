"""Surface syntax for multivector fields.

Scalars are exact rationals (`3/2`, `i`), `@v` is the coordinate vector
generator d/dv, `~v` an antiholomorphic generator, `^` is the exterior
product except directly before an integer where it is a power, and `*`
multiplies anything.  Wedge binds loosest, then +/-, then *, with
powers tightest; no floats exist in the grammar.

A source is read once, by precedence climbing (Pratt, "Top down
operator precedence", POPL 1973) over its tokens: each grammar rule
returns the value of what it read, a number in Q(i), a Laurent
polynomial for an expression without @v or ~v, and a FormedMultiVector
only where a field generator enters.  A chain of sums and differences
accumulates its ring operands into one term dict.  A parse error anywhere
in a source is raised before any evaluation error (an unknown name, a
power that does not apply), and of these the first in reading order is
raised.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import LaurentPoly, VarRegistry, _accumulate
from .multivector import Chart, ChartFrame, FormedMultiVector, _sort_key_names, wedge
from .rational import GaussianRational, decimal, from_decimal


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class UnknownSymbol(Exception):
    pass


_OPS = set("+-*^/()")
# ASCII only: str.isdigit and str.isalpha also accept superscripts, circled
# digits and other letters, which int() and the grammar reject
_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NAME_CHARS = _NAME_START | _DIGITS


def tokenize(src: str) -> list[tuple]:
    """The tokens of `src`, (kind, value, line, column) each, closed by an
    "end" token; `eval_str` and `context_for` take them in place of the
    text, `free_names` takes only them."""
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
            tokens.append(("num", from_decimal(src[k:j]), line, col))
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


def shown(tok: tuple) -> str:
    """A token as an error message shows it: a number by its digits, of
    any length, any other value by its repr."""
    if tok[0] == "end":
        return "end of input"
    return decimal(tok[1]) if tok[0] == "num" else repr(tok[1])


def _tokens(src) -> list[tuple]:
    return tokenize(src) if isinstance(src, str) else src


def free_names(tokens: list[tuple]) -> set[str]:
    """The names the tokens of a source mention, without `i`: the names
    `eval_str` looks up as parameters or chart variables."""
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


def _product(a, b):
    """a * b, also the wedge a ^ b: fields multiply by fmv_product, and a
    ring value scales a field."""
    if isinstance(a, FormedMultiVector):
        return fmv_product(a, b) if isinstance(b, FormedMultiVector) else a.scale(b)
    if isinstance(b, FormedMultiVector):
        return b.scale(a)
    # GaussianRational * LaurentPoly is not defined: a number goes right
    return b * a if isinstance(a, GaussianRational) else a * b


_ZERO, _I = GaussianRational(0), GaussianRational(0, 1)


class _Reader:
    """One pass over the tokens of a source: each rule returns the value
    of what it read, a GaussianRational for numbers, a LaurentPoly for an
    expression without @v or ~v, else a FormedMultiVector.

    An evaluation error does not stop the reading: `fail` keeps the first
    one, in reading order, and the rest of the source is still read, so a
    parse error anywhere in it is raised first."""

    __slots__ = ("tokens", "k", "ctx", "error")

    def __init__(self, tokens, ctx: EvalContext):
        self.tokens = tokens
        self.k = 0
        self.ctx = ctx
        self.error = None

    def fail(self, message: str):
        if self.error is None:
            self.error = UnknownSymbol(message)
        # stands in for the value: no operation raises on it
        return _ZERO

    # precedence, loosest first: wedge, additive, product, power.  The
    # closing "end" token keeps every index in range: no rule reads past
    # it, and a look past the current token follows a token that is not
    # "end".
    def read_wedge(self):
        value = self.read_sum()
        while self.tokens[self.k][0] == "^":
            self.k += 1
            value = _product(value, self.read_sum())
        return value

    def read_sum(self):
        """A chain of sums and differences, its operands read left to
        right: numbers and polynomials add into one term dict, a number
        under the key (); from the first field on, the sum adds fields."""
        value = self.read_product()
        op = self.tokens[self.k][0]
        if op != "+" and op != "-":
            return value
        ctx = self.ctx
        terms, poly, total, neg = {}, False, None, False
        while True:
            if total is None and not isinstance(value, FormedMultiVector):
                if isinstance(value, LaurentPoly):
                    poly = True
                    _accumulate(terms, (-value if neg else value).terms)
                elif not value.is_zero():
                    _accumulate(terms, {(): -value if neg else value})
            else:
                if total is None:
                    total = _lift(LaurentPoly._of_terms(ctx.registry, terms), ctx)
                value = _lift(value, ctx)
                total = total - value if neg else total + value
            op = self.tokens[self.k][0]
            if op != "+" and op != "-":
                break
            self.k += 1
            neg = op == "-"
            value = self.read_product()
        if total is not None:
            return total
        return LaurentPoly._of_terms(ctx.registry, terms) if poly else terms.get((), _ZERO)

    def read_product(self):
        value = self.read_unary()
        while self.tokens[self.k][0] == "*":
            self.k += 1
            value = _product(value, self.read_unary())
        return value

    def read_unary(self):
        if self.tokens[self.k][0] == "-":
            self.k += 1
            return -self.read_unary()
        return self.read_power()

    def read_power(self):
        """An atom and its powers: `^` is a power directly before an
        integer or a minus and an integer, else it is left to the wedge."""
        value = self.read_atom()
        tokens = self.tokens
        while tokens[self.k][0] == "^":
            sign, exponent = 1, tokens[self.k + 1]
            if exponent[0] == "-":
                sign, exponent = -1, tokens[self.k + 2]
            if exponent[0] != "num":
                break
            self.k += 2 if sign == 1 else 3
            value = self.power(value, sign * exponent[1])
        return value

    def power(self, base, exponent: int):
        ctx = self.ctx
        if isinstance(base, GaussianRational):
            base = ctx.const(base)
        elif isinstance(base, FormedMultiVector):
            keys = set(base.parts)
            if keys and keys != {()}:
                return self.fail("powers only apply to scalar expressions")
            mv = base.part(())
            if set(mv.components) not in (set(), {()}):
                return self.fail("powers only apply to scalar expressions")
            base = mv.components.get((), ctx.const(0))
        if exponent < 0 and len(base.terms) != 1:
            return self.fail(f"negative powers only apply to monomials, not to {base}")
        return base ** exponent

    def read_atom(self):
        tok = self.tokens[self.k]
        kind, value = tok[0], tok[1]
        self.k += 1
        ctx = self.ctx
        if kind == "num":
            if self.tokens[self.k][0] == "/" and self.tokens[self.k + 1][0] == "num":
                den = self.tokens[self.k + 1][1]
                self.k += 2
                if den == 0:
                    raise ParseError("zero denominator", tok[2], tok[3])
                return GaussianRational(Fraction(value, den))
            return GaussianRational(value)
        if kind == "name":
            if value == "i":
                return _I
            if value not in ctx.registry:
                return self.fail(value)
            return ctx.param(value)
        if kind == "vec":
            if value not in ctx.chart.vars:
                return self.fail(f"@{value}")
            return ctx.formed(ctx.mv(ctx.const(1), (value,)))
        if kind == "dbar":
            if value not in ctx.dbar:
                return self.fail(f"~{value}")
            return ctx.formed(ctx.mv(ctx.const(1)), (value,))
        if kind == "(":
            value = self.read_wedge()
            close = self.tokens[self.k]
            if close[0] != ")":
                raise ParseError(f"expected ')', found {shown(close)}", close[2], close[3])
            self.k += 1
            return value
        if kind == "end":
            raise ParseError("unexpected end of input", tok[2], tok[3])
        raise ParseError(f"unexpected token {shown(tok)}", tok[2], tok[3])


def eval_str(src, ctx: EvalContext) -> FormedMultiVector:
    """The value of `src`, a source text or its tokens, in `ctx`, read in
    one pass.  A parse error comes before any evaluation error, and of
    these the first in reading order is raised."""
    reader = _Reader(_tokens(src), ctx)
    value = reader.read_wedge()
    end = reader.tokens[reader.k]
    if end[0] != "end":
        raise ParseError(f"trailing input {shown(end)}", end[2], end[3])
    if reader.error is not None:
        raise reader.error
    return _lift(value, ctx)


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
