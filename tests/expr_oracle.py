"""The two-pass reading of expressions, kept as the reference of the
one-pass reader in `poissonlab.expr`: a recursive-descent parser builds a
tree of frozen nodes (`parse`), and `test_expr._reference_evaluate` walks
it with every value a formed field.

The grammar and the parse errors, with their messages and positions, are
those of `poissonlab.expr`; the tokens come from its `tokenize`."""

from fractions import Fraction

from poissonlab.expr import ParseError, shown, tokenize
from poissonlab.rational import Frozen, GaussianRational

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
            raise ParseError(f"expected {kind!r}, found {shown(tok)}", tok[2], tok[3])
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


def parse(src):
    """The tree of `src`, a source text or its tokens."""
    parser = _Parser(tokenize(src) if isinstance(src, str) else src)
    node = parser.parse_expr()
    end = parser.next()
    if end[0] != "end":
        raise ParseError(f"trailing input {shown(end)}", end[2], end[3])
    return node
