"""Exact multivariate Laurent polynomials over Q(i).

Variables live in a registry that splits them into chart variables
(coordinates on some chart) and formal parameters (deformation and
stratum constants).  Exponents may be negative; terms are stored
sparsely as tuples of (variable index, exponent) pairs.

No polynomial stores a zero coefficient.  Only the public constructor
`LaurentPoly(registry, terms)` cleans its input; every internal result
is built by `_of_terms` from a term dict that holds no zero.  Ring
operations test for the exact class `LaurentPoly` before any scalar check.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

from .rational import ONE, GaussianRational


class LaurentError(Exception):
    pass


class UnknownVariable(LaurentError):
    pass


class NonInvertibleSubstitution(LaurentError):
    """A negatively-powered variable was mapped to a non-unit."""


class InexactDivision(LaurentError):
    pass


class VarRegistry:
    """Fixed, ordered inventory of chart variables and parameters.

    The two lists are disjoint and the order never changes once the
    registry exists; term keys and monomial orders depend on it.
    """

    __slots__ = ("chart_vars", "param_vars", "_index")

    def __init__(self, chart_vars: Iterable[str], param_vars: Iterable[str] = ()):
        self.chart_vars = tuple(chart_vars)
        self.param_vars = tuple(param_vars)
        if len(set(self.chart_vars) | set(self.param_vars)) != len(self.chart_vars) + len(self.param_vars):
            raise ValueError("chart and parameter variable names must be disjoint")
        self._index = {name: k for k, name in enumerate(self.chart_vars + self.param_vars)}

    @property
    def names(self):
        return self.chart_vars + self.param_vars

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other):
        return (
            isinstance(other, VarRegistry)
            and self.chart_vars == other.chart_vars
            and self.param_vars == other.param_vars
        )

    def __hash__(self):
        return hash((self.chart_vars, self.param_vars))

    def __repr__(self):
        return f"VarRegistry(chart={self.chart_vars}, params={self.param_vars})"


def _mul_keys(a, b):
    """Merge two sparse exponent keys, dropping zero sums."""
    if not a:
        return b
    if not b:
        return a
    # disjoint variable-index ranges: the sorted keys just concatenate
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    out = {}
    for idx, e in a:
        out[idx] = e
    for idx, e in b:
        e2 = out.get(idx, 0) + e
        if e2:
            out[idx] = e2
        else:
            out.pop(idx, None)
    return tuple(sorted(out.items()))


def _accumulate(out: dict, terms: dict):
    """Add `terms` into the term dict `out` in place, dropping zero sums."""
    for key, coef in terms.items():
        s = out.get(key)
        if s is None:
            out[key] = coef
        else:
            s = s + coef
            if s.is_zero():
                del out[key]
            else:
                out[key] = s


def _power(x, n: int):
    """x ** n for n >= 1 by repeated squaring, with no product by 1."""
    result = None
    while True:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if not n:
            return result
        x = x * x


_alloc = object.__new__


class LaurentPoly:
    """Sparse Laurent polynomial; no zero coefficients are stored."""

    __slots__ = ("registry", "terms")

    def __init__(self, registry: VarRegistry, terms: Mapping[tuple, GaussianRational] | None = None):
        self.registry = registry
        clean = {}
        if terms:
            for key, coef in terms.items():
                if not coef.is_zero():
                    clean[key] = coef
        self.terms = clean

    @staticmethod
    def _of_terms(registry: VarRegistry, terms: dict) -> "LaurentPoly":
        """Wrap `terms`, which the caller owns and knows to hold no zero."""
        p = _alloc(LaurentPoly)
        p.registry = registry
        p.terms = terms
        return p

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def zero(registry: VarRegistry) -> "LaurentPoly":
        return LaurentPoly._of_terms(registry, {})

    @staticmethod
    def const(registry: VarRegistry, value) -> "LaurentPoly":
        c = GaussianRational.of(value)
        return LaurentPoly._of_terms(registry, {} if c.is_zero() else {(): c})

    @staticmethod
    def one(registry: VarRegistry) -> "LaurentPoly":
        return LaurentPoly._of_terms(registry, {(): ONE})

    @staticmethod
    def var(registry: VarRegistry, name: str, power: int = 1) -> "LaurentPoly":
        idx = registry.index(name)
        if power == 0:
            return LaurentPoly.one(registry)
        return LaurentPoly._of_terms(registry, {((idx, power),): ONE})

    def _check(self, other: "LaurentPoly"):
        if self.registry is not other.registry and self.registry != other.registry:
            raise LaurentError("registry mismatch")

    def _coerce(self, other):
        if other.__class__ is LaurentPoly and other.registry is self.registry:
            return other
        if isinstance(other, LaurentPoly):
            self._check(other)
            return other
        return LaurentPoly.const(self.registry, other)

    # ------------------------------------------------------------------
    # ring operations

    def is_zero(self) -> bool:
        return not self.terms

    # Polynomials are never mutated, so a zero operand of a sum, and a
    # factor 1 of a product, return the other operand itself, shared
    # rather than copied.

    def __add__(self, other):
        other = self._coerce(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        _accumulate(out, other.terms)
        return LaurentPoly._of_terms(self.registry, out)

    __radd__ = __add__

    def __neg__(self):
        if not self.terms:
            return self
        return LaurentPoly._of_terms(self.registry, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if not other.terms:
            return self
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if other.__class__ is not LaurentPoly:
            if isinstance(other, (int, Fraction, GaussianRational)):
                c = GaussianRational.of(other)
                if c.is_zero():
                    return LaurentPoly.zero(self.registry)
                if not self.terms or c.is_one():
                    return self
                return LaurentPoly._of_terms(self.registry, {k: v * c for k, v in self.terms.items()})
            other = self._coerce(other)
        elif other.registry is not self.registry:
            self._check(other)
        if not self.terms:
            return self
        if not other.terms:
            return other
        # a factor 1 returns the other operand, and a constant factor scales
        # the other operand's terms, in their order
        a = self.terms.get(()) if len(self.terms) == 1 else None
        b = other.terms.get(()) if len(other.terms) == 1 else None
        if b is not None and b.is_one():
            return self
        if a is not None and a.is_one():
            return other
        if b is not None:
            return LaurentPoly._of_terms(self.registry, {k: v * b for k, v in self.terms.items()})
        if a is not None:
            return LaurentPoly._of_terms(self.registry, {k: a * v for k, v in other.terms.items()})
        out = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = _mul_keys(ka, kb)
                c = ca * cb
                s = out.get(key)
                s = c if s is None else s + c
                if s.is_zero():
                    del out[key]
                else:
                    out[key] = s
        return LaurentPoly._of_terms(self.registry, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.monomial_inverse() ** (-n)
        if n == 0:
            return LaurentPoly.one(self.registry)
        if len(self.terms) != 1:
            return _power(self, n)
        # a monomial: scale its exponents, raise its coefficient
        (key, coef), = self.terms.items()
        return LaurentPoly._of_terms(
            self.registry,
            {tuple((idx, e * n) for idx, e in key): coef if coef.is_one() else _power(coef, n)})

    def monomial_inverse(self) -> "LaurentPoly":
        """Inverse of a single-term polynomial."""
        if len(self.terms) != 1:
            raise NonInvertibleSubstitution("only unit monomials are invertible")
        (key, coef), = self.terms.items()
        inv_key = tuple((idx, -e) for idx, e in key)
        return LaurentPoly(self.registry, {inv_key: GaussianRational(1) / coef})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = LaurentPoly.const(self.registry, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.registry == other.registry and self.terms == other.terms

    def __hash__(self):
        return hash((self.registry, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    # ------------------------------------------------------------------
    # calculus and structure

    def partial(self, name: str) -> "LaurentPoly":
        """Formal partial derivative; d/dz z^-1 = -z^-2."""
        idx = self.registry.index(name)
        out = {}
        for key, coef in self.terms.items():
            kd = dict(key)
            e = kd.get(idx, 0)
            if e == 0:
                continue
            kd[idx] = e - 1
            if kd[idx] == 0:
                del kd[idx]
            # lowering one exponent keeps distinct keys distinct: no two terms meet
            out[tuple(sorted(kd.items()))] = coef * e
        return LaurentPoly._of_terms(self.registry, out)

    def substitute(self, mapping: Mapping[str, "LaurentPoly"]) -> "LaurentPoly":
        """Substitute variables by polynomials; unmapped variables pass through.

        A variable carrying a negative exponent anywhere may only map to
        an invertible unit monomial.
        """
        idx_map = {}
        for name, value in mapping.items():
            idx_map[self.registry.index(name)] = self._coerce(value)
        out: dict = {}
        cache: dict[tuple[int, int], LaurentPoly] = {}
        for key, coef in self.terms.items():
            factor = LaurentPoly.const(self.registry, coef)
            residual = {}
            for idx, e in key:
                if idx not in idx_map:
                    residual[idx] = e
                    continue
                ck = (idx, e)
                if ck not in cache:
                    val = idx_map[idx]
                    if e < 0 and len(val.terms) != 1:
                        raise NonInvertibleSubstitution(
                            f"variable {self.registry.names[idx]!r} has exponent {e} "
                            "but maps to a sum"
                        )
                    cache[ck] = val ** e
                factor = factor * cache[ck]
            if residual:
                factor = factor * LaurentPoly(
                    self.registry, {tuple(sorted(residual.items())): GaussianRational(1)}
                )
            _accumulate(out, factor.terms)
        return LaurentPoly._of_terms(self.registry, out)

    def is_holomorphic(self, names: Iterable[str]) -> bool:
        """True iff no term has a negative exponent on any listed variable."""
        idxs = {self.registry.index(n) for n in names}
        for key in self.terms:
            for idx, e in key:
                if idx in idxs and e < 0:
                    return False
        return True

    def variables(self) -> set[str]:
        names = self.registry.names
        return {names[idx] for key in self.terms for idx, _ in key}

    def uses_only(self, names: Iterable[str]) -> bool:
        return self.variables() <= set(names)

    def degree_range(self, name: str) -> tuple[int, int]:
        """(min, max) exponent of `name` across terms; (0, 0) if absent."""
        idx = self.registry.index(name)
        lo = hi = 0
        first = True
        for key in self.terms:
            e = dict(key).get(idx, 0)
            if first:
                lo = hi = e
                first = False
            else:
                lo = min(lo, e)
                hi = max(hi, e)
        return (lo, hi)

    def coefficients_in(self, name: str) -> dict[int, "LaurentPoly"]:
        """Collect terms by the exponent of `name`: exponent -> coefficient."""
        idx = self.registry.index(name)
        buckets: dict[int, dict] = {}
        for key, coef in self.terms.items():
            kd = dict(key)
            e = kd.pop(idx, 0)
            buckets.setdefault(e, {})[tuple(sorted(kd.items()))] = coef
        return {e: LaurentPoly._of_terms(self.registry, terms)
                for e, terms in sorted(buckets.items())}

    def constant_value(self) -> GaussianRational:
        if not self.terms:
            return GaussianRational(0)
        if set(self.terms) != {()}:
            raise LaurentError("not a constant polynomial")
        return self.terms[()]

    # ------------------------------------------------------------------
    # exact division (used by fraction-free elimination)

    def _order(self, key):
        # graded-lex on the exponent vector, read off the sparse key: with n
        # variables, an entry (i, e) becomes (n - i, e) for e > 0 and
        # (i - n, e) for e < 0, so it sorts above every later index when
        # e > 0 and below it when e < 0, and the closing (0, 0) stands for
        # the zero exponents after the last entry
        n = len(self.registry._index)
        return (sum(e for _, e in key),
                tuple((n - i if e > 0 else i - n, e) for i, e in key) + ((0, 0),))

    def _lead_key(self):
        return max(self.terms, key=self._order)

    def monomial_content_key(self) -> tuple:
        """Per-variable minimum exponent, as a sparse key (empty for 0)."""
        if not self.terms:
            return ()
        idxs = {idx for key in self.terms for idx, _ in key}
        mins = {}
        for idx in idxs:
            mins[idx] = min(dict(key).get(idx, 0) for key in self.terms)
        return tuple(sorted((i, e) for i, e in mins.items() if e))

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / divisor; raises InexactDivision otherwise."""
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("exact_div by zero")
        if self.is_zero():
            return self
        if len(divisor.terms) == 1 and () in divisor.terms:
            # exact over Q(i): term by term, in the order long division
            # emits the terms, the leading one first
            c = divisor.terms[()]
            return LaurentPoly._of_terms(self.registry, {
                k: self.terms[k] / c for k in sorted(self.terms, key=self._order, reverse=True)})
        # split off monomial parts so both operands are min-normalized
        one = GaussianRational(1)
        ms = self.monomial_content_key()
        md = divisor.monomial_content_key()
        num = self * LaurentPoly(self.registry, {tuple((i, -e) for i, e in ms): one}) if ms else self
        den = divisor * LaurentPoly(self.registry, {tuple((i, -e) for i, e in md): one}) if md else divisor
        quo = LaurentPoly.zero(self.registry)
        rem = num
        dlead = den._lead_key()
        dcoef = den.terms[dlead]
        dlead_d = dict(dlead)
        guard = 0
        while not rem.is_zero():
            guard += 1
            if guard > 200000:
                raise InexactDivision("division did not terminate")
            rlead = rem._lead_key()
            rd = dict(rlead)
            qk = {}
            for idx, e in dlead_d.items():
                if rd.get(idx, 0) < e:
                    raise InexactDivision("leading term not divisible")
                qk[idx] = rd.get(idx, 0) - e
            for idx in rd:
                if idx not in dlead_d:
                    qk[idx] = rd[idx]
            qk = {i: e for i, e in qk.items() if e}
            t = LaurentPoly(self.registry, {tuple(sorted(qk.items())): rem.terms[rlead] / dcoef})
            quo = quo + t
            rem = rem - t * den
        shift_key = _mul_keys(ms, tuple((i, -e) for i, e in md))
        if shift_key:
            quo = quo * LaurentPoly(self.registry, {shift_key: one})
        return quo

    # ------------------------------------------------------------------
    # normalization helpers

    def univariate_profile(self) -> str | None:
        """The single variable this polynomial uses, if there is one."""
        names = self.variables()
        if len(names) == 1:
            return next(iter(names))
        return None

    def lead_scalar(self) -> GaussianRational:
        if self.is_zero():
            return GaussianRational(0)
        if len(self.terms) == 1:
            return next(iter(self.terms.values()))
        return self.terms[self._lead_key()]

    # ------------------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.registry.names
        parts = []
        for key, coef in self.sorted_terms():
            factors = []
            for idx, e in key:
                factors.append(names[idx] if e == 1 else f"{names[idx]}^{e}")
            body = "*".join(factors)
            cs = str(coef)
            if body:
                if coef.is_one():
                    parts.append(body)
                elif coef == GaussianRational(-1):
                    parts.append(f"-{body}")
                else:
                    cs2 = f"({cs})" if ("+" in cs[1:] or "-" in cs[1:]) else cs
                    parts.append(f"{cs2}*{body}")
            else:
                parts.append(f"({cs})" if ("+" in cs[1:] or "-" in cs[1:]) else cs)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"<LaurentPoly {self}>"


def univar_gcd(polys: list["LaurentPoly"], name: str) -> "LaurentPoly | None":
    """Monic gcd of Laurent polynomials in the single variable `name`.

    Returns None when any input involves another variable; the zero
    inputs are ignored and the result is shifted to have order zero.
    Each remainder is made monic, which a gcd, unique up to a unit, allows:
    non-monic remainders over Q(i) swell (Knuth, TAOCP vol. 2, 4.6.1).
    """
    reg = None
    dense: list[dict[int, GaussianRational]] = []
    for p in polys:
        if p.is_zero():
            continue
        if not p.uses_only((name,)):
            return None
        reg = p.registry
        idx = reg.index(name)
        d: dict[int, GaussianRational] = {}
        for key, coeff in p.terms.items():
            d[dict(key).get(idx, 0)] = coeff
        lo = min(d)
        dense.append({e - lo: c for e, c in d.items()})
    if reg is None or not dense:
        return None

    def degree(d):
        return max(d)

    def monic(d):
        lead = d[degree(d)]
        return {e: c / lead for e, c in d.items()}

    def rem(a, b):
        """a modulo the monic b."""
        a = dict(a)
        db = degree(b)
        while a and degree(a) >= db:
            da = degree(a)
            f = a[da]
            for e, c in b.items():
                s = a.get(e + da - db, GaussianRational(0)) - f * c
                if s.is_zero():
                    a.pop(e + da - db, None)
                else:
                    a[e + da - db] = s
        return a

    g = monic(dense[0])
    for d in dense[1:]:
        a, b = d, g
        while b:
            r = rem(a, b)
            a, b = b, monic(r) if r else r
        g = a
        if degree(g) == 0:
            break
    if degree(g) == 0:
        return None
    idx = reg.index(name)
    return LaurentPoly(reg, {((idx, e),) if e else (): c for e, c in g.items()})
