"""Exact linear algebra over parameter Laurent polynomials.

Matrices of bracket maps with labeled bases, generic rank by
fraction-free elimination, kernels, cokernel representatives and
specialization to parameter strata.  "Generic" always means: over the
fraction field of the parameter ring, any nonzero polynomial is a
valid pivot.  Degenerate strata are handled only by explicit
specialization, mirroring the case splits of the computations this
package reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .laurent import InexactDivision, LaurentPoly, VarRegistry, univar_gcd
from .rational import GaussianRational


class NotInSpan(Exception):
    """A reduction target fell outside the expected span."""


class ConstraintViolation(Exception):
    pass


@dataclass(frozen=True)
class LabeledBasis:
    """Ordered basis; the list order defines coordinates."""

    space_name: str
    elements: tuple

    def __post_init__(self):
        seen = []
        for e in self.elements:
            if any(e == s for s in seen):
                raise ValueError(f"duplicate basis element in {self.space_name}")
            seen.append(e)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, k):
        return self.elements[k]


class Reducer:
    """Normal-form map from raw elements to coordinates in a basis."""

    def __init__(self, name: str, fn: Callable):
        self.name = name
        self.fn = fn

    def __call__(self, value):
        return self.fn(value)

    def __repr__(self):
        return f"<Reducer {self.name}>"


class LinMap:
    """Matrix over parameter polynomials with labeled domain/codomain."""

    def __init__(self, domain: LabeledBasis, codomain: LabeledBasis,
                 rows: Sequence[Sequence[LaurentPoly]], registry: VarRegistry | None = None):
        self.domain = domain
        self.codomain = codomain
        self.rows = tuple(tuple(r) for r in rows)
        if len(self.rows) != len(codomain):
            raise ValueError("row count must match codomain dimension")
        for r in self.rows:
            if len(r) != len(domain):
                raise ValueError("column count must match domain dimension")
            for entry in r:
                if not entry.uses_only(entry.registry.param_vars):
                    raise ValueError(f"matrix entry contains chart variables: {entry}")
                if registry is None:
                    registry = entry.registry
        if registry is None:
            raise ValueError("registry required for a matrix with no entries")
        self.registry = registry

    @property
    def n_rows(self):
        return len(self.rows)

    @property
    def n_cols(self):
        return len(self.rows[0]) if self.rows else len(self.domain)

    def column(self, j: int) -> list[LaurentPoly]:
        return [r[j] for r in self.rows]

    def columns(self) -> list[list[LaurentPoly]]:
        return [self.column(j) for j in range(self.n_cols)]

    def apply(self, coords: Sequence[LaurentPoly]) -> list[LaurentPoly]:
        out = []
        for r in self.rows:
            s = None
            for entry, c in zip(r, coords):
                t = entry * c
                s = t if s is None else s + t
            out.append(s)
        return out

    def __str__(self):
        body = "; ".join("[" + ", ".join(str(e) for e in r) + "]" for r in self.rows)
        return f"LinMap({self.domain.space_name} -> {self.codomain.space_name}: {body})"


# ----------------------------------------------------------------------
# internal rational-function scalars for back substitution

class _Frac:
    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.const(num.registry, 1)
        if den.is_zero():
            raise ZeroDivisionError
        if num.is_zero():
            den = LaurentPoly.const(num.registry, 1)
        else:
            try:
                num = num.exact_div(den)
                den = LaurentPoly.const(num.registry, 1)
            except InexactDivision:
                pass
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        return _Frac(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return _Frac(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return _Frac(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.num.is_zero():
            raise ZeroDivisionError
        return _Frac(self.num * other.den, self.den * other.num)

    def __neg__(self):
        return _Frac(-self.num, self.den)


def _row_content_normalize(row: list[LaurentPoly]) -> list[LaurentPoly]:
    """Divide a polynomial row by its common monomial and numeric content."""
    nz = [p for p in row if not p.is_zero()]
    if not nz:
        return row
    # common monomial content: per variable, the minimum exponent over all
    # nonzero entries, where a variable absent from an entry counts as 0
    union = {idx for p in nz for key in p.terms for idx, _ in key}
    common = {}
    for idx in union:
        best = None
        for p in nz:
            m = min(dict(key).get(idx, 0) for key in p.terms)
            best = m if best is None else min(best, m)
        if best:
            common[idx] = best
    reg = nz[0].registry
    if common:
        mono = LaurentPoly(reg, {tuple(sorted((i, -e) for i, e in common.items())): GaussianRational(1)})
        row = [p * mono if not p.is_zero() else p for p in row]
        nz = [p for p in row if not p.is_zero()]
    # rows in a single variable: cancel the common polynomial factor too,
    # which keeps one-parameter eliminations from doubling degrees
    single = {p.univariate_profile() for p in nz}
    if len(single) == 1 and None not in single:
        g = univar_gcd(nz, next(iter(single)))
        if g is not None:
            row = [p.exact_div(g) if not p.is_zero() else p for p in row]
            nz = [p for p in row if not p.is_zero()]
    # numeric content
    from .rational import rational_gcd

    parts = []
    for p in nz:
        for c in p.terms.values():
            if c.re:
                parts.append(c.re)
            if c.im:
                parts.append(c.im)
    g = rational_gcd(parts)
    if g and g != 1:
        inv = GaussianRational(1) / GaussianRational(g)
        row = [p * inv for p in row]
    return row


def _echelon(rows: list[list[LaurentPoly]]):
    """Fraction-free row echelon; returns (rows, pivot positions).

    Rows with a zero entry in the pivot column are left untouched and
    each combined row is divided by its content, which keeps the sparse
    near-diagonal matrices in scope from blowing up.  Only invertible
    row operations over the parameter fraction field are used, so ranks
    and kernels are exact.
    """
    rows = [list(r) for r in rows]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n_cols):
        pr = None
        for i in range(r, n_rows):
            if not rows[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, n_rows):
            factor = rows[i][c]
            if factor.is_zero():
                continue
            new = [piv * rows[i][k] - factor * rows[r][k] for k in range(n_cols)]
            rows[i] = _row_content_normalize(new)
        pivots.append((r, c))
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def generic_rank(m: LinMap) -> int:
    if not m.rows or m.n_cols == 0:
        return 0
    _, pivots = _echelon([list(r) for r in m.rows])
    return len(pivots)


def kernel_basis(m: LinMap) -> list[list[LaurentPoly]]:
    """Spanning set of the generic kernel, denominator-cleared and primitive."""
    reg = m.registry
    one = LaurentPoly.const(reg, 1)
    zero = LaurentPoly.zero(reg)
    if m.n_cols == 0:
        return []
    if not m.rows:
        ech, pivots = [], []
    else:
        ech, pivots = _echelon([list(r) for r in m.rows])
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(m.n_cols) if c not in pivot_cols]
    out = []
    for fc in free_cols:
        x: list[_Frac] = [_Frac(zero) for _ in range(m.n_cols)]
        x[fc] = _Frac(one)
        for (ri, ci) in reversed(pivots):
            s = _Frac(zero)
            for k in range(ci + 1, m.n_cols):
                if not ech[ri][k].is_zero() and not x[k].is_zero():
                    s = s + _Frac(ech[ri][k]) * x[k]
            x[ci] = -(s / _Frac(ech[ri][ci]))
        # clear denominators
        den = one
        for xf in x:
            if not xf.den == one:
                den = den * xf.den
        vec = []
        for xf in x:
            vec.append((xf.num * den).exact_div(xf.den))
        out.append(primitive_vector(vec))
    return out


def primitive_vector(vec: list[LaurentPoly]) -> list[LaurentPoly]:
    """Content-normalize and sign-normalize a coordinate vector."""
    vec = _row_content_normalize(list(vec))
    for p in vec:
        if p.is_zero():
            continue
        lead = p.lead_scalar()
        neg = lead.re < 0 or (lead.re == 0 and lead.im < 0)
        if neg:
            vec = [-q for q in vec]
        break
    return vec


# ----------------------------------------------------------------------
# column-space elimination (image side)

class ColumnSpace:
    """Incremental span of coordinate vectors with highest-index pivoting."""

    def __init__(self, dim: int, registry: VarRegistry):
        self.dim = dim
        self.registry = registry
        self.pivot_rows: dict[int, list[LaurentPoly]] = {}

    def _reduce(self, vec: list[LaurentPoly]) -> list[LaurentPoly]:
        vec = list(vec)
        for idx in sorted(self.pivot_rows, reverse=True):
            if vec[idx].is_zero():
                continue
            pivot = self.pivot_rows[idx]
            pval = pivot[idx]
            vval = vec[idx]
            vec = [pval * a - vval * b for a, b in zip(vec, pivot)]
            vec = _row_content_normalize(vec)
        return vec

    def add(self, vec: list[LaurentPoly]) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        red = self._reduce(vec)
        top = None
        for idx in range(self.dim - 1, -1, -1):
            if not red[idx].is_zero():
                top = idx
                break
        if top is None:
            return False
        self.pivot_rows[top] = _row_content_normalize(red)
        return True

    def contains(self, vec: list[LaurentPoly]) -> bool:
        red = self._reduce(vec)
        return all(p.is_zero() for p in red)

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def pivot_indices(self) -> set[int]:
        return set(self.pivot_rows)


def image_space(m: LinMap) -> ColumnSpace:
    space = ColumnSpace(m.n_rows, m.registry)
    for col in m.columns():
        space.add(col)
    return space


def cokernel_rep(m: LinMap, preferred: Sequence[Sequence[LaurentPoly]] | None = None
                 ) -> list[list[LaurentPoly]]:
    """Deterministic complement representatives of the image in the codomain.

    Default representatives are the non-pivot codomain directions after
    highest-index-pivot elimination of the columns, listed lowest index
    first.  A `preferred` list of coordinate vectors is validated and
    used instead when it forms a complement basis.
    """
    reg = m.registry
    space = image_space(m)
    corank = m.n_rows - space.rank
    if preferred is not None:
        if len(preferred) != corank:
            raise NotInSpan(
                f"preferred representatives: expected {corank}, got {len(preferred)}")
        probe = ColumnSpace(m.n_rows, reg)
        for col in m.columns():
            probe.add(col)
        for vec in preferred:
            if not probe.add(list(vec)):
                raise NotInSpan("preferred representative lies in the image span")
        return [list(v) for v in preferred]
    reps = []
    zero = LaurentPoly.zero(reg)
    one = LaurentPoly.const(reg, 1)
    for idx in range(m.n_rows):
        if idx not in space.pivot_indices():
            vec = [zero] * m.n_rows
            vec[idx] = one
            reps.append(vec)
    return reps


def quotient_coords(image_cols: Sequence[Sequence[LaurentPoly]],
                    reps: Sequence[Sequence[LaurentPoly]],
                    target: Sequence[LaurentPoly],
                    registry: VarRegistry) -> list[LaurentPoly]:
    """Coordinates of `target` on `reps` modulo the span of `image_cols`.

    Solves [image | reps] y = target over the parameter fraction field and
    returns the reps block of y (unique when reps complement the image).
    Raises NotInSpan when the system is inconsistent or a coordinate is
    not a Laurent polynomial.
    """
    cols = [list(c) for c in image_cols] + [list(r) for r in reps]
    n = len(target)
    k = len(cols)
    zero = LaurentPoly.zero(registry)
    one = LaurentPoly.const(registry, 1)
    # rows of the augmented system
    rows = [[cols[j][i] for j in range(k)] + [target[i]] for i in range(n)]
    frows = [[_Frac(e) for e in r] for r in rows]
    pivots = []
    r = 0
    for c in range(k):
        pr = None
        for i in range(r, n):
            if not frows[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        frows[r], frows[pr] = frows[pr], frows[r]
        piv = frows[r][c]
        for i in range(r + 1, n):
            if frows[i][c].is_zero():
                continue
            f = frows[i][c] / piv
            frows[i] = [a - f * b for a, b in zip(frows[i], frows[r])]
        pivots.append((r, c))
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if not frows[i][k].is_zero():
            raise NotInSpan("target not in image + representative span")
    x = [_Frac(zero) for _ in range(k)]
    for (ri, ci) in reversed(pivots):
        s = _Frac(zero)
        for kk in range(ci + 1, k):
            if not frows[ri][kk].is_zero() and not x[kk].is_zero():
                s = s + frows[ri][kk] * x[kk]
        x[ci] = (frows[ri][k] - s) / frows[ri][ci]
    out = []
    for xf in x[len(image_cols):]:
        try:
            out.append(xf.num.exact_div(xf.den))
        except InexactDivision:
            raise NotInSpan("quotient coordinate is not a Laurent polynomial") from None
    return out


def matrix_of_map(op: Callable, dom: LabeledBasis, cod: LabeledBasis, red: Reducer,
                  registry: VarRegistry | None = None) -> LinMap:
    """Matrix whose column i is red(op(dom[i])) in cod coordinates."""
    columns = []
    for e in dom:
        coords = red(op(e))
        if len(coords) != len(cod):
            raise NotInSpan(
                f"reducer {red.name} returned {len(coords)} coordinates, expected {len(cod)}")
        columns.append(list(coords))
    rows = [[columns[j][i] for j in range(len(dom))] for i in range(len(cod))]
    return LinMap(dom, cod, rows, registry)


def specialize(m: LinMap, assignment: dict, nonzero: Iterable[str] = ()) -> LinMap:
    """Evaluate parameters exactly; `nonzero` names may not be sent to 0."""
    reg = m.registry
    subs = {}
    for name, value in assignment.items():
        poly = value if isinstance(value, LaurentPoly) else LaurentPoly.const(reg, value)
        if name in set(nonzero) and poly.is_zero():
            raise ConstraintViolation(f"parameter {name} must stay nonzero on this stratum")
        subs[name] = poly
    rows = [[e.substitute(subs) for e in r] for r in m.rows]
    return LinMap(m.domain, m.codomain, rows)
