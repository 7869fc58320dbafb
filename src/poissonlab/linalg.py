"""Exact linear algebra over parameter Laurent polynomials.

Matrices of bracket maps with labeled bases, generic rank by
fraction-free elimination, kernels, cokernel representatives and
specialization to parameter strata.  "Generic" always means: over the
fraction field of the parameter ring, any nonzero polynomial is a
valid pivot.  Degenerate strata are handled only by explicit
specialization, mirroring the case splits of the computations this
package reproduces.

Everything on the image side runs on one fraction-free elimination
core, `ColumnSpace`: a matrix's columns are eliminated once into
pivot rows, and the stored rows then answer span membership, cokernel
representatives and quotient coordinates.  Representatives are
registered with tag slots, so `quotient_coords` solves a target by one
reduction against the stored rows, with no rational-function scalars.
Rank and kernels use `_echelon`, whose back substitution is the only
user of the `_Frac` scalars.
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
    """Incremental span of coordinate vectors with highest-index pivoting.

    A stored row is a vector of length `dim`, then a multiplier slot for
    a reduced target, then one tag slot per registered representative.
    Image columns enter with zero tags and representative i with tag i
    set to 1; row operations act on the tags too, so every row records
    which multiple of each representative it contains.
    """

    def __init__(self, dim: int, registry: VarRegistry):
        self.dim = dim
        self.registry = registry
        self.pivot_rows: dict[int, list[LaurentPoly]] = {}
        self.reps: list[list[LaurentPoly]] = []

    def _row(self, vec: Sequence[LaurentPoly], slot: int | None = None) -> list[LaurentPoly]:
        """`vec` followed by the multiplier and tag slots, 1 at `slot`."""
        if len(vec) != self.dim:
            raise ValueError(f"expected a vector of length {self.dim}, got {len(vec)}")
        row = list(vec) + [LaurentPoly.zero(self.registry)] * (1 + len(self.reps))
        if slot is not None:
            row[self.dim + slot] = LaurentPoly.const(self.registry, 1)
        return row

    def _reduce(self, vec: list[LaurentPoly]) -> list[LaurentPoly]:
        for idx in sorted(self.pivot_rows, reverse=True):
            if vec[idx].is_zero():
                continue
            pivot = self.pivot_rows[idx]
            pval = pivot[idx]
            vval = vec[idx]
            vec = [pval * a - vval * b for a, b in zip(vec, pivot)]
            vec = _row_content_normalize(vec)
        return vec

    def add(self, vec: Sequence[LaurentPoly], rep: bool = False) -> bool:
        """Insert a vector; returns True if it enlarged the span.

        With rep=True the vector is registered as the next representative,
        and one that does not enlarge the span raises NotInSpan.
        """
        zero = LaurentPoly.zero(self.registry)
        if rep:
            self.reps.append(list(vec))
            for row in self.pivot_rows.values():
                row.append(zero)
        red = self._reduce(self._row(vec, len(self.reps) if rep else None))
        top = None
        for idx in range(self.dim - 1, -1, -1):
            if not red[idx].is_zero():
                top = idx
                break
        if top is None:
            if rep:
                self.reps.pop()
                for row in self.pivot_rows.values():
                    row.pop()
                raise NotInSpan("representative lies in the span of the image "
                                "and the earlier representatives")
            return False
        self.pivot_rows[top] = _row_content_normalize(red)
        return True

    def contains(self, vec: Sequence[LaurentPoly]) -> bool:
        red = self._reduce(self._row(vec))
        return all(p.is_zero() for p in red[:self.dim])

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)


def quotient_space(image_cols: Iterable[Sequence[LaurentPoly]],
                   reps: Iterable[Sequence[LaurentPoly]],
                   dim: int, registry: VarRegistry) -> ColumnSpace:
    """The span of `image_cols`, with `reps` registered for quotient_coords."""
    space = ColumnSpace(dim, registry)
    for col in image_cols:
        space.add(col)
    for vec in reps:
        space.add(vec, rep=True)
    return space


def image_space(m: LinMap) -> ColumnSpace:
    return quotient_space(m.columns(), (), m.n_rows, m.registry)


def cokernel_space(m: LinMap, preferred: Sequence[Sequence[LaurentPoly]] | None = None
                   ) -> ColumnSpace:
    """The image of `m` with complement representatives registered.

    Default representatives are the non-pivot codomain directions after
    highest-index-pivot elimination of the columns, listed lowest index
    first.  A `preferred` list of coordinate vectors is validated and
    used instead when it forms a complement basis.
    """
    space = image_space(m)
    if preferred is None:
        zero = LaurentPoly.zero(m.registry)
        one = LaurentPoly.const(m.registry, 1)
        preferred = [[one if k == idx else zero for k in range(m.n_rows)]
                     for idx in range(m.n_rows) if idx not in space.pivot_rows]
    elif len(preferred) != m.n_rows - space.rank:
        raise NotInSpan(f"preferred representatives: expected {m.n_rows - space.rank}, "
                        f"got {len(preferred)}")
    for vec in preferred:
        space.add(vec, rep=True)
    return space


def cokernel_rep(m: LinMap, preferred: Sequence[Sequence[LaurentPoly]] | None = None
                 ) -> list[list[LaurentPoly]]:
    """The representatives of `cokernel_space(m, preferred)`."""
    return [list(v) for v in cokernel_space(m, preferred).reps]


def quotient_coords(space: ColumnSpace, target: Sequence[LaurentPoly]) -> list[LaurentPoly]:
    """Coordinates of `target` on the representatives of `space`, modulo
    its image columns.

    The target enters with multiplier 1 and is reduced against the stored
    rows.  A reduced row m*target + sum_i t_i*rep_i + (image) that is zero
    in the first `dim` entries gives coordinates -t_i / m.  Raises
    NotInSpan when the target leaves the span of image and representatives
    or a coordinate is not a Laurent polynomial.
    """
    red = space._reduce(space._row(target, 0))
    if not all(p.is_zero() for p in red[:space.dim]):
        raise NotInSpan("target not in image + representative span")
    mult = red[space.dim]
    out = []
    for tag in red[space.dim + 1:]:
        try:
            out.append((-tag).exact_div(mult))
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
