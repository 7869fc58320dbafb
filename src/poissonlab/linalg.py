"""Exact linear algebra over parameter Laurent polynomials.

Matrices of bracket maps with labeled bases, generic rank, kernels and
cokernel representatives.  "Generic" always means: over the fraction
field of the parameter ring, any nonzero polynomial is a valid pivot.
Degenerate strata are handled by building their matrices with the
stratum's parameter values, mirroring the case splits of the
computations this package reproduces.

Everything runs on one fraction-free elimination core, `ColumnSpace`:
vectors are eliminated once into pivot rows, and the stored rows then
answer rank, span membership, cokernel representatives and quotient
coordinates.  Representatives are registered with tag slots, so
`quotient_coords` solves a target by one reduction against the stored
rows, with no rational-function scalars.  Each reduced vector pivots on
its highest-index nonzero coordinate.  `kernel_basis` enters a matrix's
rows, reversed, into such a space and reads each kernel vector off the
stored pivot rows by fraction-free back substitution.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from .laurent import InexactDivision, LaurentPoly, VarRegistry, univar_gcd
from .rational import ONE, Frozen, content

_set = object.__setattr__
_alloc = object.__new__


class NotInSpan(Exception):
    """A reduction target fell outside the expected span."""


class ConstraintViolation(Exception):
    pass


class LabeledBasis(Frozen):
    """Ordered basis; the list order defines coordinates."""

    __slots__ = ("space_name", "elements")

    def __init__(self, space_name: str, elements: tuple):
        if len(set(elements)) != len(elements):
            raise ValueError(f"duplicate basis element in {space_name}")
        _set(self, "space_name", space_name)
        _set(self, "elements", elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, k):
        return self.elements[k]


class LinMap:
    """Matrix over parameter polynomials with labeled domain/codomain."""

    def __init__(self, domain: LabeledBasis, codomain: LabeledBasis,
                 rows: Sequence[Sequence[LaurentPoly]], registry: VarRegistry):
        self.domain = domain
        self.codomain = codomain
        self.rows = tuple(tuple(r) for r in rows)
        if len(self.rows) != len(codomain):
            raise ValueError("row count must match codomain dimension")
        for r in self.rows:
            if len(r) != len(domain):
                raise ValueError("column count must match domain dimension")
            for entry in r:
                # a zero entry uses no variable
                if entry.terms and not entry.uses_only(entry.registry.param_vars):
                    raise ValueError(f"matrix entry contains chart variables: {entry}")
        self.registry = registry

    @staticmethod
    def _of(domain: LabeledBasis, codomain: LabeledBasis, rows: tuple, registry) -> "LinMap":
        """Wrap row tuples the caller knows to fit the bases, with no chart variable."""
        m = _alloc(LinMap)
        m.domain, m.codomain, m.rows, m.registry = domain, codomain, rows, registry
        return m

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

    def __str__(self):
        body = "; ".join("[" + ", ".join(str(e) for e in r) + "]" for r in self.rows)
        return f"LinMap({self.domain.space_name} -> {self.codomain.space_name}: {body})"


def _row_content_normalize(row: list[LaurentPoly]) -> list[LaurentPoly]:
    """Divide a polynomial row by its common monomial and numeric content.

    A row whose nonzero entries are all constants has neither a monomial
    nor a polynomial common factor, so only the numeric pass runs."""
    nz = [p for p in row if p.terms]
    if not nz:
        return row
    if any(key for p in nz for key in p.terms):
        # common monomial content: per variable, the minimum exponent over all
        # nonzero entries, where a variable absent from an entry counts as 0
        keys = [dict(p.monomial_content_key()) for p in nz]
        common = {}
        for idx in set().union(*keys):
            best = min(k.get(idx, 0) for k in keys)
            if best:
                common[idx] = best
        reg = nz[0].registry
        if common:
            mono = LaurentPoly(reg, {tuple(sorted((i, -e) for i, e in common.items())): ONE})
            row = [p * mono if p.terms else p for p in row]
            nz = [p for p in row if p.terms]
        # rows in a single variable: cancel the common polynomial factor too,
        # which keeps one-parameter eliminations from doubling degrees
        single = {p.univariate_profile() for p in nz}
        if len(single) == 1 and None not in single:
            g = univar_gcd(nz, next(iter(single)))
            if g is not None:
                row = [p.exact_div(g) if p.terms else p for p in row]
                nz = [p for p in row if p.terms]
    # numeric content
    g = content(c for p in nz for c in p.terms.values())
    if not g.is_one():
        inv = ONE / g
        row = [p * inv if p.terms else p for p in row]
    return row


def _combine(p: LaurentPoly, a: Sequence[LaurentPoly], q: LaurentPoly,
             b: Sequence[LaurentPoly]) -> list[LaurentPoly]:
    """The row p*a - q*b, formed only where an entry of a or b is nonzero;
    entries zero in both stay the shared zero of `a`."""
    out = []
    for x, y in zip(a, b):
        if not y.terms:
            out.append(p * x if x.terms else x)
        elif not x.terms:
            out.append(-(q * y))
        else:
            out.append(p * x - q * y)
    return out


def generic_rank(m: LinMap) -> int:
    return image_space(m).rank


def kernel_basis(m: LinMap) -> list[list[LaurentPoly]]:
    """Spanning set of the generic kernel, one primitive vector per free
    column, listed by free column.

    The rows of `m` enter a `ColumnSpace` reversed, so each pivots on its
    first nonzero column.  The free columns are those that lead no row.
    For a free column fc, x starts as the unit vector at fc, and each
    pivot row, the last pivot column first, fixes its own entry by back
    substitution: a nonzero real constant pivot divides that entry, any
    other pivot takes the fraction-free step and scales x.  x is then
    divided by x[fc] where that division is exact.  `primitive_vector`
    cancels a real factor, so both steps give the same vector.
    """
    reg = m.registry
    n = m.n_cols
    space = ColumnSpace(n, reg)
    for row in m.rows:
        space.add(row[::-1])
    # stored pivot c is column n - 1 - c, so this puts the last pivot column first;
    # each pivot row comes back in column order, with its nonzero columns listed once
    pivots = [(n - 1 - c, space.pivot_rows[c][n - 1::-1]) for c in reversed(space.pivots)]
    pivots = [(c, row, [k for k, p in enumerate(row) if p.terms]) for c, row in pivots]
    zero = LaurentPoly.zero(reg)
    out = []
    for fc in range(n):
        if n - 1 - fc in space.pivot_rows:
            continue
        x = [zero] * n
        x[fc] = LaurentPoly.one(reg)
        scaled = False
        for c, row, support in pivots:
            s = None
            for k in support:
                if x[k].terms:
                    t = row[k] * x[k]
                    s = t if s is None else s + t
            if s is None or not s.terms:
                continue
            r = row[c].terms.get(())
            if len(row[c].terms) == 1 and r is not None and not r.b:
                x[c] = s * (-ONE / r)
            else:
                x = [row[c] * p if p.terms else p for p in x]
                x[c] = -s
                scaled = True
        if scaled:
            try:
                x = [p.exact_div(x[fc]) if p.terms else p for p in x]
            except InexactDivision:
                pass
        out.append(primitive_vector(x))
    return out


def primitive_vector(vec: list[LaurentPoly]) -> list[LaurentPoly]:
    """Content-normalize and sign-normalize a coordinate vector."""
    vec = _row_content_normalize(list(vec))
    for p in vec:
        if p.is_zero():
            continue
        lead = p.lead_scalar()
        # the sign of the real part, else of the imaginary one: d > 0
        if lead.a < 0 or (lead.a == 0 and lead.b < 0):
            vec = [-q for q in vec]
        break
    return vec


# ----------------------------------------------------------------------
# column-space elimination (image side)

class ColumnSpace:
    """Incremental span of coordinate vectors.

    A reduced vector pivots on its highest-index nonzero coordinate, and
    `_reduce` clears the pivots highest index first.

    A stored row is a vector of length `dim`, then a multiplier slot for
    a reduced target, then one tag slot per registered representative.
    Image columns enter with zero tags and representative i with tag i
    set to 1; row operations act on the tags too, so every row records
    which multiple of each representative it contains.  A row that
    `_reduce` combined is stored content-normalized; a vector that met no
    pivot is stored as given.
    """

    def __init__(self, dim: int, registry: VarRegistry):
        self.dim = dim
        self.registry = registry
        self.pivot_rows: dict[int, list[LaurentPoly]] = {}
        # the pivot indices, highest first: the order `_reduce` clears them in
        self.pivots: list[int] = []
        self.reps: list[list[LaurentPoly]] = []

    def _row(self, vec: Sequence[LaurentPoly], slot: int | None = None) -> list[LaurentPoly]:
        """`vec` followed by the multiplier and tag slots, 1 at `slot`."""
        if len(vec) != self.dim:
            raise ValueError(f"expected a vector of length {self.dim}, got {len(vec)}")
        row = list(vec) + [LaurentPoly.zero(self.registry)] * (1 + len(self.reps))
        if slot is not None:
            row[self.dim + slot] = LaurentPoly.one(self.registry)
        return row

    def _reduce(self, vec: list[LaurentPoly]) -> list[LaurentPoly]:
        for idx in self.pivots:
            if vec[idx].is_zero():
                continue
            pivot = self.pivot_rows[idx]
            pval = pivot[idx]
            vval = vec[idx]
            vec = _row_content_normalize(_combine(pval, vec, vval, pivot))
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
        # behind every higher pivot; most new pivots go last
        k = len(self.pivots)
        while k and self.pivots[k - 1] < top:
            k -= 1
        self.pivots.insert(k, top)
        self.pivot_rows[top] = red
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


def cokernel_space(m: LinMap) -> ColumnSpace:
    """The image of `m` with complement representatives registered: the
    non-pivot codomain directions after highest-index-pivot elimination
    of the columns, listed lowest index first.  A caller that wants other
    representatives registers them on the bare `image_space` with
    `ColumnSpace.add(vec, rep=True)`, which rejects one in the span.
    """
    space = image_space(m)
    zero = LaurentPoly.zero(m.registry)
    one = LaurentPoly.one(m.registry)
    free = [idx for idx in range(m.n_rows) if idx not in space.pivot_rows]
    for idx in free:
        space.add([one if k == idx else zero for k in range(m.n_rows)], rep=True)
    return space


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


def matrix_of_map(op: Callable, dom: LabeledBasis, cod: LabeledBasis, red: Callable,
                  registry: VarRegistry) -> LinMap:
    """Matrix whose column i is red(op(dom[i])), the coordinates of
    op(dom[i]) in cod."""
    columns = []
    for e in dom:
        coords = red(op(e))
        if len(coords) != len(cod):
            raise NotInSpan(
                f"{cod.space_name}: {len(coords)} coordinates, expected {len(cod)}")
        columns.append(list(coords))
    rows = [[columns[j][i] for j in range(len(dom))] for i in range(len(cod))]
    return LinMap(dom, cod, rows, registry)


class MapFamily(Frozen):
    """The linear family c -> sum_j c[j] * M_j of maps with one domain and
    codomain, each M_j kept as its nonzero entries (row, column, value)."""

    __slots__ = ("domain", "codomain", "registry", "entries")

    def __init__(self, maps: Sequence[LinMap]):
        _set(self, "domain", maps[0].domain)
        _set(self, "codomain", maps[0].codomain)
        _set(self, "registry", maps[0].registry)
        _set(self, "entries", tuple(
            tuple((i, k, e) for i, row in enumerate(m.rows) for k, e in enumerate(row) if e.terms)
            for m in maps))

    def at(self, coeffs: Sequence[LaurentPoly]) -> LinMap:
        """The matrix sum_j coeffs[j] * M_j.  Each M_j was checked when it
        was stored, so only the coefficients are: one with a chart variable
        raises ValueError."""
        zero = LaurentPoly.zero(self.registry)
        rows = [[zero] * len(self.domain) for _ in self.codomain]
        for c, entries in zip(coeffs, self.entries, strict=True):
            if c.terms and entries:
                if not c.uses_only(c.registry.param_vars):
                    raise ValueError(f"family coefficient contains chart variables: {c}")
                for i, k, e in entries:
                    rows[i][k] = rows[i][k] + c * e
        return LinMap._of(self.domain, self.codomain, tuple(map(tuple, rows)), self.registry)
