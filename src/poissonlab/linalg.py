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
its last nonzero coordinate in the space's pivot order: the highest
index by default, or a caller's order, such as one in which a matrix is
upper triangular, so that its columns enter on their own diagonal
entries without row combinations.  `kernel_basis` enters a matrix's
rows into such a space and reads each kernel vector off the stored
pivot rows by fraction-free back substitution.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from .laurent import InexactDivision, LaurentPoly, VarRegistry, univar_gcd
from .rational import ONE, Frozen, content

_set = object.__setattr__


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
                # a zero entry uses no variable
                if entry.terms and not entry.uses_only(entry.registry.param_vars):
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


def kernel_basis(m: LinMap, order: Sequence[int] | None = None) -> list[list[LaurentPoly]]:
    """Spanning set of the generic kernel, one primitive vector per free
    column, listed by free column.

    The rows of `m` enter a `ColumnSpace` that pivots each on its first
    nonzero column in `order` (by default the index order); with an
    order, which needs a square matrix, they enter in it too, so a
    matrix upper triangular in `order` combines rows only where a
    diagonal entry is zero.  The free columns are those that lead no
    row.  For a free column fc, x starts as the unit vector at fc, and
    each pivot row, the last in `order` first, fixes its own entry by
    fraction-free back substitution; x is then divided by x[fc] where
    that division is exact.
    """
    reg = m.registry
    n = m.n_cols
    rows = m.rows
    if order is None:
        order = range(n)
    elif m.n_rows != n:
        raise ValueError("a pivot order needs a square matrix")
    else:
        rows = [rows[i] for i in order]
    space = ColumnSpace(n, reg, order[::-1])
    for row in rows:
        space.add(row)
    # the space's order is `order` reversed, so this puts the last pivot in `order` first;
    # each pivot row comes with its nonzero columns, listed once
    pivots = [(c, space.pivot_rows[c]) for c in reversed(space.pivots)]
    pivots = [(c, row, [k for k, p in enumerate(row) if p.terms]) for c, row in pivots]
    zero = LaurentPoly.zero(reg)
    out = []
    for fc in range(n):
        if fc in space.pivot_rows:
            continue
        x = [zero] * n
        x[fc] = LaurentPoly.const(reg, 1)
        scaled = False
        for c, row, support in pivots:
            s = None
            for k in support:
                if x[k].terms:
                    t = row[k] * x[k]
                    s = t if s is None else s + t
            if s is not None and s.terms:
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
        neg = lead.re < 0 or (lead.re == 0 and lead.im < 0)
        if neg:
            vec = [-q for q in vec]
        break
    return vec


# ----------------------------------------------------------------------
# column-space elimination (image side)

class ColumnSpace:
    """Incremental span of coordinate vectors.

    A reduced vector pivots on its last nonzero coordinate in `order`, a
    permutation of range(dim) that defaults to the identity: highest-index
    pivoting.  Vectors and stored rows stay in the original coordinates;
    the order only decides which entry each row pivots on and the order
    in which `_reduce` clears them, the latest pivot first.

    A stored row is a vector of length `dim`, then a multiplier slot for
    a reduced target, then one tag slot per registered representative.
    Image columns enter with zero tags and representative i with tag i
    set to 1; row operations act on the tags too, so every row records
    which multiple of each representative it contains.  A row that
    `_reduce` combined is stored content-normalized; a vector that met no
    pivot is stored as given.
    """

    def __init__(self, dim: int, registry: VarRegistry, order: Sequence[int] | None = None):
        self.dim = dim
        self.registry = registry
        self.order = tuple(range(dim)) if order is None else tuple(order)
        if sorted(self.order) != list(range(dim)):
            raise ValueError(f"pivot order must be a permutation of range({dim})")
        self._rank = {idx: k for k, idx in enumerate(self.order)}
        self.pivot_rows: dict[int, list[LaurentPoly]] = {}
        # the pivot indices, latest in the order first: the order `_reduce` clears them in
        self.pivots: list[int] = []
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
        for idx in reversed(self.order):
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
        # behind every pivot later in the order; most new pivots go last
        k, rank = len(self.pivots), self._rank
        while k and rank[self.pivots[k - 1]] < rank[top]:
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
        """The matrix sum_j coeffs[j] * M_j."""
        zero = LaurentPoly.zero(self.registry)
        rows = [[zero] * len(self.domain) for _ in self.codomain]
        for c, entries in zip(coeffs, self.entries, strict=True):
            if c.terms:
                for i, k, e in entries:
                    rows[i][k] = rows[i][k] + c * e
        return LinMap(self.domain, self.codomain, rows, self.registry)
