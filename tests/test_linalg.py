import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from poissonlab import hopf
from poissonlab.laurent import InexactDivision, LaurentPoly, VarRegistry
from poissonlab.linalg import (ColumnSpace, LabeledBasis, LinMap, NotInSpan,
                               cokernel_space, generic_rank, image_space,
                               kernel_basis, matrix_of_map, primitive_vector,
                               quotient_coords, quotient_space,
                               ConstraintViolation, _combine, _row_content_normalize)
from poissonlab.multivector import combination
from poissonlab.rational import ONE, GaussianRational
import cover_matrices
REG = VarRegistry((), ("A", "B", "C", "e0", "e1", "e2"))


def var(n):
    return LaurentPoly.var(REG, n)


def const(v):
    return LaurentPoly.const(REG, v)


Z = LaurentPoly.zero(REG)
A, B, C = var("A"), var("B"), var("C")
E0, E1, E2 = var("e0"), var("e1"), var("e2")


def specialize(m: LinMap, assignment: dict, nonzero=()) -> LinMap:
    """Evaluate parameters exactly; `nonzero` names may not be sent to 0."""
    reg = m.registry
    subs = {}
    for name, value in assignment.items():
        poly = value if isinstance(value, LaurentPoly) else LaurentPoly.const(reg, value)
        if name in set(nonzero) and poly.is_zero():
            raise ConstraintViolation(f"parameter {name} must stay nonzero on this stratum")
        subs[name] = poly
    rows = [[e.substitute(subs) for e in r] for r in m.rows]
    return LinMap(m.domain, m.codomain, rows, reg)


def _kills(m: LinMap, v) -> bool:
    """Whether m sends the coordinate vector v to zero."""
    zero = LaurentPoly.zero(m.registry)
    return all(sum((e * c for e, c in zip(row, v)), zero).is_zero() for row in m.rows)


def _basis(name, n):
    return LabeledBasis(name, tuple(f"{name}{i}" for i in range(n)))


def c5_matrix():
    return LinMap(_basis("x", 4), _basis("y", 3),
                  [[Z, -B, A, Z], [Z, C * -2, Z, A * 2], [Z, Z, -C, B]], REG)


def h35_matrix():
    return LinMap(_basis("x", 4), _basis("y", 3),
                  [[-A, Z, -B, A], [Z, A * -2, C * -2, Z], [C, -B, Z, -C]], REG)


def banded(m):
    rows = []
    for i in range(m - 3):
        row = [Z] * (m - 1)
        row[i], row[i + 1], row[i + 2] = E0, E1, E2
        rows.append(row)
    return LinMap(_basis("a", m - 1), _basis("b", m - 3), rows, REG)


def test_generic_ranks():
    assert generic_rank(c5_matrix()) == 2
    assert generic_rank(h35_matrix()) == 2
    assert generic_rank(banded(5)) == 2
    assert generic_rank(banded(7)) == 4
    zero = LinMap(_basis("x", 4), _basis("y", 3), [[Z] * 4] * 3, REG)
    assert generic_rank(zero) == 0


def test_kernels_match_named_vectors():
    kc5 = kernel_basis(c5_matrix())
    assert [[str(p) for p in v] for v in kc5] == [
        ["1", "0", "0", "0"], ["0", "A", "B", "C"]]
    kh35 = kernel_basis(h35_matrix())
    assert [[str(p) for p in v] for v in kh35] == [
        ["B", "C", "-A", "0"], ["1", "0", "0", "1"]]
    ident = LinMap(_basis("x", 3), _basis("y", 3),
                   [[const(1) if i == j else Z for j in range(3)] for i in range(3)], REG)
    assert kernel_basis(ident) == []


def test_rank_plus_kernel_is_columns():
    for mat in (c5_matrix(), h35_matrix(), banded(5), banded(8)):
        assert generic_rank(mat) + len(kernel_basis(mat)) == mat.n_cols


def test_rank_invariant_under_row_column_ops():
    rng = random.Random(17)
    for mat in (c5_matrix(), h35_matrix(), banded(6)):
        base = generic_rank(mat)
        for _ in range(10):
            rows = [list(r) for r in mat.rows]
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            if i != j:
                f = const(rng.randint(1, 4))
                rows[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
            k, l = rng.randrange(mat.n_cols), rng.randrange(mat.n_cols)
            if k != l:
                f = const(rng.randint(1, 4))
                for r in rows:
                    r[k] = r[k] + f * r[l]
            twisted = LinMap(mat.domain, mat.codomain, rows, REG)
            assert generic_rank(twisted) == base


def test_schwartz_zippel_cross_check():
    rng = random.Random(23)
    for mat in (c5_matrix(), h35_matrix(), banded(6), banded(9)):
        r = generic_rank(mat)
        for _ in range(5):
            assignment = {n: Fraction(rng.randint(1, 10 ** 6)) for n in REG.param_vars}
            assert generic_rank(specialize(mat, assignment)) == r


def test_specialize():
    sp = specialize(c5_matrix(), {"A": 1, "B": 0, "C": 0})
    assert generic_rank(sp) == 2
    zero = specialize(c5_matrix(), {"A": 0, "B": 0, "C": 0})
    assert generic_rank(zero) == 0
    assert len(kernel_basis(zero)) == 4
    bz = specialize(banded(6), {"e0": 0, "e1": 0, "e2": 0})
    assert all(e.is_zero() for row in bz.rows for e in row)
    with pytest.raises(ConstraintViolation):
        specialize(c5_matrix(), {"A": 0}, nonzero=("A",))


def test_specialize_monomial_assignment():
    # a parameter may be sent to a monomial in other parameters
    sp = specialize(banded(5), {"e0": var("A") ** 2})
    assert sp.rows[0][0] == var("A") ** 2


def test_cokernel_default_and_preferred():
    reps = cokernel_space(c5_matrix()).reps
    assert [[str(p) for p in v] for v in reps] == [["1", "0", "0"]]
    surj = LinMap(_basis("x", 3), _basis("y", 2),
                  [[const(1), Z, Z], [Z, const(1), Z]], REG)
    assert cokernel_space(surj).reps == []
    # preferred representatives are registered on the bare image
    space = image_space(c5_matrix())
    space.add([A, B * 2, Z], rep=True)
    assert space.reps == [[A, B * 2, Z]]
    with pytest.raises(NotInSpan):
        image_space(c5_matrix()).add(list(c5_matrix().column(1)), rep=True)


def test_quotient_coords_and_membership():
    mat = c5_matrix()
    reps = cokernel_space(mat).reps
    space = quotient_space(mat.columns(), reps, 3, REG)
    coords = quotient_coords(space, [const(1), Z, Z])
    assert [str(p) for p in coords] == ["1"]
    # an image vector has zero quotient coordinates
    img = mat.column(1)
    coords = quotient_coords(space, img)
    assert all(p.is_zero() for p in coords)
    with pytest.raises(NotInSpan):
        quotient_coords(quotient_space([[const(1), Z, Z]], [], 3, REG), [Z, const(1), Z])


def test_quotient_coords_non_laurent_coordinate():
    # target 1 = (1 / (A + 1)) * rep, which is not a Laurent polynomial
    space = quotient_space([], [[A + const(1)]], 1, REG)
    with pytest.raises(NotInSpan):
        quotient_coords(space, [const(1)])


def test_representative_in_the_image_is_rejected():
    mat = c5_matrix()
    with pytest.raises(NotInSpan):
        quotient_space(mat.columns(), [mat.column(1)], 3, REG)
    # so is one that depends on an earlier representative modulo the image
    with pytest.raises(NotInSpan):
        quotient_space(mat.columns(), [[const(1), Z, Z], [A, Z, Z]], 3, REG)


@pytest.mark.parametrize("tag,p", [("IV", None), ("III", 2), ("IIa", 2), ("IIb", None),
                                   ("IIc", None)])
def test_quotient_coords_recovers_hopf_class_coordinates(tag, p):
    t = hopf.HopfType(tag, p)
    ctx = hopf.make_context(t)
    model = hopf.cover_model(ctx, hopf.default_cap(t))
    reg = ctx.registry
    alpha, delta = LaurentPoly.var(reg, "alpha"), LaurentPoly.var(reg, "delta")
    rng = random.Random(f"{tag}{p}")
    for grade, m in ((1, model.m1), (2, model.m2)):
        space = cover_matrices.truncated_space(ctx, grade, model.cap)
        mat = cover_matrices.cover_matrix(ctx, space)
        mono = cover_matrices.mono_coords(ctx, space)
        reps = [mono(e) for e in m]
        cols = mat.columns()
        for _ in range(3):
            coeffs = [LaurentPoly.const(reg, rng.randint(-3, 3))
                      + LaurentPoly.const(reg, rng.randint(-2, 2)) * alpha
                      + LaurentPoly.const(reg, rng.randint(-2, 2)) * delta ** -1
                      for _ in reps]
            target = [LaurentPoly.zero(reg)] * len(space.basis)
            for c, rep in zip(coeffs, reps):
                target = [x + c * y for x, y in zip(target, rep)]
            for j in rng.sample(range(len(cols)), 4):
                d = LaurentPoly.const(reg, rng.randint(1, 5)) * alpha ** rng.randint(-1, 1)
                target = [x + d * y for x, y in zip(target, cols[j])]
            # the model's reduction drops the terms off weight 0
            assert model.reduce_m(grade)(combination(target, space.basis)) == coeffs


# sha256 of the kernel vectors of the grade-1 and grade-2 id - f_* and the class coordinates
# in M1 and M2 of every unit vector, printed one per line
COVER_DIGESTS = {
    ("IV", None): "d9405c1db8283c81d2827b1a87723c11d90d370372ac37eba6eda90f541fbcab",
    ("III", 2): "794c6af9d257c1de0ad9d2f1c94267c49fe7092fc730bcd82fd6304348de094e",
    ("IIa", 2): "4e4047833b92e3a40eaba16160d2bc613d5a388a60bd7f525b3f2beb66ecabfa",
    ("IIb", None): "c5a586cf077de44a771d67f3fee7f527ed934d46e45895aedb635732b489f8d7",
    ("IIc", None): "20767aabb1eef73cf1c1de124e031d62876dfe3fa0b074c1b044e757b2fd4148",
}


@pytest.mark.parametrize("tag,p", list(COVER_DIGESTS))
def test_hopf_cover_kernels_and_quotients_are_pinned(tag, p):
    t = hopf.HopfType(tag, p)
    ctx = hopf.make_context(t)
    model = hopf.cover_model(ctx, hopf.default_cap(t))
    lines = []
    for grade in (1, 2):
        space = cover_matrices.truncated_space(ctx, grade, model.cap)
        mat = cover_matrices.cover_matrix(ctx, space)
        lines.append(f"{mat.n_rows}x{mat.n_cols}")
        for vec in kernel_basis(mat):
            lines.append("ker " + ", ".join(map(str, vec)))
        for k in range(mat.n_rows):
            try:
                coords = model.reduce_m(grade)(space.basis[k])
                lines.append(f"e{k} " + ", ".join(map(str, coords)))
            except NotInSpan as exc:
                lines.append(f"e{k} NotInSpan: {exc}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == COVER_DIGESTS[(tag, p)]


def test_matrix_of_map_and_reducer_idempotence():
    dom = LabeledBasis("monomials", ("p0", "p1", "p2"))
    cod = LabeledBasis("monomials2", ("q0", "q1", "q2"))

    def op(label):
        k = int(label[1])
        return ("q", (k + 1) % 3)

    def red(value):
        coords = [Z, Z, Z]
        coords[value[1]] = const(1)
        return coords

    mat = matrix_of_map(op, dom, cod, red, REG)
    assert generic_rank(mat) == 3
    # a reducer that returns the wrong number of coordinates is named by
    # its codomain
    with pytest.raises(NotInSpan, match="monomials2: 2 coordinates, expected 3"):
        matrix_of_map(op, dom, cod, lambda value: red(value)[:2], REG)
    # idempotence: reducing a rebuilt element reproduces the coordinates
    rng = random.Random(9)
    for _ in range(10):
        k = rng.randrange(3)
        coords = red(("q", k))
        again = red(("q", coords.index(const(1))))
        assert again == coords


def test_primitive_vector_normalization():
    v = [Z, A * C ** -1, B * C ** -1, const(1)]
    assert [str(p) for p in primitive_vector(v)] == ["0", "A", "B", "C"]
    v2 = [-A, -B]
    assert [str(p) for p in primitive_vector(v2)] == ["A", "B"]


def test_zero_entries_stay_shared():
    space = ColumnSpace(4, REG)
    space.add([A, Z, Z, C])
    space.add([B, Z, Z, A])
    for row in space.pivot_rows.values():
        assert row[1] is Z and row[2] is Z
    mat = LinMap(_basis("x", 4), _basis("y", 2), [[A, Z, Z, B], [C, Z, Z, A]], REG)
    assert [[str(p) for p in v] for v in kernel_basis(mat)] == [
        ["0", "1", "0", "0"], ["0", "0", "1", "0"]]


def test_column_space_contains():
    space = ColumnSpace(3, REG)
    space.add([A, Z, C])
    space.add([Z, B, Z])
    assert space.contains([A * 2, B * 2, C * 2])
    assert not space.contains([Z, Z, const(1)])


def test_column_space_pivot_order():
    # pivots fall on the highest-index nonzero entry
    space = ColumnSpace(3, REG)
    assert space.add([A, B, Z]) and list(space.pivot_rows) == [1]
    assert space.add([C, Z, const(1)]) and sorted(space.pivot_rows) == [1, 2]
    assert not space.add([A * C * 2, B * C, A])
    assert space.contains([A + C, B, const(1)]) and not space.contains([Z, Z, const(1)])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.sampled_from((0, 1, -2)), min_size=5, max_size=5), max_size=7))
def test_column_space_keeps_its_pivots_in_reduction_order(vectors):
    # `pivots` lists the pivot indices highest first, as add goes
    space = ColumnSpace(5, REG)
    for vec in vectors:
        space.add([const(v) if v else Z for v in vec])
        assert space.pivots == sorted(space.pivot_rows, reverse=True)


def test_column_space_stores_an_uncombined_column_as_given():
    space = ColumnSpace(3, REG)
    col = [A * 2, Z, B * C * 2]
    assert space.add(col)
    assert all(stored is entry for stored, entry in zip(space.pivot_rows[2], col))
    # a combined row is stored content-normalized, as _reduce leaves it:
    # 2*B*C*(A, 4*B, B*C) - B*C*(2*A, 0, 2*B*C) = (0, 8*B^2*C, 0)
    assert space.add([A, B * 4, B * C])
    assert [str(p) for p in space.pivot_rows[1][:3]] == ["0", "1", "0"]


def test_kernel_basis_normalization_over_several_parameters():
    # today's kernel vectors; a kernel read off ColumnSpace column relations
    # gives (A+B)(B+C), -(A+B)(A+C) for the second matrix instead
    one_row = LinMap(_basis("x", 2), _basis("y", 1), [[A + C, (A + B) * (A + C)]], REG)
    assert [[str(p) for p in v] for v in kernel_basis(one_row)] == [["A + B", "-1"]]
    two_rows = LinMap(_basis("x", 2), _basis("y", 2),
                      [[A + C, B + C], [(A + B) * (A + C), (A + B) * (B + C)]], REG)
    assert [[str(p) for p in v] for v in kernel_basis(two_rows)] == [["B + C", "-A - C"]]


# ----------------------------------------------------------------------
# the row-echelon kernel that kernel_basis replaced, kept as a reference:
# echelon form by row swaps, back substitution over rational functions


class _Frac:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = LaurentPoly.const(num.registry, 1)
        elif den.is_zero():
            raise ZeroDivisionError
        if num.is_zero():
            den = LaurentPoly.const(num.registry, 1)
        elif not _is_one(den):
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

    def __mul__(self, other):
        return _Frac(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return _Frac(self.num * other.den, self.den * other.num)

    def __neg__(self):
        return _Frac(-self.num, self.den)


def _is_one(p):
    return len(p.terms) == 1 and p.terms.get(()) == ONE


def _echelon(rows):
    rows = [list(r) for r in rows]
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    pivots, r = [], 0
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if not rows[i][c].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, n_rows):
            if not rows[i][c].is_zero():
                rows[i] = _row_content_normalize(_combine(piv, rows[i], rows[i][c], rows[r]))
        pivots.append((r, c))
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def _reference_kernel(m):
    """(free columns, kernel vectors) of m, one vector per free column."""
    one, zero = LaurentPoly.const(m.registry, 1), LaurentPoly.zero(m.registry)
    ech, pivots = _echelon(m.rows) if m.rows else ([], [])
    free_cols = [c for c in range(m.n_cols) if c not in {c for _, c in pivots}]
    out = []
    for fc in free_cols:
        x = [_Frac(zero)] * m.n_cols
        x[fc] = _Frac(one)
        for ri, ci in reversed(pivots):
            s = None
            for k in range(ci + 1, m.n_cols):
                if ech[ri][k].terms and not x[k].is_zero():
                    t = _Frac(ech[ri][k]) * x[k]
                    s = t if s is None else s + t
            if s is not None:
                x[ci] = -(s / _Frac(ech[ri][ci]))
        den = one
        for xf in x:
            if not _is_one(xf.den):
                den = den * xf.den
        out.append(primitive_vector([xf.num * den if _is_one(xf.den)
                                     else (xf.num * den).exact_div(xf.den) for xf in x]))
    return free_cols, out


@st.composite
def ab_polys(draw):
    """Polynomials in A and B over Q(i), zero a third of the time."""
    if draw(st.integers(0, 2)) == 0:
        return Z
    terms = {}
    for _ in range(draw(st.integers(1, 2))):
        key = tuple((idx, e) for idx, e in enumerate(draw(st.tuples(st.integers(0, 2),
                                                                   st.integers(0, 1)))) if e)
        terms[key] = GaussianRational(draw(st.integers(-3, 3).filter(bool)),
                                      draw(st.integers(-1, 1)))
    return LaurentPoly(REG, terms)


def _check_kernel(m, got, free_cols, expected):
    """got matches the reference kernel: the same free columns, each free
    column the vector's last nonzero entry, the vectors proportional to the
    reference ones, in the kernel and normalized."""
    assert len(got) == len(expected) == len(free_cols)
    for v, r, fc in zip(got, expected, free_cols):
        assert [k for k, p in enumerate(v) if p.terms][-1] == fc
        assert all(v[k].is_zero() for k in free_cols if k != fc)
        assert all(a * r[fc] == b * v[fc] for a, b in zip(v, r))
        assert _kills(m, v)
        assert primitive_vector(v) == v


def _random_matrix(data, entries) -> LinMap:
    """A small matrix of `entries`, with dependent columns, a zero column and
    a zero row some of the time."""
    n_rows, n_cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    cols = [[data.draw(entries) for _ in range(n_rows)] for _ in range(n_cols)]
    # dependent columns: a column becomes p * (an earlier column) + q * (another)
    for j in range(1, n_cols):
        if data.draw(st.booleans()):
            i, k = data.draw(st.integers(0, j - 1)), data.draw(st.integers(0, j - 1))
            p, q = data.draw(entries), data.draw(entries)
            cols[j] = [p * x + q * y for x, y in zip(cols[i], cols[k])]
    zero_col = data.draw(st.integers(-1, n_cols - 1))
    if zero_col >= 0:
        cols[zero_col] = [Z] * n_rows
    rows = [[cols[j][i] for j in range(n_cols)] for i in range(n_rows)]
    zero_row = data.draw(st.integers(-1, n_rows - 1))
    if zero_row >= 0:
        rows[zero_row] = [Z] * n_cols
    return LinMap(_basis("x", n_cols), _basis("y", n_rows), rows, REG)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kernel_basis_matches_the_reference_kernel(data):
    m = _random_matrix(data, ab_polys())
    free_cols, expected = _reference_kernel(m)
    _check_kernel(m, kernel_basis(m), free_cols, expected)


def _fraction_free_kernel_basis(m):
    """kernel_basis with the fraction-free step at every pivot: x is scaled
    by the pivot wherever a real constant pivot now divides instead."""
    reg = m.registry
    n = m.n_cols
    space = ColumnSpace(n, reg)
    for row in m.rows:
        space.add(row[::-1])
    pivots = [(n - 1 - c, space.pivot_rows[c][n - 1::-1]) for c in reversed(space.pivots)]
    pivots = [(c, row, [k for k, p in enumerate(row) if p.terms]) for c, row in pivots]
    zero = LaurentPoly.zero(reg)
    out = []
    for fc in range(n):
        if n - 1 - fc in space.pivot_rows:
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


_rationals = st.builds(lambda a, d: const(Fraction(a, d)), st.integers(-3, 3), st.integers(1, 3))
_gaussians = st.builds(lambda a, b, d: const(GaussianRational(Fraction(a, d), b)),
                       st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), entries=st.sampled_from(("Q", "Q(i)", "Q(i)[A,B]")))
def test_kernel_basis_equals_the_fraction_free_oracle(data, entries):
    m = _random_matrix(data, {"Q": _rationals, "Q(i)": _gaussians,
                              "Q(i)[A,B]": st.one_of(ab_polys(), _gaussians)}[entries])
    got, want = kernel_basis(m), _fraction_free_kernel_basis(m)
    assert got == want
    assert [[str(p) for p in v] for v in got] == [[str(p) for p in v] for v in want]


def test_gaussian_and_parameter_pivots_keep_the_fraction_free_step(monkeypatch):
    # x is divided by x[fc] only after a fraction-free step; the Gaussian
    # pivot 1 + i and the parameter pivot A + 1 both take it, the real
    # pivots 2 and -1/3 divide
    one_i = const(GaussianRational(1, 1))
    divisions = []
    exact_div = LaurentPoly.exact_div
    monkeypatch.setattr(LaurentPoly, "exact_div",
                        lambda p, q: divisions.append(q) or exact_div(p, q))
    a1 = A + const(1)
    for rows, divided in (([[one_i, const(3)]], True),
                          ([[one_i, Z, const(1)], [Z, a1, const(1)]], True),
                          ([[const(2), Z, const(1)], [Z, const(Fraction(-1, 3)), const(5)]], False)):
        m = LinMap(_basis("x", len(rows[0])), _basis("y", len(rows)), rows, REG)
        divisions.clear()
        got = kernel_basis(m)
        assert bool(divisions) is divided
        assert got == _fraction_free_kernel_basis(m)
        assert all(_kills(m, v) for v in got)
        if rows[1:] and rows[1][1] == a1:
            # x[fc] = (1+i)(A+1) does not divide x, so the Gaussian factor stays:
            # dividing by the pivot 1 + i would have given another vector
            assert got == [[a1, one_i, -(one_i * a1)]]



def _family(name):
    from poissonlab import obstruction, products, ruled

    kind, _, key = name.partition(":")
    if kind == "ruled":
        return ruled.make_surface(int(key)).maps
    frame = {"ExP1": products._ep1_frame, "TxP1": products._tp1_frame}[kind]
    return obstruction.stored((kind,), frame)[2][key]


def _checked_sum(family, coeffs) -> LinMap:
    """sum_j coeffs[j] * M_j, built through the checking constructor."""
    zero = LaurentPoly.zero(family.registry)
    rows = [[zero] * len(family.domain) for _ in family.codomain]
    for c, entries in zip(coeffs, family.entries, strict=True):
        for i, k, e in entries:
            rows[i][k] = rows[i][k] + c * e
    return LinMap(family.domain, family.codomain, rows, family.registry)


FAMILIES = ("ruled:0", "ruled:3", "ruled:7", "ExP1:h0", "ExP1:h1", "TxP1:h0", "TxP1:sq_cube")


@pytest.mark.parametrize("name", FAMILIES)
def test_map_family_at_equals_the_checked_sum(name):
    family = _family(name)
    reg = family.registry
    rng = random.Random(name)
    monomials = [LaurentPoly.one(reg)] + [LaurentPoly.var(reg, p, rng.choice((-1, 1, 2)))
                                          for p in reg.param_vars]
    for _ in range(4):
        coeffs = [LaurentPoly.const(reg, rng.randint(-2, 2)) * rng.choice(monomials)
                  + LaurentPoly.const(reg, rng.randint(-2, 2)) * rng.choice(monomials)
                  for _ in family.entries]
        got, want = family.at(coeffs), _checked_sum(family, coeffs)
        assert got.domain is want.domain and got.codomain is want.codomain
        assert got.registry == want.registry and got.rows == want.rows


@pytest.mark.parametrize("name", FAMILIES)
def test_map_family_at_rejects_a_coefficient_with_a_chart_variable(name):
    family = _family(name)
    reg = family.registry
    zero = LaurentPoly.zero(reg)
    for j, entries in enumerate(family.entries):
        if entries:
            coeffs = [zero] * len(family.entries)
            coeffs[j] = LaurentPoly.var(reg, reg.chart_vars[-1]) + LaurentPoly.one(reg)
            with pytest.raises(ValueError, match="contains chart variables"):
                family.at(coeffs)
