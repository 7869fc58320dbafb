import random
from fractions import Fraction

import pytest

from poissonlab import hopf
from poissonlab.laurent import LaurentPoly, VarRegistry
from poissonlab.linalg import (ColumnSpace, LabeledBasis, LinMap, NotInSpan,
                               Reducer, cokernel_rep, generic_rank,
                               kernel_basis, matrix_of_map, primitive_vector,
                               quotient_coords, quotient_space, specialize,
                               ConstraintViolation)
REG = VarRegistry((), ("A", "B", "C", "e0", "e1", "e2"))


def var(n):
    return LaurentPoly.var(REG, n)


def const(v):
    return LaurentPoly.const(REG, v)


Z = LaurentPoly.zero(REG)
A, B, C = var("A"), var("B"), var("C")
E0, E1, E2 = var("e0"), var("e1"), var("e2")


def _basis(name, n):
    return LabeledBasis(name, tuple(f"{name}{i}" for i in range(n)))


def c5_matrix():
    return LinMap(_basis("x", 4), _basis("y", 3),
                  [[Z, -B, A, Z], [Z, C * -2, Z, A * 2], [Z, Z, -C, B]])


def h35_matrix():
    return LinMap(_basis("x", 4), _basis("y", 3),
                  [[-A, Z, -B, A], [Z, A * -2, C * -2, Z], [C, -B, Z, -C]])


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
                   [[const(1) if i == j else Z for j in range(3)] for i in range(3)])
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
    reps = cokernel_rep(c5_matrix())
    assert [[str(p) for p in v] for v in reps] == [["1", "0", "0"]]
    surj = LinMap(_basis("x", 3), _basis("y", 2),
                  [[const(1), Z, Z], [Z, const(1), Z]])
    assert cokernel_rep(surj) == []
    pref = [[A, B * 2, Z]]
    got = cokernel_rep(c5_matrix(), preferred=pref)
    assert got == [[A, B * 2, Z]]
    with pytest.raises(NotInSpan):
        cokernel_rep(c5_matrix(), preferred=[list(c5_matrix().column(1))])


def test_quotient_coords_and_membership():
    mat = c5_matrix()
    reps = cokernel_rep(mat)
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
    for space, mat in ((model.m1_space, model.mat1), (model.m2_space, model.mat2)):
        cols = mat.columns()
        for _ in range(3):
            coeffs = [LaurentPoly.const(reg, rng.randint(-3, 3))
                      + LaurentPoly.const(reg, rng.randint(-2, 2)) * alpha
                      + LaurentPoly.const(reg, rng.randint(-2, 2)) * delta ** -1
                      for _ in space.reps]
            target = [LaurentPoly.zero(reg)] * space.dim
            for c, rep in zip(coeffs, space.reps):
                target = [x + c * y for x, y in zip(target, rep)]
            for j in rng.sample(range(len(cols)), 4):
                d = LaurentPoly.const(reg, rng.randint(1, 5)) * alpha ** rng.randint(-1, 1)
                target = [x + d * y for x, y in zip(target, cols[j])]
            assert quotient_coords(space, target) == coeffs


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

    mat = matrix_of_map(op, dom, cod, Reducer("probe", red), REG)
    assert generic_rank(mat) == 3
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


def test_column_space_contains():
    space = ColumnSpace(3, REG)
    space.add([A, Z, C])
    space.add([Z, B, Z])
    assert space.contains([A * 2, B * 2, C * 2])
    assert not space.contains([Z, Z, const(1)])
