"""Cech cochains on the ruled surfaces, for the property tests.

`cech_square` squares a 1-cocycle of the two-chart cover into a
2-cochain and checks the squared identities; `random_cocycle` and
`random_poisson` draw the inputs it is tested on.
"""

import random
from collections import namedtuple

from poissonlab.laurent import LaurentPoly
from poissonlab.multivector import MultiVector, combination, pushforward, schouten
from poissonlab.obstruction import NotACocycle
from poissonlab.ruled import (RuledPoisson, RuledSurface, h_bases, hyper_h1,
                              split_sq)

CechSquare = namedtuple("CechSquare", "gamma1 gamma2 eta12")


def cech_square(rs: RuledSurface, lam0: MultiVector, lam1: MultiVector,
                lam2_primed: MultiVector, theta12: MultiVector) -> CechSquare:
    """Square a 1-cocycle ({lam_j}, theta12) into the 2-cochain (gamma, eta).

    Preconditions are the cocycle identities; the returned data is
    checked against the two squared identities, everything exact.
    """
    pull = pushforward(rs.transition.inverse_map(), lam2_primed)
    for lam, label in ((lam1, "lam1"), (pull, "lam2")):
        if not schouten(lam0, lam).is_zero():
            raise NotACocycle(f"[lam0, {label}] != 0")
    if not (pull - lam1 + schouten(lam0, theta12)).is_zero():
        raise NotACocycle("lam2 - lam1 + [lam0, theta12] != 0")
    gamma1 = -schouten(lam1, lam1)
    gamma2_primed = -schouten(lam2_primed, lam2_primed)
    eta12 = -schouten(lam1 + pull, theta12)
    # squared identities, all computed exactly
    if not schouten(lam0, gamma1).is_zero():
        raise AssertionError("[lam0, gamma1] != 0")
    gamma2_pull = pushforward(rs.transition.inverse_map(), gamma2_primed)
    check = gamma1 - gamma2_pull + schouten(lam0, eta12)
    if not check.is_zero():
        raise AssertionError("-delta(gamma) + [lam0, eta] != 0")
    return CechSquare(gamma1, gamma2_primed, eta12)


def random_cocycle(rs: RuledSurface, pois: RuledPoisson, rng: random.Random):
    """A random valid 1-cocycle ({lam1, lam2}, theta12) for property tests."""
    bases = h_bases(rs)
    lam0 = pois.bivector()

    def rand_comb(basis):
        """A combination with coefficients drawn in basis order; None if all are 0."""
        return combination([rs.const(rng.randint(-2, 2)) for _ in basis], basis)

    u1 = rand_comb(bases["h0_theta"]) or rs.zero()
    # a chart-2 holomorphic field, expressed on U1 by pulling it back
    one, zp, xip = rs.const(1), rs.param("zp"), rs.param("xip")
    u2_basis = [MultiVector.term(rs.chart2, rs.registry, coeff, vars) for coeff, vars in (
        (one, ("zp",)), (zp, ("zp",)),
        (xip, ("xip",)), (xip * xip, ("xip",)), (zp * xip * xip, ("xip",)))]
    u2p = rand_comb(u2_basis)
    u2 = (pushforward(rs.transition.inverse_map(), u2p)
          if u2p is not None else rs.zero())
    theta = u2 - u1
    nu1 = rs.zero()
    nu2 = rs.zero()
    model = hyper_h1(rs, pois)
    for elem in model.elements[len(model.coker.reps):]:
        c = rng.randint(-2, 2)
        if not c:
            continue
        theta = theta + elem.scale(rs.const(c))
        n1, n2, w = split_sq(rs, schouten(lam0, elem.scale(rs.const(c))))
        assert not w
        nu1 = nu1 + n1
        nu2 = nu2 + n2
    v = rand_comb(bases["h0_sq"]) or rs.zero()
    lam1 = v - schouten(lam0, u1) + nu1
    lam2_unprimed = v - schouten(lam0, u2) - nu2
    lam2 = pushforward(rs.transition, lam2_unprimed)
    return lam1, lam2, theta


def random_poisson(rs: RuledSurface, rng: random.Random, force_e_zero=None) -> RuledPoisson:
    m = rs.m
    reg = rs.registry

    def rand_poly(cap):
        out = LaurentPoly.zero(reg)
        if cap < 0:
            return out
        for j in range(cap + 1):
            out = out + LaurentPoly.const(reg, rng.randint(-3, 3)) * rs.z(j)
        return out

    d = rand_poly(2 - m)
    e = rand_poly(2)
    f = rand_poly(m + 2)
    if force_e_zero is True:
        e = LaurentPoly.zero(reg)
    elif force_e_zero is False and e.is_zero():
        e = rs.const(1)
    return RuledPoisson(rs, d, e, f)
