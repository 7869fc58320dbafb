"""Riemann-Roch against the computed dimensions.

With H2(Theta) and H2(Wedge2 Theta) zero, as every model here takes them,
the alternating sum dim H0 - dim H1 + dim H2 of a Poisson structure's
deformation complex is chi(Theta) - chi(Wedge2 Theta), a number fixed by
the surface's Chern data: chi(Theta) = (7 c1^2 - 5 c2) / 6 and
chi(K^-1) = chi(O) + K^2 (Hirzebruch-Riemann-Roch).  On a Hirzebruch
surface F_m, c1^2 = 8, c2 = 4 and chi(O) = 1, so chi(Theta) = 6,
chi(Wedge2 Theta) = 9 and the sum is -3; on Hopf surfaces and on E x P1
every Chern number and chi(O) vanish, so the sum is 0.  The dimensions
come from eliminations over chosen bases, which this checks from the
outside; an alternating sum misses errors that cancel.
"""

from fractions import Fraction

import pytest

from poissonlab import hopf, products, ruled


def euler_difference(c1_sq: int, c2: int, chi_o: int) -> Fraction:
    """chi(Theta) - chi(Wedge2 Theta) of a compact complex surface."""
    return Fraction(7 * c1_sq - 5 * c2, 6) - (chi_o + c1_sq)


RULED = euler_difference(8, 4, 1)
HOPF = EP1 = euler_difference(0, 0, 0)


def alternating(dc) -> int:
    return dc.dim_h0 - dc.dim_h1 + dc.dim_h2


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_every_hopf_stratum_sums_to_zero(p):
    rows = [hopf.stratum_row(hopf.model_for(t), stratum) for t, stratum in hopf.strata(p)]
    rows.append(hopf.stratum_row(hopf.model_for(hopf.HopfType("IV")), "degenerate"))
    for row in rows:
        assert row["dim_h0"] - row["dim_h1"] + row["dim_h2"] == HOPF, row


@pytest.mark.parametrize("coeffs", [(1, 0, 0), (0, 0, 0)], ids=("nonzero", "zero"))
def test_both_ep1_strata_sum_to_zero(coeffs):
    assert alternating(products.ep1_model(*coeffs)) == EP1


@pytest.mark.parametrize("m", range(ruled.MAX_M + 1))
def test_ruled_complexes_and_bases_sum_to_the_chern_numbers(m):
    rs = ruled.surface_for(m)
    zero, one = rs.const(0), rs.const(1)
    # e = 1, and e = 0 with f = 1: the strata e != 0 and e = 0 from m = 4 on
    for d, e, f in ((zero, one, zero), (zero, zero, one)):
        assert alternating(ruled.complex_model(rs, ruled.RuledPoisson(rs, d, e, f))) == RULED
    # with H2 zero the basis sizes alone give chi(Theta) and chi(Wedge2 Theta)
    sizes = {name: len(basis) for name, basis in rs.bases.items()}
    assert sizes["h0_theta"] - sizes["h1_theta"] == 6
    assert sizes["h0_sq"] - sizes["h1_sq"] == 9
