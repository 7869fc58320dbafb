"""Fixed Hopf cases the tests share: the Poisson strata at the default
exponent, and the two strata whose families get no verdict."""

from poissonlab.hopf import DEFAULT_P, strata

STRATA = strata(DEFAULT_P)

H95_CASES = ("iv-discriminant-zero", "iii-b-nonzero")
