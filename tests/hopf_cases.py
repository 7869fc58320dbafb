"""Fixed Hopf cases the tests share: the Poisson strata at the default
exponent, the two strata whose families get no verdict, and the tangent
pairs of Table 6 as the paper lists them."""

from poissonlab.hopf import DEFAULT_P, stratum_bivector, strata

STRATA = strata(DEFAULT_P)

H95_CASES = ("iv-discriminant-zero", "iii-b-nonzero")


def table6_pairs(ctx):
    """The (B, A) tangent images of the contraction family at its base
    point, written out for each type: the oracle of
    `hopf.membership_pairs`, which derives them from the family."""
    z, w = ctx.z(), ctx.w()
    alpha, delta = ctx.param("alpha"), ctx.param("delta")
    A, B, C = ctx.param("A"), ctx.param("B"), ctx.param("C")
    p = ctx.p
    zero = ctx.zero()
    tag = ctx.type.tag
    ai = alpha ** -1
    di = delta ** -1
    if tag == "IV":
        return [
            (zero, ctx.mv(ai * z, ("z",)) + ctx.mv(ai * w, ("w",))),
            (zero, ctx.mv(ai * (B * z + C * w), ("z",)) + ctx.mv(-(ai * A * z), ("w",))),
            (stratum_bivector(ctx, "generic"), zero),
        ]
    if tag == "III":
        BA = B * A ** -1
        return [
            (zero, ctx.mv(delta ** -p * (z + BA * w ** p), ("z",))),
            (zero, ctx.mv(-(di * BA * p) * w ** p, ("z",)) + ctx.mv(di * w, ("w",))),
            (stratum_bivector(ctx, "A"), zero),
        ]
    if tag == "IIa":
        return [
            (ctx.mv(A * z * w, ("z", "w")),
             ctx.mv(delta ** -p * z - delta ** (-2 * p) * w ** p, ("z",))),
            (ctx.mv(-(A * p) * delta ** (p - 1) * z * w, ("z", "w")),
             ctx.mv(di * w, ("w",))),
            (ctx.mv(w ** (p + 1), ("z", "w")), zero),
        ]
    if tag == "IIb":
        return [
            (zero, ctx.mv(ai * z - alpha ** -2 * w, ("z",)) + ctx.mv(ai * w, ("w",))),
            (ctx.mv(-(A * z * z), ("z", "w")),
             ctx.mv(ai * z - alpha ** -2 * w, ("w",))),
            (ctx.mv(w * w, ("z", "w")), zero),
        ]
    return [
        (zero, ctx.mv(ai * z, ("z",))),
        (zero, ctx.mv(di * w, ("w",))),
        (ctx.mv(z * w, ("z", "w")), zero),
    ]
