"""The classify_stream workload: seeded request rounds and their oracles.

Every round holds the same multiset of request kinds, shuffled by the
seed, with seeded random coefficients:

- `classify ruled:m` for m = 0..12; for m >= 4 once on e = 0 and once on
  e != 0 (numeric coefficients, so elimination runs over Q);
- `classify hopf:*` on each of the nine Poisson strata (p = 2);
- `classify ep1` on the zero and twice on the nonzero stratum, and
  `classify tp1` on classes 1, 2 and 3;
- four `bracket` requests on multivectors with Gaussian (non-real)
  coefficients and free parameters;
- one `verify-family` (cycling through all families) and one `mc-check`.

Keeping the multiset fixed per round makes the latency distribution
depend on the program, not on the seed.  Every structure is generated
inside its validity region (ruled degree caps, the stratum's invariant
bivector form), so input validation in the program changes neither the
outputs nor the failure count.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction

FAMILIES = ("f2", "f3", "f4", "f5", "hopf-iv", "hopf-iii", "hopf-iia",
            "hopf-iib", "hopf-iic", "ep1", "tp1")
FAMILY_H1 = {"f2": ("dim_h1", 10), "f3": ("dim_h1", 11), "f4": ("dim_h1", 5),
             "f5": ("dim_h1", 5), "hopf-iv": ("h1_dim", 3), "hopf-iii": ("h1_dim", 3),
             "hopf-iia": ("h1_dim", 3), "hopf-iib": ("h1_dim", 3),
             "hopf-iic": ("h1_dim", 3)}
HOPF_P = 2
# Monomials (exponent of z, exponent of w) allowed in each stratum's
# invariant bivector coefficient.
HOPF_FORMS = {
    "IV": {(2, 0), (1, 1), (0, 2)},
    "III": {(1, 1), (0, HOPF_P + 1)},
    "IIa": {(0, HOPF_P + 1)},
    "IIb": {(0, 2)},
    "IIc": {(1, 1)},
}


class InvalidInput(Exception):
    """The generator produced a structure outside its validity region."""


def _scalar(rng, nonzero=False):
    while True:
        v = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3)))
        if v or not nonzero:
            return v


def _num(v) -> str:
    return f"({v})"


def _poly(coeffs, var) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if c:
            terms.append(_num(c) if k == 0 else f"{_num(c)}*{var}^{k}")
    return "(" + " + ".join(terms) + ")" if terms else ""


def _rand_coeffs(rng, count, nonzero):
    coeffs = [_scalar(rng) for _ in range(count)]
    if nonzero and not any(coeffs):
        coeffs[rng.randrange(count)] = _scalar(rng, nonzero=True)
    return coeffs


# ----------------------------------------------------------------------
# request builders: each returns (kind, argv, expected)

def check_ruled_caps(m, d, e, f):
    """Global Poisson structure on F_m: deg d <= 2-m, deg e <= 2, deg f <= m+2."""
    for name, coeffs, cap in (("d", d, 2 - m), ("e", e, 2), ("f", f, m + 2)):
        top = max((k for k, c in enumerate(coeffs) if c), default=None)
        if top is not None and top > cap:
            raise InvalidInput(f"F{m}: deg {name} = {top} exceeds cap {cap}")
    if not (any(d) or any(e) or any(f)):
        raise InvalidInput(f"F{m}: zero structure")


def ruled_request(rng, m, e_zero):
    d = _rand_coeffs(rng, 3 - m, nonzero=False) if m <= 2 else []
    e = [Fraction(0)] * 3 if e_zero else _rand_coeffs(rng, 3, nonzero=True)
    f = _rand_coeffs(rng, m + 3, nonzero=e_zero)
    check_ruled_caps(m, d, e, f)
    parts = [p for p in (_poly(d, "z"), f"{_poly(e, 'z')}*xi" if any(e) else "",
                         f"{_poly(f, 'z')}*xi^2" if any(f) else "") if p]
    src = "(" + " + ".join(parts) + ")*@z^@xi"
    if m >= 4 and e_zero:
        expected = {"verdict": "obstructed", "dim_h2": m - 3, "stratum": "e=0"}
    else:
        expected = {"verdict": "unobstructed_h2_zero", "dim_h2": 0,
                    "stratum": "any" if m <= 3 else "e!=0"}
    return f"ruled:{'e=0' if m >= 4 and e_zero else 'generic'}", \
        ["classify", f"ruled:{m}", "--poisson", src], expected


def hopf_request(rng, tag, stratum):
    coeff = {}  # (exp z, exp w) -> scalar
    p = HOPF_P
    if tag == "IV" and stratum == "generic":
        while True:
            a, b, c = (_scalar(rng) for _ in range(3))
            if 4 * a * c - b * b:
                break
        coeff = {(2, 0): a, (1, 1): b, (0, 2): c}
    elif tag == "IV" and stratum == "degenerate":
        s, u, v = _scalar(rng, True), _scalar(rng), _scalar(rng, True)
        coeff = {(2, 0): s * u * u, (1, 1): 2 * s * u * v, (0, 2): s * v * v}
    elif tag == "III" and stratum == "B":
        coeff = {(0, p + 1): _scalar(rng, True)}
    elif tag == "III" and stratum == "A":
        coeff = {(1, 1): _scalar(rng, True), (0, p + 1): _scalar(rng)}
    elif stratum == "any":
        (mono,) = HOPF_FORMS[tag]
        coeff = {mono: _scalar(rng, True)}
    coeff = {k: c for k, c in coeff.items() if c}
    if not set(coeff) <= HOPF_FORMS[tag]:
        raise InvalidInput(f"hopf {tag}: {sorted(coeff)} is not an invariant bivector")
    if (stratum == "zero") != (not coeff):
        raise InvalidInput(f"hopf {tag}: coefficients do not lie on stratum {stratum}")
    terms = [f"{_num(c)}*z^{i}*w^{j}" for (i, j), c in sorted(coeff.items())]
    src = "(" + " + ".join(terms) + ")*@z^@w" if terms else "0*@z^@w"
    spec = f"hopf:{tag}" + (f":p={p}" if tag in ("III", "IIa") else "")
    verdict = {"zero": "obstructed", "degenerate": "undetermined",
               "B": "undetermined"}.get(stratum, "unobstructed_mc")
    return f"hopf:{tag}:{stratum}", ["classify", spec, "--poisson", src], \
        {"verdict": verdict}


def ep1_request(rng, zero):
    coeffs = [Fraction(0)] * 3 if zero else _rand_coeffs(rng, 3, nonzero=True)
    src = (_poly(coeffs, "xi") or "0") + "*@z^@xi"
    expected = ({"verdict": "obstructed", "stratum": "zero", "dim_h1": 7, "dim_h2": 3}
                if zero else
                {"verdict": "unobstructed_mc", "stratum": "nonzero", "dim_h1": 3, "dim_h2": 1})
    return f"ep1:{expected['stratum']}", ["classify", "ep1", "--poisson", src], expected


def tp1_request(rng, class_id):
    d = _scalar(rng, True)
    parts = [f"{_num(d)}*(@z1^@z2)"]
    if class_id == 2:
        b = _rand_coeffs(rng, 3, nonzero=True)
        k = _scalar(rng)
        parts.append(f"{_poly(b, 'xi')}*(@z2^@xi)")
        if k:
            parts.append(f"{_num(-k)}*{_poly(b, 'xi')}*(@z1^@xi)")
    elif class_id == 3:
        c = _rand_coeffs(rng, 3, nonzero=True)
        parts.append(f"{_num(-1)}*{_poly(c, 'xi')}*(@z1^@xi)")
    expected = {"verdict": "obstructed" if class_id == 1 else "unobstructed_mc",
                "stratum": f"class-{class_id}", "dim_h1": 17 if class_id == 1 else 9}
    return f"tp1:class-{class_id}", ["classify", "tp1", "--poisson", " + ".join(parts)], \
        expected


def _gaussian(rng) -> str:
    re_, im = _scalar(rng), _scalar(rng, nonzero=True)
    return f"(({re_}) + ({im})*i)"


def _multivector(rng, grade) -> str:
    params = ("A", "B", "C")

    def coeff():
        terms = []
        for _ in range(rng.randint(1, 3)):
            mono = f"z^{rng.randint(0, 2)}*w^{rng.randint(0, 2)}"
            scalar = _gaussian(rng) if rng.random() < 0.7 else rng.choice(params)
            terms.append(f"{scalar}*{mono}")
        return "(" + " + ".join(terms) + ")"

    if grade == 0:
        return coeff()
    if grade == 1:
        return f"{coeff()}*@z + {coeff()}*@w"
    return f"{coeff()}*@z^@w"


def bracket_request(rng):
    ga, gb = rng.randint(0, 2), rng.randint(0, 2)
    left, right = _multivector(rng, ga), _multivector(rng, gb)
    return "bracket", ["bracket", left, right, "--chart", "z,w"], \
        {"grades": [ga, gb]}


def make_rounds(seed: int, count: int) -> list[list[dict]]:
    """`count` rounds of requests; the same seed gives the same rounds."""
    rng = random.Random(seed)
    family_offset = rng.randrange(len(FAMILIES))
    rounds = []
    for r in range(count):
        reqs = []
        for m in range(13):
            if m <= 3:
                reqs.append(ruled_request(rng, m, e_zero=rng.random() < 0.5))
            else:
                reqs.append(ruled_request(rng, m, e_zero=True))
                reqs.append(ruled_request(rng, m, e_zero=False))
        for tag, strata in (("IV", ("zero", "generic", "degenerate")),
                            ("III", ("zero", "B", "A")), ("IIa", ("any",)),
                            ("IIb", ("any",)), ("IIc", ("any",))):
            reqs.extend(hopf_request(rng, tag, s) for s in strata)
        reqs.extend(ep1_request(rng, zero) for zero in (True, False, False))
        reqs.extend(tp1_request(rng, cid) for cid in (1, 2, 3))
        reqs.extend(bracket_request(rng) for _ in range(4))
        family = FAMILIES[(family_offset + r) % len(FAMILIES)]
        reqs.append(("verify-family", ["verify-family", family],
                     {"key": FAMILY_H1.get(family)}))
        solution = ("ep1", "tp1")[r % 2]
        reqs.append(("mc-check", ["mc-check", solution], {}))
        rng.shuffle(reqs)
        rounds.append([{"kind": k, "argv": a, "expected": e} for k, a, e in reqs])
    return rounds


def kind_histogram(requests) -> dict:
    return dict(sorted(Counter(r["kind"] for r in requests).items()))


# ----------------------------------------------------------------------
# oracles (run after the timed region)

def _bracket_swapped(left: str, right: str, grades) -> str:
    """[left, right] recomputed as -(-1)^((p-1)(q-1)) [right, left]."""
    from poissonlab.expr import context_for, eval_str
    from poissonlab.multivector import schouten_formed

    ctx = context_for([left, right], ("z", "w"), ())
    a, b = eval_str(left, ctx), eval_str(right, ctx)
    swapped = schouten_formed(b, a)
    ga, gb = grades
    return str(swapped if ((ga - 1) * (gb - 1)) % 2 else -swapped)


def check(request: dict, result: dict) -> str | None:
    """None if the output of a request that exited 0 is right, else the reason."""
    out, expected, kind = result["stdout"], request["expected"], request["kind"]
    argv = request["argv"]
    if kind == "bracket":
        want = _bracket_swapped(argv[1], argv[2], expected["grades"])
        return None if out.strip() == want else "graded antisymmetry fails"
    try:
        doc = json.loads(out)
    except ValueError:
        return f"output is not JSON: {out[:200]!r}"
    if kind == "verify-family":
        if not doc.get("ok"):
            return "family verification failed"
        key = expected["key"]
        if key is not None and doc.get(key[0]) != key[1]:
            return f"{key[0]} = {doc.get(key[0])}, expected {key[1]}"
        return None
    if kind == "mc-check":
        return None if doc.get("defect_zero") is True else "Maurer-Cartan defect"
    got = dict(doc.get("data", {}), verdict=doc["verdict"], stratum=doc["stratum"])
    wrong = {k: got.get(k) for k, v in expected.items() if got.get(k) != v}
    return f"got {wrong}, expected {expected}" if wrong else None
