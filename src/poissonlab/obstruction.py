"""Obstruction machinery shared by the surface modules.

`DeformationComplexModel` is the one cohomology model of every geometry:
the complex (wedge^* Theta, [lam0, -]) of one structure lam0 in degrees
0 to 2, built from its two bracket maps (`bracket_family` builds the
per-basis maps that a geometry stores and sums per structure).  It gives
the dimensions, the first-cohomology classes and their coordinates, the
check that a family's tangent directions fill first cohomology
(Kodaira's completeness criterion) and the input of the witness search
(an element pair whose bracket class escapes the H1 bracket image).  Next to it
live the quadratic primary-obstruction class of a first-order
deformation and machine-checkable certificates with a stable JSON form.

`stored(key, build)` keeps what `build()` returns in `_STORE`, the one
per-process store of every geometry; a build that raises stores
nothing.  A key starts with its geometry: `("F", m, params)`,
`("ExP1",)` and `("TxP1",)` (the product frames), `("ExP1", "family")`
and `("TxP1", "family")` (the product Maurer-Cartan families, each
verified once over all its coefficients) or `("Hopf", type, cap)` (every
Hopf context of a type has the same registry); a cover model keeps each
stratum's complex and verdict on itself.
A key holds only names fixed in code and integers the CLI bounds
(`ruled.MAX_M`, `cli.MAX_P`, `cli.MAX_CAP`), never a request's own
parameter names: at most 30 surfaces, 2 product frames, 2 product
families and (3 + 2 * 36) * 38 = 2,850 cover models (types IV, IIb,
IIc, and III, IIa at p = 2..37; caps 3..40), each with at most 3
stratum verdicts.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from functools import cached_property, partial

from .laurent import LaurentPoly
from .linalg import (ColumnSpace, LabeledBasis, LinMap, MapFamily, NotInSpan,
                     cokernel_space, image_space, kernel_basis, matrix_of_map, quotient_coords,
                     quotient_space)
from .multivector import (ChartFrame, FormedMultiVector, MultiVector, bracket, combination,
                          schouten_formed)

TOOL_VERSION = "0.1.0"

OBSTRUCTED = "obstructed"
UNOBSTRUCTED_H2_ZERO = "unobstructed_h2_zero"
UNOBSTRUCTED_MC = "unobstructed_mc"
UNDETERMINED = "undetermined"


class NotACocycle(Exception):
    pass


_STORE: dict = {}


def stored(key: tuple, build: Callable[[], object]):
    """The value stored under `key`, built by `build()` on first use."""
    if key not in _STORE:
        _STORE[key] = build()
    return _STORE[key]


def bracket_family(frame: ChartFrame, sq: Sequence[MultiVector], dom: LabeledBasis,
                   cod: LabeledBasis, red: Callable) -> MapFamily:
    """The maps [s, -]: dom -> cod in the coordinates of `red`, one for each
    bivector s of `sq`; a formed domain meets s as a formed field (`bracket`).

    A bivector lam = sum_j lam_j s_j with coefficients lam_j free of chart
    variables has the bracket matrix `family.at(lam_j)`, exactly: the
    Schouten bracket is bilinear over such coefficients, since it
    differentiates chart variables only, and `red` is a linear coordinate
    map.  So a geometry builds these maps once and sums them per structure.
    """
    return MapFamily([matrix_of_map(partial(bracket, s), dom, cod, red, frame.registry)
                      for s in sq])


class DeformationComplexModel:
    """The complex (wedge^* Theta, [lam0, -]) of one structure, in degrees 0 to 2.

    `lam0` is the structure.  `h1` is [lam0, -] from H1(Theta) to
    H1(wedge^2), a map with no columns where H1(Theta) = 0, and
    `reduce_h1_sq` sends a bivector-valued
    cochain to coordinates in its codomain.  `h0_sq` is the basis of
    H0(wedge^2), the global bivector classes the witness ranges over.
    `build_h0` builds [lam0, -] from H0(Theta) to H0(wedge^2), with
    codomain `h0_sq`; it is called at most once, by the first answer that
    needs the map.  On a surface (Hitchin)

        H0 = ker h0,   H1 = coker h0 + ker h1,   H2 = coker h1.

    `coker` is the image of h0 with cokernel representatives registered,
    by default its standard complement (`cokernel_space`); a caller may
    pass its own.  The kernel of h1 is eliminated once, on first use,
    and gives both the kernel classes and dim H2; so is its image, which
    the witness search and certificate checks test classes against.
    """

    def __init__(self, name: str, stratum: str, lam0: MultiVector, h1: LinMap,
                 reduce_h1_sq: Callable, h0_sq: LabeledBasis, build_h0: Callable[[], LinMap],
                 coker: ColumnSpace | None = None):
        self.name = name
        self.stratum = stratum
        self.lam0 = lam0
        self.h1 = h1
        self.h1_theta, self.h1_sq = h1.domain, h1.codomain
        self.reduce_h1_sq = reduce_h1_sq
        self.h0_sq = h0_sq
        self._build_h0 = build_h0
        if coker is not None:
            self.coker = coker

    @cached_property
    def h0(self) -> LinMap:
        return self._build_h0()

    @cached_property
    def coker(self) -> ColumnSpace:
        return cokernel_space(self.h0)

    @cached_property
    def h1_kernel(self) -> list[list[LaurentPoly]]:
        """Kernel vectors of the H1 bracket map."""
        return kernel_basis(self.h1)

    @cached_property
    def h1_kernel_space(self) -> ColumnSpace:
        return quotient_space((), self.h1_kernel, self.h1.n_cols, self.h1.registry)

    @property
    def dim_h0(self) -> int:
        """The columns of h0 less its rank: that of `coker` less its representatives."""
        return self.h0.n_cols - (self.coker.rank - len(self.coker.reps))

    @property
    def dim_h1(self) -> int:
        return len(self.coker.reps) + len(self.h1_kernel)

    @property
    def dim_h2(self) -> int:
        """The corank of h1."""
        return self.h1.n_rows - self.h1.n_cols + len(self.h1_kernel)

    def h1_kernel_elements(self):
        """Kernel of the H1 bracket map, assembled as model elements."""
        return [(combination(vec, self.h1_theta), vec) for vec in self.h1_kernel]

    @cached_property
    def h1_image(self) -> ColumnSpace:
        return image_space(self.h1)

    @cached_property
    def elements(self) -> list:
        """The H1 classes as elements: cokernel representatives, then kernel vectors."""
        return ([combination(v, self.h0_sq) for v in self.coker.reps]
                + [combination(v, self.h1_theta) for v in self.h1_kernel])

    def coords(self, sq_coords: list[LaurentPoly],
               theta_coords: list[LaurentPoly]) -> list[LaurentPoly]:
        """The class of a pair given by its bivector coordinates on `h0_sq`
        and its field coordinates on `h1_theta`: the cokernel coordinates,
        then the kernel coordinates."""
        return (quotient_coords(self.coker, sq_coords)
                + quotient_coords(self.h1_kernel_space, theta_coords))

    def fills(self, columns) -> bool:
        """Whether the class coordinate vectors `columns` span every H1 class."""
        space = ColumnSpace(self.dim_h1, self.h1.registry)
        for col in columns:
            space.add(col)
        return space.rank == self.dim_h1


class Certificate:
    """Machine-checkable deformation verdict."""

    __slots__ = ("manifold", "stratum", "verdict", "witness", "class_repr", "reason",
                 "data", "tool_version")

    def __init__(self, manifold: str, stratum: str, verdict: str,
                 witness: dict | None = None, class_repr: str | None = None,
                 reason: str | None = None, data: dict | None = None,
                 tool_version: str = TOOL_VERSION):
        self.manifold = manifold
        self.stratum = stratum
        self.verdict = verdict
        self.witness = witness
        self.class_repr = class_repr
        self.reason = reason
        self.data = {} if data is None else data
        self.tool_version = tool_version

    def to_json(self) -> str:
        doc = {
            "manifold": self.manifold,
            "stratum": self.stratum,
            "verdict": self.verdict,
            "tool_version": self.tool_version,
        }
        if self.witness is not None:
            doc["witness"] = self.witness
        if self.class_repr is not None:
            doc["class"] = self.class_repr
        if self.reason is not None:
            doc["reason"] = self.reason
        if self.data:
            doc["data"] = self.data
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Certificate":
        doc = json.loads(text)
        return Certificate(
            manifold=doc["manifold"],
            stratum=doc["stratum"],
            verdict=doc["verdict"],
            witness=doc.get("witness"),
            class_repr=doc.get("class"),
            reason=doc.get("reason"),
            data=doc.get("data", {}),
            tool_version=doc.get("tool_version", TOOL_VERSION),
        )


def r4_search(model: DeformationComplexModel) -> Certificate:
    """Search for an obstructed pair (a, b): a global bivector class and a
    kernel class whose bracket class escapes the H1 bracket image.

    With H2 = 0 the image is the whole H1 window, so no class escapes it
    and the structure is unobstructed without a search.
    """
    if model.dim_h2 == 0:
        return Certificate(model.name, model.stratum, UNOBSTRUCTED_H2_ZERO)
    image = model.h1_image
    kernel = model.h1_kernel_elements()
    for a in model.h0_sq:
        for b, _ in kernel:
            cls = model.reduce_h1_sq(bracket(a, b))
            if all(p.is_zero() for p in cls):
                continue
            if image.contains(list(cls)):
                continue
            return Certificate(
                manifold=model.name,
                stratum=model.stratum,
                verdict=OBSTRUCTED,
                witness={"a": str(a), "b": str(b)},
                class_repr=str(combination(cls, model.h1_sq)),
            )
    return Certificate(
        model.name, model.stratum, UNDETERMINED,
        reason="nonzero second cohomology but no witness pair in the model",
    )


def verify_certificate(cert: Certificate, model: DeformationComplexModel,
                       parse_element: Callable[[str], object]) -> bool:
    """Re-verify a reloaded certificate against its model.

    `parse_element` turns the stored witness strings back into model
    elements (the CLI wires the expression parser in here).
    """
    if cert.verdict != OBSTRUCTED or cert.witness is None:
        return True
    a = parse_element(cert.witness["a"])
    b = parse_element(cert.witness["b"])
    cls = model.reduce_h1_sq(bracket(a, b))
    if all(p.is_zero() for p in cls):
        return False
    return not model.h1_image.contains(list(cls))


# ----------------------------------------------------------------------
# Dolbeault-side primary obstruction

class DolbeaultModel:
    """Model for the degree-2 classes of a Dolbeault resolution.

    `class_reducers` maps (dbar degree, multivector grade) to a reducer
    returning quotient coordinates of that graded piece; pieces missing
    from the map must vanish identically for a class to be well formed.
    """

    __slots__ = ("name", "lambda0", "dbar_vars", "class_reducers")

    def __init__(self, name: str, lambda0: MultiVector, dbar_vars: tuple[str, ...],
                 class_reducers: dict):
        self.name = name
        self.lambda0 = lambda0
        self.dbar_vars = dbar_vars
        self.class_reducers = class_reducers

    def reduce_two_class(self, fmv: FormedMultiVector) -> dict:
        out = {}
        keys = sorted(fmv.parts, key=lambda k: (len(k), k))
        for key in keys:
            mv = fmv.parts[key]
            for grade in sorted(mv.grades()):
                piece = mv.grade_part(grade)
                rk = (len(key), grade)
                if rk in self.class_reducers:
                    coords = list(self.class_reducers[rk]((key, piece)))
                    if rk in out:
                        out[rk] = [a + b for a, b in zip(out[rk], coords)]
                    else:
                        out[rk] = coords
                elif not piece.is_zero():
                    raise NotInSpan(
                        f"graded piece {rk} is nonzero but the model has no class reducer for it")
        return out


def primary_obstruction(model: DolbeaultModel, lam: FormedMultiVector,
                        theta: FormedMultiVector) -> dict:
    """Quadratic class [lam+theta, lam+theta]; must die for integrability.

    Both inputs must be 1-cocycles of the complex: bracketing with the
    base Poisson structure kills them (the dbar part is zero for every
    representative in scope).
    """
    for part, label in ((lam, "bivector part"), (theta, "form part")):
        if not bracket(model.lambda0, part).is_zero():
            raise NotACocycle(f"{label} is not closed under the base bracket")
    el = lam + theta
    square = schouten_formed(el, el)
    return model.reduce_two_class(square)


def class_is_zero(coords: dict) -> bool:
    return all(all(p.is_zero() for p in block) for block in coords.values())
