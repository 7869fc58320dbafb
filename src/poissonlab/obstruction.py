"""Obstruction machinery shared by the surface modules.

A deformation-complex model packages the finite bases, bracket and
reducers of one manifold/stratum; on top of it live the witness search
(an element pair whose bracket class escapes the relevant image), the
quadratic primary-obstruction class of a first-order deformation, and
machine-checkable certificates with a stable JSON form.

`H1Model` is the one first-cohomology model of the ruled, ExP1 and TxP1
families: the cokernel of the bracket map on H0(Theta) plus the kernel
of the bracket map on H1(Theta).  It gives the dimension, the class
coordinates of a tangent direction and the check that a family's
tangent directions fill it (Kodaira's completeness criterion).
"""

from __future__ import annotations

import json
from collections.abc import Callable
from functools import cached_property

from .laurent import LaurentPoly, VarRegistry
from .linalg import (ColumnSpace, LabeledBasis, LinMap, NotInSpan, Reducer, cokernel_space,
                     image_space, kernel_basis, quotient_coords, quotient_space)
from .multivector import FormedMultiVector, MultiVector, combination, schouten_formed

TOOL_VERSION = "0.1.0"

OBSTRUCTED = "obstructed"
UNOBSTRUCTED_H2_ZERO = "unobstructed_h2_zero"
UNOBSTRUCTED_MC = "unobstructed_mc"
UNDETERMINED = "undetermined"


class NotACocycle(Exception):
    pass


class DeformationComplexModel:
    """Finite model of the degree-1/degree-2 part of a deformation complex.

    h0_sq holds the global bivector classes the witness ranges over,
    h1_theta the H1(Theta) class representatives, h1_sq the H1(wedge^2)
    class representatives; h1_matrix is the bracket map between the two
    H1 models and reduce_h1_sq sends a raw bivector-valued object to
    h1_sq coordinates.  The kernel of h1_matrix is eliminated once, on
    first use, and also gives dim H2, the corank of h1_matrix.
    """

    def __init__(self, name: str, stratum: str, registry: VarRegistry,
                 h0_sq: LabeledBasis, h1_theta: LabeledBasis, h1_sq: LabeledBasis,
                 bracket: Callable, reduce_h1_sq: Reducer, h1_matrix: LinMap | None):
        self.name = name
        self.stratum = stratum
        self.registry = registry
        self.h0_sq = h0_sq
        self.h1_theta = h1_theta
        self.h1_sq = h1_sq
        self.bracket = bracket
        self.reduce_h1_sq = reduce_h1_sq
        self.h1_matrix = h1_matrix

    @cached_property
    def h1_kernel(self) -> list[list[LaurentPoly]]:
        """Kernel vectors of the H1 bracket map."""
        return [] if self.h1_matrix is None else kernel_basis(self.h1_matrix)

    @property
    def h2_dim(self) -> int:
        if self.h1_matrix is None:
            return len(self.h1_sq)
        return self.h1_matrix.n_rows - self.h1_matrix.n_cols + len(self.h1_kernel)

    def h1_kernel_elements(self):
        """Kernel of the H1 bracket map, assembled as model elements."""
        if self.h1_matrix is None:
            return [(e, None) for e in self.h1_theta]
        return [(combination(vec, self.h1_theta), vec) for vec in self.h1_kernel]

    def h1_image_space(self) -> ColumnSpace:
        if self.h1_matrix is None:
            return ColumnSpace(len(self.h1_sq), self.registry)
        return image_space(self.h1_matrix)


class H1Model:
    """First cohomology coker([lam0, -] on H0(Theta)) + ker([lam0, -] on H1(Theta)).

    `h0` and `h1` are the two bracket maps; the codomain of `h0` and the
    domain of `h1` carry the bases the classes are written in.  `coker`
    is the image of `h0` with the cokernel representatives registered,
    by default its standard complement (`cokernel_space`).  The kernel of
    `h1` is eliminated once, on first use.
    """

    def __init__(self, h0: LinMap, h1: LinMap, coker: ColumnSpace | None = None):
        self.h0 = h0
        self.h1 = h1
        self.coker = cokernel_space(h0) if coker is None else coker

    @cached_property
    def kernel(self) -> list[list[LaurentPoly]]:
        return kernel_basis(self.h1)

    @cached_property
    def kernel_space(self) -> ColumnSpace:
        return quotient_space((), self.kernel, self.h1.n_cols, self.h1.registry)

    @property
    def dim(self) -> int:
        return len(self.coker.reps) + len(self.kernel)

    @property
    def dim_h2(self) -> int:
        """The corank of `h1`."""
        return self.h1.n_rows - self.h1.n_cols + len(self.kernel)

    @cached_property
    def elements(self) -> list:
        """The classes as elements: cokernel representatives, then kernel vectors."""
        return ([combination(v, self.h0.codomain) for v in self.coker.reps]
                + [combination(v, self.h1.domain) for v in self.kernel])

    def coords(self, sq_coords: list[LaurentPoly],
               theta_coords: list[LaurentPoly]) -> list[LaurentPoly]:
        """The class of a pair given by its bivector coordinates in the
        codomain of `h0` and its field coordinates in the domain of `h1`:
        the cokernel coordinates, then the kernel coordinates."""
        return (quotient_coords(self.coker, sq_coords)
                + quotient_coords(self.kernel_space, theta_coords))

    def fills(self, columns) -> bool:
        """Whether the class coordinate vectors `columns` span every class."""
        space = ColumnSpace(self.dim, self.h1.registry)
        for col in columns:
            space.add(col)
        return space.rank == self.dim


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
    if model.h2_dim == 0:
        return Certificate(model.name, model.stratum, UNOBSTRUCTED_H2_ZERO)
    image = model.h1_image_space()
    kernel = model.h1_kernel_elements()
    for a in model.h0_sq:
        for b, _ in kernel:
            cls = model.reduce_h1_sq(model.bracket(a, b))
            if all(p.is_zero() for p in cls):
                continue
            if image.contains(list(cls)):
                continue
            if all(isinstance(e, (MultiVector, FormedMultiVector)) for e in model.h1_sq):
                class_repr = str(combination(cls, model.h1_sq))
            else:  # a basis of labels: print the coordinates
                class_repr = "(" + ", ".join(str(c) for c in cls) + ")"
            return Certificate(
                manifold=model.name,
                stratum=model.stratum,
                verdict=OBSTRUCTED,
                witness={"a": str(a), "b": str(b)},
                class_repr=class_repr,
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
    cls = model.reduce_h1_sq(model.bracket(a, b))
    if all(p.is_zero() for p in cls):
        return False
    return not model.h1_image_space().contains(list(cls))


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
    lam0 = FormedMultiVector.of(model.lambda0, lam.dbar_vars)
    for part, label in ((lam, "bivector part"), (theta, "form part")):
        if not schouten_formed(lam0, part).is_zero():
            raise NotACocycle(f"{label} is not closed under the base bracket")
    el = lam + theta
    square = schouten_formed(el, el)
    return model.reduce_two_class(square)


def class_is_zero(coords: dict) -> bool:
    return all(all(p.is_zero() for p in block) for block in coords.values())
