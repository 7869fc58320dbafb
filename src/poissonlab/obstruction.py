"""Obstruction machinery shared by the surface modules.

A deformation-complex model packages the finite bases, bracket and
reducers of one manifold/stratum; on top of it live the witness search
(an element pair whose bracket class escapes the relevant image), the
quadratic primary-obstruction class of a first-order deformation, and
machine-checkable certificates with a stable JSON form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .laurent import LaurentPoly, VarRegistry
from .linalg import (ColumnSpace, LabeledBasis, LinMap, NotInSpan, Reducer, image_space,
                     kernel_basis)
from .multivector import FormedMultiVector, MultiVector, schouten_formed

TOOL_VERSION = "0.1.0"

OBSTRUCTED = "obstructed"
UNOBSTRUCTED_H2_ZERO = "unobstructed_h2_zero"
UNOBSTRUCTED_MC = "unobstructed_mc"
UNDETERMINED = "undetermined"


class NotACocycle(Exception):
    pass


@dataclass
class DeformationComplexModel:
    """Finite model of the degree-1/degree-2 part of a deformation complex.

    h0_sq holds the global bivector classes the witness ranges over,
    h1_theta the H1(Theta) class representatives, h1_sq the H1(wedge^2)
    class representatives; h1_matrix is the bracket map between the two
    H1 models and reduce_h1_sq sends a raw bivector-valued object to
    h1_sq coordinates.
    """

    name: str
    stratum: str
    registry: VarRegistry
    h0_sq: LabeledBasis
    h1_theta: LabeledBasis
    h1_sq: LabeledBasis
    bracket: Callable
    reduce_h1_sq: Reducer
    h1_matrix: LinMap | None
    h2_dim: int
    compose_check: Callable | None = None

    def h1_kernel_elements(self):
        """Kernel of the H1 bracket map, assembled as model elements."""
        if self.h1_matrix is None or len(self.h1_theta) == 0:
            return [(e, None) for e in self.h1_theta]
        out = []
        for vec in kernel_basis(self.h1_matrix):
            elem = None
            for coeff, base in zip(vec, self.h1_theta):
                if coeff.is_zero():
                    continue
                piece = base.scale(coeff)
                elem = piece if elem is None else elem + piece
            if elem is not None:
                out.append((elem, vec))
        return out

    def h1_image_space(self) -> ColumnSpace:
        if self.h1_matrix is None:
            return ColumnSpace(len(self.h1_sq), self.registry)
        return image_space(self.h1_matrix)

    def verify_complex(self):
        if self.compose_check is not None:
            self.compose_check()


@dataclass
class Certificate:
    """Machine-checkable deformation verdict."""

    manifold: str
    stratum: str
    verdict: str
    witness: dict | None = None
    class_repr: str | None = None
    reason: str | None = None
    data: dict = field(default_factory=dict)
    tool_version: str = TOOL_VERSION

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
    kernel class whose bracket class escapes the H1 bracket image."""
    image = model.h1_image_space()
    kernel = model.h1_kernel_elements()
    for a in model.h0_sq:
        for b, _ in kernel:
            cls = model.reduce_h1_sq(model.bracket(a, b))
            if all(p.is_zero() for p in cls):
                continue
            if image.contains(list(cls)):
                continue
            class_elem = _assemble(model.h1_sq, cls)
            return Certificate(
                manifold=model.name,
                stratum=model.stratum,
                verdict=OBSTRUCTED,
                witness={"a": str(a), "b": str(b)},
                class_repr=str(class_elem) if class_elem is not None else _coords_str(cls),
            )
    if model.h2_dim == 0:
        return Certificate(model.name, model.stratum, UNOBSTRUCTED_H2_ZERO)
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


def _assemble(basis: LabeledBasis, coords: Sequence[LaurentPoly]):
    elem = None
    for c, e in zip(coords, basis):
        if c.is_zero():
            continue
        if not isinstance(e, (MultiVector, FormedMultiVector)):
            return None
        piece = e.scale(c)
        elem = piece if elem is None else elem + piece
    return elem


def _coords_str(coords) -> str:
    return "(" + ", ".join(str(c) for c in coords) + ")"


# ----------------------------------------------------------------------
# Dolbeault-side primary obstruction

@dataclass
class DolbeaultModel:
    """Model for the degree-2 classes of a Dolbeault resolution.

    `class_reducers` maps (dbar degree, multivector grade) to a reducer
    returning quotient coordinates of that graded piece; pieces missing
    from the map must vanish identically for a class to be well formed.
    """

    name: str
    lambda0: MultiVector
    dbar_vars: tuple[str, ...]
    class_reducers: dict

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
