"""Holomorphic multivector fields on coordinate charts.

A MultiVector stores, per strictly increasing tuple of chart-variable
indices, an exact Laurent-polynomial coefficient.  On top of that,
FormedMultiVector attaches antiholomorphic exterior generators (the
"dbar" factors) so Dolbeault-type elements can be summed and bracketed.

The Schouten bracket is computed recursively from the graded Leibniz
rules with the Lie bracket and directional derivative as base cases.
The resulting sign convention satisfies, for a bivector L and a vector
field X, [L, X] = -Lie_X L; this is the convention every worked
identity in scope pins down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .laurent import LaurentPoly, VarRegistry
from .rational import GaussianRational


class ChartMismatch(Exception):
    pass


@dataclass(frozen=True)
class Chart:
    """Named chart with an ordered tuple of coordinate variables."""

    name: str
    vars: tuple[str, ...]

    def __post_init__(self):
        if not self.vars or len(set(self.vars)) != len(self.vars):
            raise ValueError("chart variables must be nonempty and distinct")

    @property
    def dim(self) -> int:
        return len(self.vars)


def _sort_index_tuple(idx: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort an index tuple, returning (sign, sorted); sign 0 on repeats."""
    if len(set(idx)) != len(idx):
        return 0, ()
    # count inversions
    inv = 0
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            if idx[a] > idx[b]:
                inv += 1
    return (-1 if inv % 2 else 1), tuple(sorted(idx))


class MultiVector:
    """Sum of terms f * d/dv_{i1} ^ ... ^ d/dv_{ik} on one chart."""

    __slots__ = ("chart", "registry", "components")

    def __init__(self, chart: Chart, registry: VarRegistry,
                 components: Mapping[tuple[int, ...], LaurentPoly] | None = None):
        self.chart = chart
        self.registry = registry
        clean: dict[tuple[int, ...], LaurentPoly] = {}
        if components:
            for idx, poly in components.items():
                if poly.is_zero():
                    continue
                sign, sidx = _sort_index_tuple(tuple(idx))
                if sign == 0:
                    continue
                p = poly if sign == 1 else -poly
                if sidx in clean:
                    s = clean[sidx] + p
                    if s.is_zero():
                        del clean[sidx]
                    else:
                        clean[sidx] = s
                else:
                    clean[sidx] = p
        self.components = clean

    # ------------------------------------------------------------------

    @staticmethod
    def zero(chart: Chart, registry: VarRegistry) -> "MultiVector":
        return MultiVector(chart, registry)

    @staticmethod
    def function(chart: Chart, registry: VarRegistry, poly: LaurentPoly) -> "MultiVector":
        return MultiVector(chart, registry, {(): poly})

    @staticmethod
    def term(chart: Chart, registry: VarRegistry, coeff: LaurentPoly, vars: Iterable[str]) -> "MultiVector":
        idx = tuple(chart.vars.index(v) for v in vars)
        return MultiVector(chart, registry, {idx: coeff})

    def _check(self, other: "MultiVector"):
        if self.chart != other.chart or self.registry != other.registry:
            raise ChartMismatch(f"{self.chart.name} vs {other.chart.name}")

    def is_zero(self) -> bool:
        return not self.components

    def grades(self) -> set[int]:
        return {len(idx) for idx in self.components}

    def grade_part(self, k: int) -> "MultiVector":
        return MultiVector(self.chart, self.registry,
                           {idx: p for idx, p in self.components.items() if len(idx) == k})

    def coefficient(self, vars: Iterable[str]) -> LaurentPoly:
        idx = tuple(sorted(self.chart.vars.index(v) for v in vars))
        return self.components.get(idx, LaurentPoly.zero(self.registry))

    # ------------------------------------------------------------------
    # linear structure

    def __add__(self, other: "MultiVector") -> "MultiVector":
        self._check(other)
        out = dict(self.components)
        for idx, p in other.components.items():
            s = out.get(idx)
            s = p if s is None else s + p
            if s.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = s
        return MultiVector(self.chart, self.registry, out)

    def __neg__(self) -> "MultiVector":
        return MultiVector(self.chart, self.registry,
                           {idx: -p for idx, p in self.components.items()})

    def __sub__(self, other: "MultiVector") -> "MultiVector":
        return self + (-other)

    def scale(self, factor) -> "MultiVector":
        """Multiply by a scalar or a LaurentPoly."""
        return MultiVector(self.chart, self.registry,
                           {idx: p * factor for idx, p in self.components.items()})

    def __eq__(self, other):
        if not isinstance(other, MultiVector):
            return NotImplemented
        return (self.chart == other.chart and self.registry == other.registry
                and self.components == other.components)

    def __hash__(self):
        return hash((self.chart, tuple(sorted(self.components))))

    def map_coefficients(self, fn) -> "MultiVector":
        return MultiVector(self.chart, self.registry,
                           {idx: fn(p) for idx, p in self.components.items()})

    # ------------------------------------------------------------------

    def sorted_components(self):
        return sorted(self.components.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __str__(self):
        if not self.components:
            return "0"
        parts = []
        for idx, poly in self.sorted_components():
            # parenthesize wedge blocks: the exterior product binds loosest
            # in the surface syntax, so sums would otherwise regroup
            gens = "^".join(f"@{self.chart.vars[i]}" for i in idx)
            if len(idx) > 1:
                gens = f"({gens})"
            ps = str(poly)
            if not gens:
                parts.append(ps)
            elif ps == "1":
                parts.append(gens)
            elif ps == "-1":
                parts.append(f"-{gens}")
            else:
                body = f"({ps})" if (" " in ps or "+" in ps[1:] or "-" in ps[1:]) else ps
                parts.append(f"{body}*{gens}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"<MultiVector {self} on {self.chart.name}>"


# ----------------------------------------------------------------------
# exterior product

def wedge(a: MultiVector, b: MultiVector) -> MultiVector:
    a._check(b)
    out: dict[tuple[int, ...], LaurentPoly] = {}
    for ia, pa in a.components.items():
        for ib, pb in b.components.items():
            if set(ia) & set(ib):
                continue
            sign, idx = _sort_index_tuple(ia + ib)
            prod = pa * pb
            if sign == -1:
                prod = -prod
            s = out.get(idx)
            s = prod if s is None else s + prod
            if s.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = s
    return MultiVector(a.chart, a.registry, out)


# ----------------------------------------------------------------------
# Schouten bracket

def _lie_terms(chart, reg, f, i, g, j):
    """[f d_i, g d_j] for single coordinate directions."""
    vi, vj = chart.vars[i], chart.vars[j]
    comps: dict[tuple[int, ...], LaurentPoly] = {}
    t1 = f * g.partial(vi)
    t2 = g * f.partial(vj)
    for idx, p in ((  (j,), t1), ((i,), -t2)):
        if p.is_zero():
            continue
        s = comps.get(idx)
        s = p if s is None else s + p
        if s.is_zero():
            comps.pop(idx, None)
        else:
            comps[idx] = s
    return MultiVector(chart, reg, comps)


def _sch_terms(chart, reg, f, I, g, J) -> MultiVector:
    """Bracket of single terms f*d_I and g*d_J, by graded Leibniz recursion."""
    p, q = len(I), len(J)
    one = LaurentPoly.const(reg, 1)

    def mv(coeff, idx):
        return MultiVector(chart, reg, {idx: coeff})

    if p == 0 and q == 0:
        return MultiVector.zero(chart, reg)
    if p == 1:
        if q == 0:
            return MultiVector(chart, reg, {(): f * g.partial(chart.vars[I[0]])})
        if q == 1:
            return _lie_terms(chart, reg, f, I[0], g, J[0])
        # second-slot Leibniz, |a| = 1 so no sign
        head = _sch_terms(chart, reg, f, I, g, (J[0],))
        rest = _sch_terms(chart, reg, f, I, one, J[1:])
        return wedge(head, mv(one, J[1:])) + wedge(mv(g, (J[0],)), rest)
    if p == 0:
        # [f, t1 ^ rest] = [f, t1] ^ rest - t1 ^ [f, rest]
        head = MultiVector(chart, reg, {(): -(g * f.partial(chart.vars[J[0]]))})
        rest = _sch_terms(chart, reg, f, (), one, J[1:])
        return wedge(head, mv(one, J[1:])) - wedge(mv(g, (J[0],)), rest)
    # p >= 2: first-slot Leibniz
    # [a ^ b, c] = a ^ [b, c] + (-1)^{(p-1)(q-1)} [a, c] ^ b
    bpart = _sch_terms(chart, reg, one, I[1:], g, J)
    apart = _sch_terms(chart, reg, f, (I[0],), g, J)
    out = wedge(mv(f, (I[0],)), bpart)
    tail = wedge(apart, mv(one, I[1:]))
    if ((p - 1) * (q - 1)) % 2:
        tail = -tail
    return out + tail


def schouten(a: MultiVector, b: MultiVector) -> MultiVector:
    """Schouten-Nijenhuis bracket; restricts to the Lie bracket on fields."""
    a._check(b)
    out = MultiVector.zero(a.chart, a.registry)
    for ia, pa in a.components.items():
        for ib, pb in b.components.items():
            out = out + _sch_terms(a.chart, a.registry, pa, ia, pb, ib)
    return out


# ----------------------------------------------------------------------
# chart maps and pushforward

@dataclass(frozen=True)
class ChartMap:
    """Coordinate change: target variables as polynomials in source ones."""

    source: Chart
    target: Chart
    forward: Mapping[str, LaurentPoly]
    inverse: Mapping[str, LaurentPoly] | None = None

    def __post_init__(self):
        if set(self.forward) != set(self.target.vars):
            raise ValueError("forward map must define every target variable")
        if self.inverse is not None:
            if set(self.inverse) != set(self.source.vars):
                raise ValueError("inverse map must define every source variable")
            self.check_inverse()

    def check_inverse(self):
        for tv, expr in self.forward.items():
            reg = expr.registry
            back = expr.substitute(dict(self.inverse))
            if back != LaurentPoly.var(reg, tv):
                raise ValueError(f"forward o inverse is not the identity on {tv!r}")

    def inverse_map(self) -> "ChartMap":
        if self.inverse is None:
            raise ValueError("chart map has no inverse data")
        return ChartMap(self.target, self.source, dict(self.inverse), dict(self.forward))

    def compose(self, inner: "ChartMap") -> "ChartMap":
        """self o inner: a map inner.source -> self.target."""
        if inner.target != self.source:
            raise ChartMismatch("composition chart mismatch")
        fwd = {tv: expr.substitute(dict(inner.forward)) for tv, expr in self.forward.items()}
        inv = None
        if self.inverse is not None and inner.inverse is not None:
            inv = {sv: expr.substitute(dict(self.inverse)) for sv, expr in inner.inverse.items()}
        return ChartMap(inner.source, self.target, fwd, inv)


def pushforward(cm: ChartMap, a: MultiVector) -> MultiVector:
    """Push a multivector field on cm.source forward to cm.target."""
    if a.chart != cm.source:
        raise ChartMismatch(f"field lives on {a.chart.name}, map starts at {cm.source.name}")
    if cm.inverse is None:
        raise ValueError("pushforward requires the inverse coordinate expressions")
    reg = a.registry
    inv = dict(cm.inverse)
    # frame images: d/ds_i -> sum_j (d t_j / d s_i)|_(inverse) d/dt_j
    frames = []
    for i, sv in enumerate(cm.source.vars):
        comps = {}
        for j, tv in enumerate(cm.target.vars):
            entry = cm.forward[tv].partial(sv)
            if entry.is_zero():
                continue
            comps[(j,)] = entry.substitute(inv)
        frames.append(MultiVector(cm.target, reg, comps))
    out = MultiVector.zero(cm.target, reg)
    for idx, poly in a.components.items():
        piece = MultiVector.function(cm.target, reg, poly.substitute(inv))
        for i in idx:
            piece = wedge(piece, frames[i])
        out = out + piece
    return out


# ----------------------------------------------------------------------
# Dolbeault-decorated fields

class FormedMultiVector:
    """Multivector fields tensored with antiholomorphic generators.

    Stored as a map from a sorted tuple of dbar generator names to a
    MultiVector; the empty tuple is the plain holomorphic part.  All
    coefficients in scope are free of conjugated variables, so dbar of
    everything here is zero by construction.
    """

    __slots__ = ("chart", "registry", "dbar_vars", "parts")

    def __init__(self, chart: Chart, registry: VarRegistry, dbar_vars: tuple[str, ...],
                 parts: Mapping[tuple[str, ...], MultiVector] | None = None):
        self.chart = chart
        self.registry = registry
        self.dbar_vars = tuple(dbar_vars)
        clean = {}
        if parts:
            for key, mv in parts.items():
                if mv.is_zero():
                    continue
                if len(set(key)) != len(key):
                    continue
                for g in key:
                    if g not in self.dbar_vars:
                        raise ValueError(f"unknown dbar generator {g!r}")
                sign, skey = _sort_key_names(key, self.dbar_vars)
                if sign == 0:
                    continue
                v = mv if sign == 1 else -mv
                if skey in clean:
                    s = clean[skey] + v
                    if s.is_zero():
                        del clean[skey]
                    else:
                        clean[skey] = s
                else:
                    clean[skey] = v
        self.parts = clean

    @staticmethod
    def zero(chart, registry, dbar_vars):
        return FormedMultiVector(chart, registry, dbar_vars)

    @staticmethod
    def of(mv: MultiVector, dbar_vars: tuple[str, ...], factor: tuple[str, ...] = ()):
        return FormedMultiVector(mv.chart, mv.registry, dbar_vars, {tuple(factor): mv})

    def _check(self, other: "FormedMultiVector"):
        if (self.chart != other.chart or self.registry != other.registry
                or self.dbar_vars != other.dbar_vars):
            raise ChartMismatch("formed multivector context mismatch")

    def is_zero(self) -> bool:
        return not self.parts

    def part(self, factor: tuple[str, ...]) -> MultiVector:
        return self.parts.get(tuple(factor), MultiVector.zero(self.chart, self.registry))

    def __add__(self, other):
        self._check(other)
        out = dict(self.parts)
        for key, mv in other.parts.items():
            s = out.get(key)
            s = mv if s is None else s + mv
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return FormedMultiVector(self.chart, self.registry, self.dbar_vars, out)

    def __neg__(self):
        return FormedMultiVector(self.chart, self.registry, self.dbar_vars,
                                 {k: -v for k, v in self.parts.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        return FormedMultiVector(self.chart, self.registry, self.dbar_vars,
                                 {k: v.scale(factor) for k, v in self.parts.items()})

    def map_coefficients(self, fn):
        return FormedMultiVector(self.chart, self.registry, self.dbar_vars,
                                 {k: v.map_coefficients(fn) for k, v in self.parts.items()})

    def __eq__(self, other):
        if not isinstance(other, FormedMultiVector):
            return NotImplemented
        return (self.chart == other.chart and self.dbar_vars == other.dbar_vars
                and self.parts == other.parts)

    def __str__(self):
        if not self.parts:
            return "0"
        chunks = []
        for key in sorted(self.parts, key=lambda k: (len(k), tuple(self.dbar_vars.index(g) for g in k))):
            mv = self.parts[key]
            tail = "".join(f"*~{g}" for g in key)
            body = str(mv)
            if tail and (" + " in body or " - " in body):
                body = f"({body})"
            chunks.append(body + tail)
        return " + ".join(chunks)

    def __repr__(self):
        return f"<FormedMultiVector {self}>"


def _sort_key_names(key: tuple[str, ...], order: tuple[str, ...]):
    idx = tuple(order.index(g) for g in key)
    sign, sidx = _sort_index_tuple(idx)
    return sign, tuple(order[i] for i in sidx)


def schouten_formed(a: FormedMultiVector, b: FormedMultiVector) -> FormedMultiVector:
    """Bracket on form-valued fields: [A w, B e] = (-1)^{|w|(|B|-1)} [A,B] w^e."""
    a._check(b)
    out = FormedMultiVector.zero(a.chart, a.registry, a.dbar_vars)
    for ka, mva in a.parts.items():
        for kb, mvb in b.parts.items():
            if set(ka) & set(kb):
                continue
            sign, key = _sort_key_names(ka + kb, a.dbar_vars)
            if sign == 0:
                continue
            for grade_b in mvb.grades():
                piece = schouten(mva, mvb.grade_part(grade_b))
                if piece.is_zero():
                    continue
                total = sign * (-1 if (len(ka) * (grade_b - 1)) % 2 else 1)
                if total == -1:
                    piece = -piece
                out = out + FormedMultiVector.of(piece, a.dbar_vars, key)
    return out


def mc_defect(lambda0: MultiVector, el: FormedMultiVector) -> FormedMultiVector:
    """L(el) + (1/2)[el, el] with L = dbar + [lambda0, -] and dbar = 0 here."""
    lam = FormedMultiVector.of(lambda0, el.dbar_vars)
    half = GaussianRational.of(1) / 2
    return schouten_formed(lam, el) + schouten_formed(el, el).scale(half)
