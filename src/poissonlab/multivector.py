"""Holomorphic multivector fields on coordinate charts.

A MultiVector stores, per strictly increasing tuple of chart-variable
indices, an exact Laurent-polynomial coefficient.  On top of that,
FormedMultiVector attaches antiholomorphic exterior generators (the
"dbar" factors) so Dolbeault-type elements can be summed and bracketed.

The Schouten bracket is computed in one pass over each pair of terms,
from the coordinate formula for the bracket of two decomposable
multivectors (see `schouten`).  Its sign convention satisfies, for a
bivector L and a vector field X, [L, X] = -Lie_X L; this is the
convention every worked identity in scope pins down.  `bracket` takes
plain and formed fields alike.

A ChartFrame bundles a chart, its registry and its dbar generators with
the shorthands each geometry builds its fields from.  `combination`
rebuilds an element from its coordinates in a basis, and `basis_coords`
reads them back off a basis of single terms.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence

from .laurent import LaurentPoly, VarRegistry
from .linalg import LabeledBasis, NotInSpan
from .rational import Frozen, GaussianRational

_set = object.__setattr__


class ChartMismatch(Exception):
    pass


class Chart(Frozen):
    """Named chart with an ordered tuple of coordinate variables."""

    __slots__ = ("name", "vars")

    def __init__(self, name: str, vars: tuple[str, ...]):
        if not vars or len(set(vars)) != len(vars):
            raise ValueError("chart variables must be nonempty and distinct")
        _set(self, "name", name)
        _set(self, "vars", vars)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Chart:
            return NotImplemented
        return self.name == other.name and self.vars == other.vars

    def __hash__(self):
        return hash((self.name, self.vars))

    @property
    def dim(self) -> int:
        return len(self.vars)


def _sort_index_tuple(idx: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort an index tuple, returning (sign, sorted); sign 0 on repeats."""
    if len(idx) < 2:
        return 1, idx
    if len(idx) == 2:
        a, b = idx
        return (1, idx) if a < b else (-1, (b, a)) if a > b else (0, ())
    if len(set(idx)) != len(idx):
        return 0, ()
    # count inversions
    inv = 0
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            if idx[a] > idx[b]:
                inv += 1
    return (-1 if inv % 2 else 1), tuple(sorted(idx))


_alloc = object.__new__


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

    @staticmethod
    def _of(chart: Chart, registry: VarRegistry, components: dict) -> "MultiVector":
        """Wrap `components`, which the caller owns and knows to have sorted
        index tuples and nonzero coefficients only."""
        mv = _alloc(MultiVector)
        mv.chart = chart
        mv.registry = registry
        mv.components = components
        return mv

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
        return MultiVector._of(self.chart, self.registry,
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
        return MultiVector._of(self.chart, self.registry, out)

    def __neg__(self) -> "MultiVector":
        return MultiVector._of(self.chart, self.registry,
                               {idx: -p for idx, p in self.components.items()})

    def __sub__(self, other: "MultiVector") -> "MultiVector":
        return self + (-other)

    def scale(self, factor) -> "MultiVector":
        """Multiply by a scalar or a LaurentPoly."""
        out = {}
        for idx, p in self.components.items():
            prod = p * factor
            if not prod.is_zero():
                out[idx] = prod
        return MultiVector._of(self.chart, self.registry, out)

    def __eq__(self, other):
        if not isinstance(other, MultiVector):
            return NotImplemented
        return (self.chart == other.chart and self.registry == other.registry
                and self.components == other.components)

    def __hash__(self):
        return hash((self.chart, frozenset(self.components.items())))

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
    return MultiVector._of(a.chart, a.registry, out)


# ----------------------------------------------------------------------
# Schouten bracket

def schouten(a: MultiVector, b: MultiVector) -> MultiVector:
    """Schouten-Nijenhuis bracket; restricts to the Lie bracket on fields.

    For single terms A = f d_I and B = g d_J with p = |I|, q = |J| and
    0-based positions r, s (Marle, J. Geom. Phys. 23, 1997):

        [A, B] = sum_r (-1)^(p-1-r) f d_{i_r}g d_{I - i_r} ^ d_J
                 - (-1)^((p-1)(q-1)) sum_s (-1)^(q-1-s) g d_{j_s}f d_{J - j_s} ^ d_I

    Every pair of terms adds into one component dict.  For a bivector L
    and a vector field X this gives [L, X] = -Lie_X L.
    """
    a._check(b)
    names = a.chart.vars
    out: dict[tuple[int, ...], LaurentPoly] = {}

    def add(coeff, other, var, idx, sign):
        # sign * coeff * d(other)/d(var) on d_idx, which is 0 if idx repeats
        s, key = _sort_index_tuple(idx)
        if s == 0:
            return
        deriv = other.partial(names[var])
        if deriv.is_zero():
            return
        term = coeff * deriv
        prev = out.get(key)
        if s * sign > 0:
            out[key] = term if prev is None else prev + term
        else:
            out[key] = -term if prev is None else prev - term

    for I, f in a.components.items():
        p = len(I)
        for J, g in b.components.items():
            q = len(J)
            for r, i in enumerate(I):
                add(f, g, i, I[:r] + I[r + 1:] + J, -1 if (p - 1 - r) % 2 else 1)
            flip = 1 if ((p - 1) * (q - 1)) % 2 else -1
            for s, j in enumerate(J):
                add(g, f, j, J[:s] + J[s + 1:] + I, -flip if (q - 1 - s) % 2 else flip)
    return MultiVector._of(a.chart, a.registry,
                           {key: p for key, p in out.items() if not p.is_zero()})


# ----------------------------------------------------------------------
# chart maps and pushforward

class ChartMap(Frozen):
    """Coordinate change: target variables as polynomials in source ones,
    and its inverse, source variables in target ones, checked on build."""

    __slots__ = ("source", "target", "forward", "inverse")

    def __init__(self, source: Chart, target: Chart, forward: Mapping[str, LaurentPoly],
                 inverse: Mapping[str, LaurentPoly]):
        if set(forward) != set(target.vars):
            raise ValueError("forward map must define every target variable")
        if set(inverse) != set(source.vars):
            raise ValueError("inverse map must define every source variable")
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "forward", forward)
        _set(self, "inverse", inverse)
        self.check_inverse()

    def __eq__(self, other):
        if other.__class__ is not ChartMap:
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.forward == other.forward and self.inverse == other.inverse)

    def check_inverse(self):
        for tv, expr in self.forward.items():
            reg = expr.registry
            back = expr.substitute(dict(self.inverse))
            if back != LaurentPoly.var(reg, tv):
                raise ValueError(f"forward o inverse is not the identity on {tv!r}")

    def inverse_map(self) -> "ChartMap":
        return ChartMap(self.target, self.source, dict(self.inverse), dict(self.forward))


def pushforward(cm: ChartMap, a: MultiVector) -> MultiVector:
    """Push a multivector field on cm.source forward to cm.target."""
    if a.chart != cm.source:
        raise ChartMismatch(f"field lives on {a.chart.name}, map starts at {cm.source.name}")
    reg = a.registry
    inv = dict(cm.inverse)
    # images of the frames the field uses: d/ds_i -> sum_j (d t_j / d s_i)|_(inverse) d/dt_j
    frames = {}
    for i in sorted({i for idx in a.components for i in idx}):
        comps = {}
        for j, tv in enumerate(cm.target.vars):
            entry = cm.forward[tv].partial(cm.source.vars[i])
            if entry.is_zero():
                continue
            comps[(j,)] = entry.substitute(inv)
        frames[i] = MultiVector(cm.target, reg, comps)
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
    def _of(chart: Chart, registry: VarRegistry, dbar_vars: tuple[str, ...],
            parts: dict) -> "FormedMultiVector":
        """Wrap `parts`, which the caller owns and knows to have sorted keys
        of known generators and nonzero fields only."""
        fmv = _alloc(FormedMultiVector)
        fmv.chart = chart
        fmv.registry = registry
        fmv.dbar_vars = dbar_vars
        fmv.parts = parts
        return fmv

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
        return FormedMultiVector._of(self.chart, self.registry, self.dbar_vars, out)

    def __neg__(self):
        return FormedMultiVector._of(self.chart, self.registry, self.dbar_vars,
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

    def __hash__(self):
        return hash((self.chart, self.dbar_vars, frozenset(self.parts.items())))

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


def bracket(a, b):
    """The Schouten bracket of two fields, plain or formed: a plain field
    meets a formed one as a formed field with no form part."""
    if isinstance(a, MultiVector) and isinstance(b, MultiVector):
        return schouten(a, b)
    dbar = (b if isinstance(a, MultiVector) else a).dbar_vars
    return schouten_formed(FormedMultiVector.of(a, dbar) if isinstance(a, MultiVector) else a,
                           FormedMultiVector.of(b, dbar) if isinstance(b, MultiVector) else b)


class ChartFrame(Frozen):
    """A chart with its variable registry and antiholomorphic generators,
    and the shorthands every geometry builds its fields from.

    Frames are equal when their fields are; a subclass adds its own
    fields to `_key`.  The hash covers the frame fields only."""

    __slots__ = ("chart", "registry", "dbar")

    def __init__(self, chart: Chart, registry: VarRegistry, dbar: tuple[str, ...] = ()):
        _set(self, "chart", chart)
        _set(self, "registry", registry)
        _set(self, "dbar", dbar)

    def _key(self) -> tuple:
        return self.chart, self.registry, self.dbar

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash((self.chart, self.registry, self.dbar))

    def param(self, name, power=1) -> LaurentPoly:
        return LaurentPoly.var(self.registry, name, power)

    def z(self, power=1) -> LaurentPoly:
        return self.param("z", power)

    def w(self, power=1) -> LaurentPoly:
        return self.param("w", power)

    def xi(self, power=1) -> LaurentPoly:
        return self.param("xi", power)

    def const(self, value) -> LaurentPoly:
        return LaurentPoly.const(self.registry, value)

    def mv(self, coeff: LaurentPoly, vars: Iterable[str] = ()) -> MultiVector:
        return MultiVector.term(self.chart, self.registry, coeff, vars)

    def zero(self) -> MultiVector:
        return MultiVector.zero(self.chart, self.registry)

    def formed(self, mv: MultiVector, factor: tuple[str, ...] = ()) -> FormedMultiVector:
        return FormedMultiVector.of(mv, self.dbar, factor)


def combination(coeffs: Sequence[LaurentPoly], basis):
    """The sum of c * e over the nonzero coefficients c, each paired with
    the basis element e in its position; None if every c is zero."""
    pieces = [e.scale(c) for c, e in zip(coeffs, basis) if not c.is_zero()]
    return sum(pieces[1:], pieces[0]) if pieces else None


def _frame_terms(el):
    """(frame, key, coefficient) of each term of a field or formed field: the
    frame is the component index, after the form factor on a formed one."""
    if isinstance(el, FormedMultiVector):
        for factor, mv in el.parts.items():
            for idx, poly in mv.components.items():
                for key, coef in poly.terms.items():
                    yield (factor, idx), key, coef
    else:
        for idx, poly in el.components.items():
            for key, coef in poly.terms.items():
                yield idx, key, coef


def basis_coords(basis: LabeledBasis) -> Callable:
    """The inverse of `combination` on `basis`: an element's coordinates,
    polynomials in the parameters.

    Each basis element is one term, a scalar times a chart monomial times
    a frame.  Each term key of the element is split at the chart/parameter
    boundary: the frame and the chart part pick the basis element, and the
    parameter part, over that element's scalar, goes to its coordinate.  A
    term outside the basis raises NotInSpan."""
    index = {}
    for pos, e in enumerate(basis):
        ((frame, key, scalar),) = _frame_terms(e)
        index[frame, key] = pos, scalar

    def read(el) -> list[LaurentPoly]:
        n_chart = len(el.registry.chart_vars)
        found = [{} for _ in basis]
        for frame, key, coef in _frame_terms(el):
            k = 0
            while k < len(key) and key[k][0] < n_chart:
                k += 1
            hit = index.get((frame, key[:k]))
            if hit is None:
                raise NotInSpan(f"a term lies outside {basis.space_name}")
            pos, scalar = hit
            if not scalar.is_one():
                coef = -coef if scalar == -1 else coef / scalar
            found[pos][key[k:]] = coef
        return [LaurentPoly._of_terms(el.registry, terms) for terms in found]

    return read


def mc_defect(lambda0: MultiVector, el: FormedMultiVector) -> FormedMultiVector:
    """L(el) + (1/2)[el, el] with L = dbar + [lambda0, -] and dbar = 0 here."""
    half = GaussianRational.of(1) / 2
    return bracket(lambda0, el) + schouten_formed(el, el).scale(half)
