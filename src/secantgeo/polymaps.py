"""Sparse multivariate polynomials over Q(i) and polynomial maps.

A PolyMap is either an affine chart (its lift prepends the constant 1 as
coordinate 0) or a parametrization whose image is a cone, in which case
the components are their own lift.  Homogeneous maps of one shared degree
may be flagged projective; every projective map is conical.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterable, Sequence

from .linalg import Matrix, integer_values
from .scalars import ONE, ZERO, Scalar, _coerce, scalar_from_json, scalar_to_json


class Poly:
    """terms: exponent tuple -> nonzero Scalar coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", dict(terms) if terms else {})

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def constant(nvars: int, c) -> "Poly":
        c = _coerce(c)
        return Poly(nvars, {(0,) * nvars: c} if c else {})

    @staticmethod
    def variable(nvars: int, i: int, c=1) -> "Poly":
        c = _coerce(c)
        if not c:
            return Poly(nvars)
        e = [0] * nvars
        e[i] = 1
        return Poly(nvars, {tuple(e): c})

    @staticmethod
    def monomial(nvars: int, exps: Sequence[int], c) -> "Poly":
        c = _coerce(c)
        if not c:
            return Poly(nvars)
        return Poly(nvars, {tuple(exps): c})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c) -> "Poly":
        c = _coerce(c)
        if not c:
            return Poly(self.nvars)
        return Poly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = out.get(e)
                if s is None:
                    out[e] = c
                else:
                    s = s + c
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return Poly(self.nvars, out)

    def diff(self, i: int) -> "Poly":
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                e2 = e[:i] + (k - 1,) + e[i + 1:]
                out[e2] = c * Scalar(k)
        return Poly(self.nvars, out)

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        if len(point) != self.nvars:
            raise ValueError("point length mismatch")
        powers: list[list[Scalar]] = [[ONE] for _ in range(self.nvars)]
        acc = ZERO
        for e, c in self.terms.items():
            term = c
            for i, k in enumerate(e):
                if k:
                    p = powers[i]
                    while len(p) <= k:
                        p.append(p[-1] * point[i])
                    term = term * p[k]
            acc = acc + term
        return acc

    def is_homogeneous(self) -> int | None:
        """Shared total degree, or None; the zero polynomial reports 0."""
        degs = {sum(e) for e in self.terms}
        if not degs:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return None

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __repr__(self):
        return "Poly(%d vars, %d terms, deg %d)" % (self.nvars, len(self.terms), self.degree())


def poly_sum(nvars: int, polys: Iterable[Poly]) -> Poly:
    acc = Poly(nvars)
    for p in polys:
        acc = acc + p
    return acc


class PolyMap:
    """domain C^domain_dim -> C^codomain_dim given by components.

    conical: the image is a cone and the components are their own affine
    lift; automatically true for projective (homogeneous) maps.  For plain
    affine charts the lift is (1, components...).  Two maps are equal when
    all but `conical` are.

    jet_plans: order -> the integer term plan of `lift_jet` at that order,
    each built on first use.
    """

    __slots__ = ("domain_dim", "codomain_dim", "projective", "components", "conical",
                 "jet_plans")

    def __init__(self, domain_dim: int, codomain_dim: int, projective: bool,
                 components: tuple[Poly, ...], conical: bool = False):
        if len(components) != codomain_dim:
            raise ValueError("component count != codomain_dim")
        for p in components:
            if p.nvars != domain_dim:
                raise ValueError("component variable count != domain_dim")
        if projective:
            degs = {p.is_homogeneous() for p in components if not p.is_zero()}
            if None in degs or len(degs) > 1:
                raise ValueError("projective map must have homogeneous components of one degree")
            conical = True
        self.domain_dim, self.codomain_dim, self.projective = domain_dim, codomain_dim, projective
        self.components, self.conical = components, conical
        self.jet_plans = {}

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return (self.domain_dim, self.codomain_dim, self.projective, self.components) == \
            (other.domain_dim, other.codomain_dim, other.projective, other.components)

    @property
    def ambient_projective_dim(self) -> int:
        """Dimension of the projective space the image lives in."""
        return self.codomain_dim - 1 if self.conical else self.codomain_dim

    def lift(self) -> tuple[Poly, ...]:
        if self.conical:
            return self.components
        return (Poly(self.domain_dim, {(0,) * self.domain_dim: ONE}),) + self.components

    def evaluate(self, point: Sequence[Scalar]) -> list[Scalar]:
        return [p.evaluate(point) for p in self.components]

    def jacobian_at(self, point: Sequence[Scalar]) -> Matrix:
        """Rows indexed by lift coordinates, columns by domain variables.
        The oracles read `lift_jet`; the tests' symbolic reference reads this."""
        rows = []
        for p in self.lift():
            rows.append([p.diff(j).evaluate(point) for j in range(self.domain_dim)])
        return Matrix(len(rows), self.domain_dim, rows)


def _jet_plan(f: PolyMap, order: int) -> tuple:
    """What `lift_jet` reads at `order`, fixed for the map: (width, keys,
    monomials, terms).  keys lists the derivative keys in order of first
    appearance; monomials the distinct remaining exponents, sparse as
    (variable, power) pairs; each term (key, component, c, monomial) is a
    lift coefficient, cleared, times its falling factorial, whose partial
    at u is c times the monomial at u."""
    lift = f.lift()
    keys, monomials, terms = {(): 0}, {}, []
    for i, q in enumerate(lift):
        for e, c in zip(q.terms, integer_values(list(q.terms.values()))[0]):
            support = [j for j, k in enumerate(e) if k]
            for r in range(min(order, sum(e)) + 1):
                for idx in combinations_with_replacement(support, r):
                    rest, w = list(e), 1
                    for j in idx:  # falling factorials of the exponents
                        w *= rest[j]
                        rest[j] -= 1
                    if w:
                        mono = tuple((j, rest[j]) for j in support if rest[j])
                        terms.append((keys.setdefault(idx, len(keys)), i, c * w,
                                      monomials.setdefault(mono, len(monomials))))
    return len(lift), list(keys), list(monomials), terms


def lift_jet(f: PolyMap, u: Sequence[int], order: int) -> dict:
    """The partial derivatives of the lift of f up to `order` at the integer
    point u, each lift component scaled by the lcm of its coefficients'
    denominators (a diagonal change of coordinates, which moves no rank).
    Keys are sorted tuples of variable indices, () for the value, always
    present; a missing key is zero.  Values are vectors of Gaussian
    integers: ints, and a `linalg.Gaussian` where the imaginary part is
    nonzero.  The map's term plan at `order` is built on first use."""
    plan = f.jet_plans.get(order)
    if plan is None:
        plan = f.jet_plans[order] = _jet_plan(f, order)
    width, keys, monomials, terms = plan
    at = []
    for mono in monomials:
        x = 1
        for j, k in mono:
            x *= u[j] ** k
        at.append(x)
    vecs = [[0] * width for _ in keys]
    for key, i, c, m in terms:
        vecs[key][i] += c * at[m]
    return dict(zip(keys, vecs))


def poly_to_json(p: Poly) -> list:
    return [
        {"exps": list(e), "coeff": scalar_to_json(c)}
        for e, c in sorted(p.terms.items())
    ]


def poly_from_json(obj, nvars: int) -> Poly:
    if not isinstance(obj, list):
        raise ValueError("component must be a list of terms")
    terms = {}
    for t in obj:
        if not isinstance(t, dict) or set(t) != {"exps", "coeff"}:
            raise ValueError("term must have exactly the keys exps, coeff: %r" % (t,))
        e = t["exps"]
        if not isinstance(e, list) or len(e) != nvars or not all(type(k) is int and k >= 0 for k in e):
            raise ValueError("bad exponent vector %r" % (e,))
        c = scalar_from_json(t["coeff"])
        key = tuple(e)
        if key in terms:
            raise ValueError("duplicate exponent vector %r" % (e,))
        if c:
            terms[key] = c
    return Poly(nvars, terms)


def polymap_to_json(f: PolyMap, base_point=None) -> dict:
    out = {
        "kind": "poly_map",
        "domain_dim": f.domain_dim,
        "codomain_dim": f.codomain_dim,
        "projective": f.projective,
        "components": [poly_to_json(p) for p in f.components],
    }
    if base_point is not None and any(base_point):
        out["base_point"] = [scalar_to_json(_coerce(x)) for x in base_point]
    return out


def polymap_from_json(obj) -> PolyMap:
    required = {"kind", "domain_dim", "codomain_dim", "projective", "components"}
    if not isinstance(obj, dict) or not required <= set(obj) or \
            not set(obj) <= required | {"base_point"}:
        raise ValueError("poly_map object must have exactly the keys %s"
                         " (base_point optional)" % sorted(required))
    if obj["kind"] != "poly_map":
        raise ValueError("kind must be 'poly_map'")
    n = obj["domain_dim"]
    m = obj["codomain_dim"]
    if type(n) is not int or type(m) is not int or n < 1 or m < 1:
        raise ValueError("domain_dim and codomain_dim must be positive integers")
    comps = obj["components"]
    if not isinstance(comps, list) or len(comps) != m:
        raise ValueError("components must be a list of length codomain_dim")
    if type(obj["projective"]) is not bool:
        raise ValueError("projective must be true or false")
    polys = tuple(poly_from_json(c, n) for c in comps)
    polymap_base_point(obj)  # validate eagerly so bad inputs fail at load time
    return PolyMap(n, m, obj["projective"], polys)


def polymap_base_point(obj) -> list[Scalar] | None:
    """The optional chart base point carried alongside a poly_map object;
    defaults to None (callers use the origin)."""
    raw = obj.get("base_point") if isinstance(obj, dict) else None
    if raw is None:
        return None
    n = obj.get("domain_dim")
    if not isinstance(raw, list) or len(raw) != n:
        raise ValueError("base_point must be a list of length domain_dim")
    return [scalar_from_json(x) for x in raw]
