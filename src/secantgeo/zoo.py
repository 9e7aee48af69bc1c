"""Catalog of chart parametrizations for the standard examples: Segre and
Veronese embeddings, the four rank-one loci of 3x3 Hermitian matrices over
the division algebras, Plucker-embedded Grassmannians of 2-planes, a
singular cone, and determinantal varieties."""

from __future__ import annotations

import json
from importlib import resources
from itertools import product
from typing import NamedTuple

from .algebras import AlgebraTag, _structure_table
from .polymaps import Poly, PolyMap, poly_sum
from .scalars import ONE, Scalar


class ZooEntry(NamedTuple):
    name: str
    map: PolyMap
    base_point: tuple[Scalar, ...]
    notes: str = ""

    @property
    def n(self) -> int:
        return self.map.domain_dim

    @property
    def ambient(self) -> int:
        return self.map.ambient_projective_dim


def _zeros(n: int) -> tuple[Scalar, ...]:
    return tuple(Scalar(0) for _ in range(n))


def segre(k: int, r: int) -> ZooEntry:
    """Products of the point coordinates of two projective factors, in the
    chart where both pinned coordinates are 1; the (0,0) product is the
    affine pivot and is dropped."""
    if k < 2 or r < 2:
        raise ValueError("segre factors need k, r >= 2")
    n = (k - 1) + (r - 1)

    def left(i):
        return Poly.constant(n, ONE) if i == 0 else Poly.variable(n, i - 1)

    def right(j):
        return Poly.constant(n, ONE) if j == 0 else Poly.variable(n, (k - 1) + j - 1)

    comps = [left(i) * right(j) for i in range(k) for j in range(r) if (i, j) != (0, 0)]
    return ZooEntry("segre_%d_%d" % (k, r), PolyMap(n, len(comps), False, tuple(comps)),
                    _zeros(n), "rank-one %dx%d matrices" % (k, r))


def _monomial_exponents(m: int, d: int):
    exps = [e for e in product(range(d + 1), repeat=m) if 1 <= sum(e) <= d]
    exps.sort(key=lambda e: (sum(e), e))
    return exps


def veronese(d: int, m: int) -> ZooEntry:
    """All monomials of degree 1..d in m affine coordinates (the degree-d
    re-embedding of projective m-space in its standard chart)."""
    if d < 1 or m < 1:
        raise ValueError("veronese needs d, m >= 1")
    comps = tuple(Poly.monomial(m, e, ONE) for e in _monomial_exponents(m, d))
    return ZooEntry("veronese_%d_%d" % (d, m), PolyMap(m, len(comps), False, comps),
                    _zeros(m), "degree-%d monomial embedding of %d-space" % (d, m))


def veronese_of(entry: ZooEntry, d: int, name: str | None = None) -> ZooEntry:
    """Degree-d re-embedding of an existing chart: all monomials of degree
    1..d in the chart components.  Coinciding monomials are kept; the
    re-embedded ambient space is the full space of monomials."""
    if d < 1:
        raise ValueError("veronese_of needs d >= 1")
    if entry.map.conical:
        raise ValueError("veronese_of expects an affine chart")
    gs = entry.map.components
    nv = entry.map.domain_dim
    comps = []
    for e in _monomial_exponents(len(gs), d):
        acc = Poly.constant(nv, ONE)
        for gi, ei in zip(gs, e):
            for _ in range(ei):
                acc = acc * gi
        comps.append(acc)
    nm = name or (entry.name + "_v%d" % d)
    return ZooEntry(nm, PolyMap(nv, len(comps), False, tuple(comps)),
                    entry.base_point, "degree-%d re-embedding of %s" % (d, entry.name))


def severi(tag: AlgebraTag | str) -> ZooEntry:
    """Rank-one 3x3 Hermitian matrices over the algebra, in the chart where
    the first diagonal entry is 1: the remaining entries are exactly
    quadratic in the two off-diagonal parameters."""
    if isinstance(tag, str):
        try:
            tag = AlgebraTag[tag]
        except KeyError:
            raise ValueError("unknown algebra %r" % tag) from None
    d = tag.dim
    n = 2 * d
    u1 = [Poly.variable(n, i) for i in range(d)]
    u2 = [Poly.variable(n, d + i) for i in range(d)]
    r2 = poly_sum(n, [p * p for p in u1])
    r3 = poly_sum(n, [p * p for p in u2])
    parts: list[list[Poly]] = [[] for _ in range(d)]
    table = _structure_table(tag)
    for i in range(d):
        for j in range(d):
            # J_i conj(J_j) is J_i J_j for j = 0, and -J_i J_j otherwise
            k, sign = table[i][j]
            parts[k].append((u2[i] * u1[j]).scale(sign if j == 0 else -sign))
    u3 = [poly_sum(n, ps) for ps in parts]
    comps = (r2, r3, *u1, *u2, *u3)
    return ZooEntry("severi_%s" % tag.name, PolyMap(n, len(comps), False, comps),
                    _zeros(n), "rank-one Hermitian 3x3 chart over %s" % tag.name)


def grassmannian(planes: int, m: int) -> ZooEntry:
    """Plucker coordinates of the row space of [I_2 | B] for a 2 x (m-2)
    parameter block B; the (0,1) minor is the affine pivot."""
    if planes != 2:
        raise ValueError("only 2-planes are implemented")
    if m < 4:
        raise ValueError("grassmannian needs m >= 4")
    w = m - 2
    n = 2 * w

    def entry(r, j):
        if j < 2:
            return Poly.constant(n, ONE if j == r else Scalar(0))
        return Poly.variable(n, r * w + (j - 2))

    comps = []
    for i in range(m):
        for j in range(i + 1, m):
            if (i, j) == (0, 1):
                continue
            comps.append(entry(0, i) * entry(1, j) - entry(0, j) * entry(1, i))
    return ZooEntry("grassmannian_2_%d" % m, PolyMap(n, len(comps), False, tuple(comps)),
                    _zeros(n), "2-planes in %d-space, Plucker chart" % m)


def cone_over_twisted_cubic() -> ZooEntry:
    """Cone over the twisted cubic with an added vertex direction: the
    smooth-locus chart (t, t^2, t^3, z)."""
    t = Poly.variable(2, 0)
    z = Poly.variable(2, 1)
    comps = (t, t * t, t * t * t, z)
    return ZooEntry("cone_twisted_cubic", PolyMap(2, 4, False, comps), _zeros(2),
                    "cone over a twisted cubic, smooth locus")


def rank_variety(k: int, r: int, l: int) -> ZooEntry:
    """k x r matrices of rank at most l, parametrized on the smooth stratum
    as [I_l; A'] B with B_00 pinned to 1 as the affine pivot."""
    if not 1 <= l < min(k, r):
        raise ValueError("need 1 <= l < min(k, r)")
    nb = l * r - 1
    n = nb + (k - l) * l

    def bvar(i, j):
        if i == 0 and j == 0:
            return Poly.constant(n, ONE)
        return Poly.variable(n, i * r + j - 1)

    def avar(i, t):
        return Poly.variable(n, nb + i * l + t)

    comps = []
    for i in range(k):
        for j in range(r):
            if (i, j) == (0, 0):
                continue
            if i < l:
                comps.append(bvar(i, j))
            else:
                comps.append(poly_sum(n, [avar(i - l, t) * bvar(t, j) for t in range(l)]))
    base = [Scalar(0)] * n
    for i in range(1, l):
        base[i * r + i - 1] = ONE  # B starts at [I_l | 0]
    return ZooEntry("rank_%d_%d_%d" % (k, r, l), PolyMap(n, len(comps), False, tuple(comps)),
                    tuple(base), "%dx%d matrices of rank at most %d" % (k, r, l))


def catalog() -> tuple[ZooEntry, ...]:
    return (
        severi("R"), severi("C"), severi("H"), severi("O"),
        veronese(2, 2), veronese(3, 1), veronese(3, 2),
        veronese_of(veronese(2, 1), 2, name="veronese_conic"),
        segre(2, 2), segre(3, 3),
        grassmannian(2, 6), grassmannian(2, 7),
        cone_over_twisted_cubic(),
        rank_variety(4, 4, 2),
    )


# each family's parameters; `--of` fills an inner family's in this order
_PARAMS = {"segre": ("k", "r"), "veronese": ("d", "m"), "veronese_of": ("d", "of"),
           "severi": ("algebra",), "grassmannian": ("m",), "cone": (),
           "rank_variety": ("k", "r", "l")}
_INNER = ("segre", "veronese", "severi", "grassmannian", "cone")


def build(family: str, params: dict) -> ZooEntry:
    """CLI-facing dispatcher.  Raises ValueError on unknown families, on
    parameters the family does not take, and on bad values."""
    fam = family.replace("-", "_")
    if fam not in _PARAMS:
        raise ValueError("unknown family %r" % family)
    extra = sorted(set(params) - set(_PARAMS[fam]))
    if extra:
        raise ValueError("%s takes no parameter %s" % (fam, ", ".join("--" + k for k in extra)))
    if fam == "segre":
        return segre(_need(params, "k"), _need(params, "r"))
    if fam == "veronese":
        return veronese(_need(params, "d"), _need(params, "m"))
    if fam == "veronese_of":
        return veronese_of(_parse_of(params.get("of")), _need(params, "d"))
    if fam == "severi":
        alg = params.get("algebra")
        if not alg:
            raise ValueError("severi needs --algebra R|C|H|O")
        return severi(alg)
    if fam == "grassmannian":
        return grassmannian(2, _need(params, "m"))
    if fam == "cone":
        return cone_over_twisted_cubic()
    return rank_variety(_need(params, "k"), _need(params, "r"), _need(params, "l"))


def _need(params: dict, key: str) -> int:
    val = params.get(key)
    if val is None:
        raise ValueError("missing parameter --%s" % key)
    return int(val)


def _parse_of(text) -> ZooEntry:
    """Inner-entry descriptor for re-embeddings: 'family:p1,p2' with
    positional parameters in the family's natural order, e.g. veronese:2,1."""
    if not text:
        raise ValueError("veronese_of needs --of family:params")
    head, _, rest = str(text).partition(":")
    fam = head.replace("-", "_")
    if fam not in _INNER:
        raise ValueError("unknown inner family %r" % head)
    values = [p for p in rest.split(",") if p]
    if len(values) > len(_PARAMS[fam]):
        raise ValueError("%s takes %d parameters, got %d" % (fam, len(_PARAMS[fam]), len(values)))
    return build(fam, dict(zip(_PARAMS[fam], values)))


def expected(entry: ZooEntry) -> dict | None:
    """Frozen reference invariants for a catalog entry, or None if the entry
    has no golden record.  Values originate from the dimension oracles, not
    from hand entry."""
    table = _expected_table()
    return table.get(entry.name)


_EXPECTED_CACHE: dict | None = None


def _expected_table() -> dict:
    global _EXPECTED_CACHE
    if _EXPECTED_CACHE is None:
        ref = resources.files("secantgeo").joinpath("data/zoo_expected.json")
        _EXPECTED_CACHE = json.loads(ref.read_text(encoding="utf-8"))
    return _EXPECTED_CACHE
