"""Input JSON: poly_map and quadric_system objects survive JSON -> object ->
JSON unchanged, and every malformed variant of one exits 1 from the command
line, never 3."""

import copy
import io
import json
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from secantgeo.cli import main
from secantgeo.polymaps import Poly, PolyMap, polymap_base_point, polymap_from_json, \
    polymap_to_json
from secantgeo.quadrics import quadric_system, quadric_system_from_json, quadric_system_to_json
from secantgeo.scalars import Rational, Scalar

PROPERTY = settings(max_examples=100, deadline=None, database=None)

PART = st.builds(Rational, st.integers(-9, 9), st.integers(1, 6))
SCALARS = st.one_of(st.builds(Scalar, PART), st.builds(Scalar, PART, PART))


@st.composite
def poly_map_objects(draw):
    """polymap_to_json of a small map: affine, or projective and homogeneous of
    one degree, with a base point that is sometimes the origin (and then
    left out)."""
    p = draw(st.integers(1, 3))
    projective = draw(st.booleans())
    deg = draw(st.integers(1, 3))
    comps = []
    for _ in range(draw(st.integers(1, 4))):
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            if projective:
                e = [0] * p
                for j in draw(st.lists(st.integers(0, p - 1), min_size=deg, max_size=deg)):
                    e[j] += 1
            else:
                e = draw(st.lists(st.integers(0, 3), min_size=p, max_size=p))
            c = draw(SCALARS)
            if c:
                terms[tuple(e)] = c
        comps.append(Poly(p, terms))
    f = PolyMap(p, len(comps), projective, tuple(comps))
    base = draw(st.lists(SCALARS, min_size=p, max_size=p))
    return polymap_to_json(f, base_point=base)


@st.composite
def quadric_system_objects(draw):
    n = draw(st.integers(1, 3))
    mats = []
    for _ in range(draw(st.integers(0, 3))):
        data = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                data[i][j] = data[j][i] = draw(SCALARS)
        mats.append(data)
    return quadric_system_to_json(quadric_system(n, mats))


INPUTS = st.one_of(poly_map_objects(), quadric_system_objects())

# replacements that no field of that type accepts
NOT_INTS = (True, False, 1.5, "1", None, [])
NOT_BOOLS = ("no", "true", 0, 1, None)
NOT_RATIONALS = (1, 0.5, None, "1/0", "1.5", "", "+1", "1/", "/2", "--1", " 1")


def _nodes(obj, path=()):
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


@st.composite
def malformed(draw):
    """A valid input with one node broken: an int field given a non-int, the
    projective flag given a non-bool, a rational string or the kind given a
    bad value, a required key dropped, an unknown key added, or a list given
    one element too many."""
    obj = copy.deepcopy(draw(INPUTS))
    path, node = draw(st.sampled_from(list(_nodes(obj))))
    if isinstance(node, bool):
        new = draw(st.sampled_from(NOT_BOOLS))
    elif type(node) is int:
        new = draw(st.sampled_from(NOT_INTS))
    elif isinstance(node, str):
        new = draw(st.sampled_from(NOT_RATIONALS if path[-1] in ("re", "im") else (1, "nope")))
    elif isinstance(node, list):
        new = node + [None]
    else:
        new = dict(node)
        required = sorted(k for k in node if k != "base_point")
        if draw(st.booleans()):
            del new[draw(st.sampled_from(required))]
        else:
            new["extra"] = 0
    if not path:
        return new
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return obj


def _analyze(obj):
    old = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(json.dumps(obj)), io.StringIO(), io.StringIO()
    try:
        return main(["analyze"]), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = old


@PROPERTY
@given(INPUTS)
def test_json_object_json_is_the_identity(obj):
    obj = json.loads(json.dumps(obj))
    if obj["kind"] == "poly_map":
        back = polymap_to_json(polymap_from_json(obj), base_point=polymap_base_point(obj))
    else:
        back = quadric_system_to_json(quadric_system_from_json(obj))
    assert back == obj


@PROPERTY
@given(malformed())
def test_malformed_inputs_exit_one(obj):
    code, err = _analyze(obj)
    assert code == 1, err
    assert err.startswith("error: ")
