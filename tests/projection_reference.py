"""The hypersurface reduction `secantgeo.report.analyze` made before it
projected the quadrics in hand: compose the map with a random linear
projection of the ambient space, chart the projected map again from
scratch, and run the defect pipeline on its second fundamental form.
Kept as the reference the quadric projection is checked against."""

from secantgeo.defects import DefectReport, defect_report
from secantgeo.genericity import derive_stream
from secantgeo.jets import chart_at, second_fundamental_form
from linalg_reference import rank
from secantgeo.linalg import Matrix
from secantgeo.polymaps import PolyMap, poly_sum
from secantgeo.quadrics import rank_profile, secant_dimension
from secantgeo.scalars import Scalar


def linear_project(f: PolyMap, target_dim: int, stream, bound: int = 5,
                   retries: int = 10) -> PolyMap:
    """Compose with a random full-rank linear map of the ambient lift onto a
    (target_dim + 1)-dimensional space.  The result is conical: its
    components are their own lift."""
    lift = f.lift()
    m = len(lift)
    if target_dim + 1 >= m:
        raise ValueError("target_dim must drop the ambient dimension")
    rows_needed = target_dim + 1
    for _ in range(retries):
        rows = [[Scalar(stream.randint(-bound, bound)) for _ in range(m)] for _ in range(rows_needed)]
        mat = Matrix(rows_needed, m, rows)
        if rank(mat) == rows_needed:
            break
    else:
        raise RuntimeError("no full-rank projection found")
    comps = []
    for i in range(rows_needed):
        comps.append(poly_sum(f.domain_dim,
                              [lift[j].scale(mat.at(i, j)) for j in range(m) if mat.at(i, j)]))
    projective = f.projective  # homogeneous components stay homogeneous
    return PolyMap(f.domain_dim, rows_needed, projective, tuple(comps), conical=True)


def projected_defects(f: PolyMap, base, n: int, a0: int, seed: int,
                      trials: int = 5) -> DefectReport:
    """Defect report of a generic projection of the n-dimensional image of
    f to P^{n + a0 + 1}, charted at `base`."""
    proj = linear_project(f, n + a0 + 1, derive_stream(seed, "projection"))
    jet = chart_at(proj, base, 3)
    s = second_fundamental_form(jet)
    prof = rank_profile(s, derive_stream(seed, "projection", "profile"), trials)[0]
    sec = secant_dimension(s, jet, prof, derive_stream(seed, "projection", "secant"), trials)
    return defect_report(s, prof, sec.dimension, derive_stream(seed, "projection", "defects"),
                         trials)
