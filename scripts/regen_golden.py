"""Regenerate src/secantgeo/data/zoo_expected.json from the dimension oracles,
and tests/data/report_digests.json from the reports.

Every number in the golden file comes out of the join/tangent/Gauss oracles
or the certified rank profile; nothing is typed in by hand.  The digest file
holds the sha256 of the JSON report `secantgeo analyze --format json` writes
at seed 0 for each lighter catalog entry and v2(P^4), once as a poly_map and
once as its quadric_system, and of three Gaussian-rational systems
(`complex_system`); it pins every report byte of those inputs.
Rerunning the script must reproduce both committed files byte for byte.

    PYTHONPATH=src python scripts/regen_golden.py
"""

import hashlib
import json
from pathlib import Path

from secantgeo import derive_stream
from secantgeo.jets import chart_at, second_fundamental_form
from secantgeo.linalg import scalar_values
from secantgeo.oracles import gauss_fiber_dimension, join_dimension, tangent_join_dimension
from secantgeo.polymaps import polymap_to_json
from secantgeo.quadrics import QuadricSystem, quadric_system, quadric_system_to_json, rank_profile
from secantgeo.report import analyze, render
from secantgeo.scalars import I, Scalar
from secantgeo.zoo import catalog, veronese

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "src" / "secantgeo" / "data" / "zoo_expected.json"
DIGESTS = ROOT / "tests" / "data" / "report_digests.json"

# catalog entries whose analysis takes seconds, not a fraction of one
HEAVY = {"severi_O", "grassmannian_2_7"}

# entries whose third secant dimension the acceptance suite pins down
WANT_SIGMA3 = {"segre_3_3", "severi_O"}

# entries whose forms, made complex, pin the Z[i] route of the report: no
# catalog chart is complex, and these keep a0 = a - 1, so the annihilator
# rank, the singular locus and the Clifford checks all run on Z[i]
COMPLEX = ("severi_C", "severi_H", "segre_3_3")


def entry_record(ent) -> dict:
    f = ent.map
    jet = chart_at(f, list(ent.base_point), 3)
    s = second_fundamental_form(jet)
    prof = rank_profile(s, derive_stream(0, ent.name, "golden", "profile"))[0]
    # dim X, dim sigma and, where pinned, dim sigma_3: one certified tuple
    dim_x, sigma, *sigma3 = join_dimension(f, 3 if ent.name in WANT_SIGMA3 else 2,
                                           derive_stream(0, ent.name, "golden", "join"))
    rec = {
        "n": ent.n,
        "ambient": ent.ambient,
        "a": s.a,
        "a0": prof.a0,
        "r": prof.r,
        "dim_x": dim_x,
    }
    tau = tangent_join_dimension(f, derive_stream(0, ent.name, "golden", "tau"))
    if ent.name == "cone_twisted_cubic":
        # the cone is singular at its vertex; the chart only sees the smooth
        # locus, so the oracle dimensions are those of tau(X_sm), sigma(X_sm)
        rec["dim_tau_sm"] = tau
        rec["dim_sigma_sm"] = sigma
    else:
        rec["dim_tau"] = tau
        rec["dim_sigma"] = sigma
    if sigma3:
        rec["sigma3"] = sigma3[0]
    rec["tau_gauss_fiber"] = gauss_fiber_dimension(f, derive_stream(0, ent.name, "golden", "gauss"))
    return rec


def golden_text() -> str:
    """The golden file's text, recomputed from the oracles."""
    table = {ent.name: entry_record(ent) for ent in catalog()}
    return json.dumps(table, indent=2, sort_keys=True) + "\n"


def complex_system(ent) -> QuadricSystem:
    """The second fundamental form of ent with q_0 += (1 + i/2) q_1 and
    q_last *= i."""
    s = second_fundamental_form(chart_at(ent.map, list(ent.base_point), 3))
    n = s.n
    qs = [[scalar_values(q[i:i + n], s.den) for i in range(0, n * n, n)] for q in s.quadrics]
    c = Scalar(1, "1/2")
    qs[0] = [[x + c * y for x, y in zip(r, t)] for r, t in zip(qs[0], qs[1])]
    qs[-1] = [[I * x for x in r] for r in qs[-1]]
    return quadric_system(s.n, qs)


def digest_text() -> str:
    """The digest file's text, recomputed from the reports."""
    table = {}
    for ent in [e for e in catalog() if e.name not in HEAVY] + [veronese(2, 4)]:
        jet = chart_at(ent.map, list(ent.base_point), 3)
        inputs = {"poly_map": polymap_to_json(ent.map, base_point=ent.base_point),
                  "quadric_system": quadric_system_to_json(second_fundamental_form(jet))}
        for kind, obj in inputs.items():
            report = render(analyze(obj), "json").encode("utf-8")
            table["%s/%s" % (ent.name, kind)] = hashlib.sha256(report).hexdigest()
    for ent in [e for e in catalog() if e.name in COMPLEX]:
        report = render(analyze(quadric_system_to_json(complex_system(ent))), "json")
        table["%s_gaussian/quadric_system" % ent.name] = \
            hashlib.sha256(report.encode("utf-8")).hexdigest()
    return json.dumps(table, indent=2, sort_keys=True) + "\n"


def main():
    for path, text in ((OUT, golden_text()), (DIGESTS, digest_text())):
        path.write_text(text, encoding="utf-8")
        print("wrote %s" % path)


if __name__ == "__main__":
    main()
