"""Regenerate src/secantgeo/data/zoo_expected.json from the dimension oracles.

Every number in the golden file comes out of the join/tangent/Gauss oracles
or the certified rank profile; nothing is typed in by hand.  Rerunning the
script must reproduce the committed file byte for byte (seed 0 streams).
"""

import json
from pathlib import Path

from secantgeo import derive_stream
from secantgeo.jets import chart_at, second_fundamental_form
from secantgeo.oracles import build_tangent_map, gauss_fiber_dimension, join_dimension, tangent_join_dimension
from secantgeo.quadrics import rank_profile
from secantgeo.zoo import catalog

OUT = Path(__file__).resolve().parents[1] / "src" / "secantgeo" / "data" / "zoo_expected.json"

# entries whose third secant dimension the acceptance suite pins down
WANT_SIGMA3 = {"segre_3_3", "severi_O"}


def entry_record(ent) -> dict:
    f = ent.map
    jet = chart_at(f, list(ent.base_point), 3)
    s = second_fundamental_form(jet)
    prof = rank_profile(s, derive_stream(0, ent.name, "golden", "profile"))
    rec = {
        "n": ent.n,
        "ambient": ent.ambient,
        "a": s.a,
        "a0": prof.a0,
        "r": prof.r,
        "dim_x": join_dimension(f, 1, derive_stream(0, ent.name, "golden", "x")),
    }
    tau = tangent_join_dimension(f, derive_stream(0, ent.name, "golden", "tau"))
    sigma = join_dimension(f, 2, derive_stream(0, ent.name, "golden", "sigma"))
    if ent.name == "cone_twisted_cubic":
        # the cone is singular at its vertex; the chart only sees the smooth
        # locus, so the oracle dimensions are those of tau(X_sm), sigma(X_sm)
        rec["dim_tau_sm"] = tau
        rec["dim_sigma_sm"] = sigma
    else:
        rec["dim_tau"] = tau
        rec["dim_sigma"] = sigma
    if ent.name in WANT_SIGMA3:
        rec["sigma3"] = join_dimension(f, 3, derive_stream(0, ent.name, "golden", "sigma3"))
    rec["tau_gauss_fiber"] = gauss_fiber_dimension(
        build_tangent_map(f), derive_stream(0, ent.name, "golden", "gauss"))
    return rec


def golden_text() -> str:
    """The golden file's text, recomputed from the oracles."""
    table = {ent.name: entry_record(ent) for ent in catalog()}
    return json.dumps(table, indent=2, sort_keys=True) + "\n"


def main():
    OUT.write_text(golden_text(), encoding="utf-8")
    print("wrote %s" % OUT)


if __name__ == "__main__":
    main()
