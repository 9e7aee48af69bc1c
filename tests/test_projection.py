"""The hypersurface reduction of `analyze` against the projected-chart
route it replaced (tests/projection_reference.py)."""

import json

from projection_reference import linear_project, projected_defects
from secantgeo import derive_stream, report
from secantgeo.cli import main
from secantgeo.oracles import join_dimension
from secantgeo.polymaps import polymap_to_json
from secantgeo.report import AnalyzeOptions, _defects_to_json, analyze
from secantgeo.zoo import catalog, veronese


def test_linear_project_preserves_secant_dimension():
    ents = {e.name: e for e in catalog()}
    f = ents["veronese_3_2"].map
    proj = linear_project(f, 5, derive_stream(0, "to", "pr"))
    assert proj.domain_dim == f.domain_dim
    assert proj.codomain_dim == 6
    assert proj.conical
    assert join_dimension(proj, 1, derive_stream(0, "to", "pr1")) == (2,)
    assert join_dimension(proj, 2, derive_stream(0, "to", "pr2")) == (2, 5)
    try:
        linear_project(f, f.codomain_dim, derive_stream(0, "to", "pr3"))
        assert False
    except ValueError:
        pass


def test_projected_defects_match_reference_route():
    # v2(P^4): sigma is degenerate and a0 = 4 < a - 1 = 9
    ent = veronese(2, 4)
    for seed in (0, 3, 7):
        rep = analyze(polymap_to_json(ent.map, base_point=ent.base_point),
                      AnalyzeOptions(seed=seed))
        assert rep.defects_projected is not None
        ref = projected_defects(ent.map, list(ent.base_point), rep.dims["n"], rep.profile.a0,
                                seed)
        assert _defects_to_json(rep.defects_projected) == _defects_to_json(ref)


def test_projection_without_full_rank_draw_exits_2(tmp_path, monkeypatch, capsys):
    derive = report.derive_stream

    def zero_projection(seed, *labels):
        stream = derive(seed, *labels)
        if labels == ("projection",):
            stream.randint = lambda lo, hi: 0  # every projection matrix is zero
        return stream

    monkeypatch.setattr(report, "derive_stream", zero_projection)
    ent = veronese(2, 4)
    path = tmp_path / "v2p4.json"
    path.write_text(json.dumps(polymap_to_json(ent.map, base_point=ent.base_point)))
    assert main(["analyze", "--input", str(path)]) == 2
    assert "no full-rank projection" in capsys.readouterr().err
