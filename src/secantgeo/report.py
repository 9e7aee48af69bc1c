"""Batch analysis: run the full pipeline on a chart or quadric system and
assemble a report with formula/oracle cross-checks and named verdicts.

Reports are deterministic: identical (input, seed, trials, order) produce
byte-identical JSON.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .defects import (DefectReport, annihilator_matches_image_perp, defect_report,
                      fiber_contains_singloc_products, fiber_dimension_identity,
                      kernel_in_singular_locus, quotient_singular_locus_match)
from .genericity import derive_stream
from .jets import chart_at, chart_roundtrip_check, refined_third_form_cube, \
    second_fundamental_form
from .oracles import gauss_fiber_dimension, join_dimension, tangent_join_dimension
from .polymaps import polymap_base_point, polymap_from_json
from .quadrics import (RankProfile, higher_secant_dimension, hypersurface_projection,
                       is_tangentially_degenerate, quadric_system_from_json, rank_profile,
                       tangential_dimension)


class AnalyzeOptions(NamedTuple):
    seed: int = 0
    trials: int = 5
    order: int = 3
    k_max: int = 4


class CrossCheck(NamedTuple):
    quantity: str
    formula: int | None
    oracle: int | None

    @property
    def agree(self) -> bool | None:
        if self.formula is None or self.oracle is None:
            return None
        return self.formula == self.oracle


class Verdict(NamedTuple):
    name: str
    status: str  # pass | fail | not-applicable
    detail: str


class AnalysisReport(NamedTuple):
    input_kind: str
    options: AnalyzeOptions
    profile: RankProfile
    dims: dict
    defects: DefectReport
    defects_projected: DefectReport | None
    cross_checks: tuple[CrossCheck, ...]
    verdicts: tuple[Verdict, ...]


class InputError(ValueError):
    """An input the pipeline cannot use: the command line exits 1 on it."""


def load_input(obj, order: int = 3):
    """Parse an input JSON object into (kind, map or None, chart or None,
    quadric system).  A poly_map is charted at its base point, or at the
    origin when it has none.  Raises InputError on anything it cannot use."""
    try:
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("input must be a JSON object with a 'kind' key")
        kind = obj["kind"]
        if kind == "quadric_system":
            return kind, None, None, quadric_system_from_json(obj)
        if kind != "poly_map":
            raise ValueError("unsupported input kind %r" % (kind,))
        f = polymap_from_json(obj)
        jet = chart_at(f, polymap_base_point(obj) or [0] * f.domain_dim, order)
        return kind, f, jet, second_fundamental_form(jet)
    except ValueError as e:
        raise InputError(str(e)) from None


def analyze(obj, options: AnalyzeOptions = AnalyzeOptions()) -> AnalysisReport:
    """Run the full pipeline on a parsed input JSON object."""
    kind, f, jet, s = load_input(obj, options.order)
    seed, trials = options.seed, options.trials
    n, a = s.n, s.a
    ambient = n + a

    profile, points = rank_profile(s, derive_stream(seed, "profile"), trials)
    dim_tau = tangential_dimension(s, profile)
    tau_degenerate = is_tangentially_degenerate(s, profile)

    # dim sigma = n + a0, plus 1 exactly when F3(v, v, v) leaves II_v(T).
    # Every batch point realizes the whole certified profile, so it lies in
    # the open set U where rank II_v = a0, and on U "F3(v, v, v) in II_v(T)"
    # is a closed rank condition: one point where it fails proves that it
    # fails generically, and "vanishes" at every point is the one-sided
    # answer a unanimous certification gives.  So nothing escalates here,
    # and this value cannot exit 2.
    dim_sigma_formula = third_vanishes = None
    if jet is not None:
        third_vanishes = all(refined_third_form_cube(jet, p.v, p.image) for p in points)
        dim_sigma_formula = n + profile.a0 + (not third_vanishes)

    # sigma_k table: formula column is the span rule, which needs the cubic
    # form to vanish; with no chart the branch is unknown and the span value
    # is reported as-is
    k_max = options.k_max
    sigma_rows = [{"k": 2, "formula": dim_sigma_formula, "bound": n + profile.a0}]
    for hk in higher_secant_dimension(s, k_max, profile, derive_stream(seed, "higher"),
                                      trials)[1:]:
        formula = hk.dimension if third_vanishes is None or third_vanishes else None
        sigma_rows.append({"k": hk.k, "formula": formula, "bound": hk.bound})

    # oracle columns: dim X and every sigma_k from one certified join tuple
    oracle_x = oracle_tau = tau_gauss = None
    oracle_sigma: dict[int, int] = {}
    if f is not None:
        oracle_x, *sigmas = join_dimension(f, k_max, derive_stream(seed, "oracle", "join"), trials)
        oracle_sigma = dict(enumerate(sigmas, 2))
        oracle_tau = tangent_join_dimension(f, derive_stream(seed, "oracle", "tau"), trials)
        if tau_degenerate:
            tau_gauss = gauss_fiber_dimension(f, derive_stream(seed, "oracle", "gauss"), trials)
    for row in sigma_rows:
        row["oracle"] = oracle_sigma.get(row["k"])
        have = [v for v in (row["formula"], row["oracle"]) if v is not None]
        row["within_bound"] = (max(have) <= row["bound"]) if have else None

    dim_sigma_best = oracle_sigma.get(2, dim_sigma_formula)
    sigma_degenerate = delta = None
    if dim_sigma_best is not None:
        sigma_degenerate = dim_sigma_best < min(2 * n + 1, ambient)
        delta = 2 * n + 1 - dim_sigma_best

    sigma_for_defects = dim_sigma_best if dim_sigma_best is not None else n + profile.a0
    defects = defect_report(s, profile, points, sigma_for_defects,
                            derive_stream(seed, "defects"))

    # hypersurface reduction: when sigma is degenerate but tau is not a
    # hypersurface, the rank restriction applies to a generic projection to
    # P^{n + a0 + 1}, where it is; dim sigma <= n + a0 + 1, so the projection
    # keeps it
    projected = None
    if sigma_degenerate and profile.a0 < a - 1:
        s2, prof2, points2 = hypersurface_projection(s, profile,
                                                     derive_stream(seed, "projection"), trials)
        projected = defect_report(s2, prof2, points2, sigma_for_defects,
                                  derive_stream(seed, "projection", "defects"))

    cross_checks = (
        CrossCheck("dim_x", n, oracle_x),
        CrossCheck("dim_tau", dim_tau, oracle_tau),
        *(CrossCheck("dim_sigma_%d" % row["k"], row["formula"], row["oracle"])
          for row in sigma_rows),
    )

    dims = {
        "n": n, "a": a, "ambient": ambient,
        "dim_tau": dim_tau,
        "dim_sigma": dim_sigma_formula,
        "delta_tau": n - profile.a0,
        "delta": delta,
        "tau_degenerate": tau_degenerate,
        "sigma_degenerate": sigma_degenerate,
        "third_form_vanishes": third_vanishes,
        "sigma_k": sigma_rows,
        "tau_gauss_fiber": tau_gauss,
    }

    roundtrip = None if f is None else chart_roundtrip_check(f, jet)
    verdicts = _verdicts(s, points, third_vanishes, defects, projected, cross_checks,
                         sigma_rows, tau_gauss, sigma_degenerate, roundtrip)
    return AnalysisReport(kind, options, profile, dims, defects, projected, cross_checks,
                          verdicts)


def _verdicts(s, points, third_vanishes, defects: DefectReport,
              projected: DefectReport | None, cross_checks, sigma_rows, tau_gauss,
              sigma_degenerate, roundtrip) -> tuple[Verdict, ...]:
    """One line per row (name, hypotheses, check): not-applicable with the
    text of the first hypothesis (holds, text) that does not hold, else the
    status and detail of check() -> (ok, detail), called only then."""
    pairs = [c for c in cross_checks if c.agree is not None]
    bad = ["%s %s!=%s" % (c.quantity, c.formula, c.oracle) for c in pairs if not c.agree]
    bounded = [r for r in sigma_rows if r["within_bound"] is not None]
    # the rank restriction and Zak's bound read the projection's defects
    # when tau is not a hypersurface itself
    hyp, where = (defects, "") if defects.rank_restriction.applicable or projected is None \
        else (projected, "after generic projection to a hypersurface: ")
    rr, zb, cv = hyp.rank_restriction, hyp.zak_bound, defects.clifford_verdict
    independent = s.independent()
    checked = points[:3]
    delta_tau = s.n - defects.profile.a0

    chart = (roundtrip is not None, "needs a chart input")
    tau_degenerate = (tau_gauss is not None, "tau is not degenerate")
    hypersurface = (rr.applicable,
                    "needs a degenerate secant variety and hypersurface tangential variety")
    clifford = (cv.applicable, defects.clifford_unmet or "tangential variety is not a hypersurface")
    common_quadric = (cv.proportionality_ok, "no common quadric")
    rows = [
        ("independent_system", [], lambda: (
            independent, "the quadrics are linearly independent" if independent
            else "degenerate system: some quadrics are dependent or zero")),
        ("formula_oracle_agreement", [(pairs, "no oracle columns for this input")], lambda: (
            not bad, "disagreement: " + ", ".join(bad) if bad
            else "all %d cross-checked dimensions agree" % len(pairs))),
        ("secant_superadditivity", [(bounded, "no sigma_k data")], lambda: (
            all(r["within_bound"] for r in bounded),
            "dim sigma_k <= n + (k-1) a0 for k = %s" % ",".join(str(r["k"]) for r in bounded))),
        ("tau_gauss_lower_bound", [chart, tau_degenerate], lambda: (
            tau_gauss >= delta_tau + 1,
            "fiber %d vs delta_tau + 1 = %d" % (tau_gauss, delta_tau + 1))),
        ("tau_gauss_smooth_bound", [chart, tau_degenerate], lambda: (
            tau_gauss >= delta_tau + 2,
            "fiber %d vs delta_tau + 2 = %d (needs a smooth source)"
            % (tau_gauss, delta_tau + 2))),
        ("rank_restriction", [hypersurface], lambda: (
            rr.ok, "%sr = %d vs n - a + 2 = %d" % (where, rr.r, rr.lower))),
        ("zak_bound", [hypersurface], lambda: (
            zb.ok, "a >= n/2 + 2 + fiber/2%s%s" % (", equality" if zb.equality else "",
                                                   " (after generic projection)" if where
                                                   else ""))),
        ("clifford_fiber_condition", [clifford], lambda: (
            cv.fiber_condition_ok, "dim F_v = vertex_dim + 1")),
        ("clifford_proportionality", [clifford], lambda: (
            cv.proportionality_ok,
            "minimal-subsystem restrictions to span{v} + ker II_v are proportional")),
        ("clifford_identity", [clifford, common_quadric], lambda: (
            cv.phi_v_is_identity, "phi_v is the identity")),
        ("clifford_relation", [clifford, common_quadric], lambda: (
            cv.relation_holds, "anticommutation with sign %+d on %d x %d kernel pairs; "
            "module dim %d" % (cv.sign, cv.kernel_dim, cv.kernel_dim, cv.module_dim))),
        ("so_membership", [(defects.so_membership is not None, defects.clifford_unmet or
                            "needs a one-dimensional annihilator in the hypersurface case")],
         lambda: (defects.so_membership, "each phi_w is skew for the annihilator pairing")),
        # the structural checks, at up to 3 points of the profile's batch
        *((name, [], lambda fn=fn: (
            all(fn(s, point) for point in checked),
            "checked at " + _vectors(len(checked), "certified-generic")))
          for name, fn in (
              ("kernel_in_singular_locus", kernel_in_singular_locus),
              ("annihilator_matches_image_perp", annihilator_matches_image_perp),
              ("fiber_contains_singloc_products", fiber_contains_singloc_products),
              ("fiber_dimension_identity", fiber_dimension_identity),
              ("quotient_singular_locus_match", quotient_singular_locus_match))),
        # read at the profile's batch, one point per trial
        ("third_form_vanishing", [(third_vanishes is not None and sigma_degenerate,
                                   "applies to charts with degenerate secant variety")],
         lambda: (third_vanishes,
                  "refined cubic form vanishes at " + _vectors(len(points), "generic"))),
        ("chart_roundtrip", [chart], lambda: (
            roundtrip, "graph reproduces the chart along random curves")),
    ]
    out = []
    for name, hypotheses, check in rows:
        unmet = next((text for holds, text in hypotheses if not holds), None)
        if unmet is None:
            ok, detail = check()
            out.append(Verdict(name, "pass" if ok else "fail", detail))
        else:
            out.append(Verdict(name, "not-applicable", unmet))
    return tuple(out)


def _vectors(count: int, kind: str) -> str:
    """'1 generic vector', '3 generic vectors'."""
    return "%d %s vector%s" % (count, kind, "s" * (count != 1))


def _defects_to_json(d: DefectReport) -> dict:
    return {
        "profile": d.profile._asdict(),
        "vertex_dim": d.vertex_dim,
        "fiber_dim": d.fiber_dim,
        "minimal_subsystem": {"dim": d.minimal_subsystem_dim},
        "clifford_verdict": d.clifford_verdict._asdict(),
        "so_membership": d.so_membership,
        "rank_restriction_ok": d.rank_restriction.ok,
        "rank_restriction": d.rank_restriction._asdict(),
        "zak_bound_ok": d.zak_bound.ok,
        "zak_bound": d.zak_bound._asdict(),
    }


def report_to_json(rep: AnalysisReport) -> dict:
    return {
        "kind": "analysis_report",
        "input": {"descriptor": rep.input_kind, "type": rep.input_kind},
        "options": rep.options._asdict(),
        "profile": rep.profile._asdict(),
        "dims": rep.dims,
        "cross_checks": [
            {"quantity": c.quantity, "formula": c.formula, "oracle": c.oracle,
             "agree": c.agree} for c in rep.cross_checks
        ],
        "defects": _defects_to_json(rep.defects),
        "defects_projected": _defects_to_json(rep.defects_projected)
        if rep.defects_projected else None,
        "verdicts": [
            {"name": v.name, "status": v.status, "detail": v.detail}
            for v in rep.verdicts
        ],
    }


def dumps(x, nl: str = "\n") -> str:
    """json.dumps(x, indent=2) for the types a report or a CLI result holds,
    else TypeError; nl is the line break and indent before x."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or type(x) in (int, bool):
        return "null" if x is None else str(x).lower()
    inner = nl + "  "
    if isinstance(x, dict):
        items, ends = [encode_basestring_ascii(k) + ": " + dumps(x[k], inner) for k in x], "{}"
    elif isinstance(x, list):
        items, ends = [dumps(v, inner) for v in x], "[]"
    else:
        raise TypeError("a report holds no %s" % type(x).__name__)
    return ends[0] + inner + ("," + inner).join(items) + nl + ends[1] if items else ends


def render(rep: AnalysisReport, fmt: str = "text") -> str:
    if fmt == "json":
        return dumps(report_to_json(rep)) + "\n"
    if fmt != "text":
        raise ValueError("format must be text or json")
    lines = []
    d = rep.dims
    lines.append("analysis of %s (%s)" % (rep.input_kind, rep.input_kind))
    lines.append("  n = %d  a = %d  ambient = %d" % (d["n"], d["a"], d["ambient"]))
    p = rep.profile
    lines.append("  profile: a0 = %d  r = %d  dim_ker = %d  dim_ann = %d  dim_singloc = %d"
                 % (p.a0, p.r, p.dim_ker, p.dim_ann, p.dim_singloc))
    lines.append("  delta_tau = %d  delta = %s  tau degenerate: %s  sigma degenerate: %s"
                 % (d["delta_tau"], d["delta"], d["tau_degenerate"], d["sigma_degenerate"]))
    lines.append("")
    lines.append("  %-14s %10s %10s %7s" % ("quantity", "formula", "oracle", "agree"))
    for c in rep.cross_checks:
        lines.append("  %-14s %10s %10s %7s" %
                     (c.quantity, _cell(c.formula), _cell(c.oracle), _cell(c.agree)))
    if d["tau_gauss_fiber"] is not None:
        lines.append("  tau Gauss fiber dimension: %d" % d["tau_gauss_fiber"])
    de = rep.defects
    lines.append("  vertex_dim = %d  fiber_dim = %d  minimal subsystem dim = %d"
                 % (de.vertex_dim, de.fiber_dim, de.minimal_subsystem_dim))
    lines.append("")
    for v in rep.verdicts:
        lines.append("  %-34s %-15s %s" % (v.name, v.status.upper(), v.detail))
    return "\n".join(lines) + "\n"


def _cell(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "yes" if x else "NO"
    return str(x)
