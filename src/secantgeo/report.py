"""Batch analysis: run the full pipeline on a chart or quadric system and
assemble a report with formula/oracle cross-checks and named verdicts.

Reports are deterministic: identical (input, seed, trials, order) produce
byte-identical JSON.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .defects import (DefectError, DefectReport, annihilator_matches_image_perp,
                      defect_report, fiber_contains_singloc_products,
                      fiber_dimension_identity, kernel_in_singular_locus,
                      quotient_singular_locus_match, tau_gauss_bound_check)
from .genericity import derive_stream
from .jets import chart_at, chart_roundtrip_check, refined_third_form_cube, \
    second_fundamental_form
from .oracles import join_dimension, tangent_join_dimension
from .polymaps import polymap_base_point, polymap_from_json
from .quadrics import (RankProfile, generic_image, generic_vector, higher_secant_dimension,
                       hypersurface_projection, is_tangentially_degenerate,
                       quadric_system_from_json, rank_profile, secant_dimension,
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


def _status(flag: bool | None) -> str:
    return "not-applicable" if flag is None else "pass" if flag else "fail"


def analyze(obj, options: AnalyzeOptions = AnalyzeOptions()) -> AnalysisReport:
    """Run the full pipeline on a parsed input JSON object."""
    kind, f, jet, s = load_input(obj, options.order)
    seed, trials = options.seed, options.trials
    n, a = s.n, s.a
    ambient = n + a

    profile, points = rank_profile(s, derive_stream(seed, "profile"), trials)
    dim_tau = tangential_dimension(s, profile)
    tau_degenerate = is_tangentially_degenerate(s, profile)

    dim_sigma_formula, third_vanishes = (None, None) if jet is None else \
        secant_dimension(s, jet, profile, derive_stream(seed, "secant"), trials)

    # sigma_k table: formula column is the span rule, which needs the cubic
    # form to vanish; with no chart the branch is unknown and the span value
    # is reported as-is
    k_max = max(2, options.k_max)
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
            tau_gauss = tau_gauss_bound_check(f, s, profile,
                                              derive_stream(seed, "oracle", "gauss"), trials)
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
    defects = defect_report(s, profile, sigma_for_defects, derive_stream(seed, "defects"),
                            trials)

    # hypersurface reduction: when sigma is degenerate but tau is not a
    # hypersurface, the rank restriction applies to a generic projection to
    # P^{n + a0 + 1}, where it is; dim sigma <= n + a0 + 1, so the projection
    # keeps it
    projected = None
    if sigma_degenerate and profile.a0 < a - 1:
        s2, prof2 = hypersurface_projection(s, profile, derive_stream(seed, "projection"),
                                            trials)
        projected = defect_report(s2, prof2, sigma_for_defects,
                                  derive_stream(seed, "projection", "defects"), trials)

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
        "tau_gauss_fiber": tau_gauss.fiber_dim if tau_gauss else None,
    }

    roundtrip = None if f is None else chart_roundtrip_check(f, jet)
    verdicts = _verdicts(s, profile, points, jet, defects, projected, cross_checks,
                         sigma_rows, tau_gauss, sigma_degenerate, roundtrip, options)
    return AnalysisReport(kind, options, profile, dims, defects, projected, cross_checks,
                          verdicts)


def _verdicts(s, profile, points, jet, defects: DefectReport,
              projected: DefectReport | None, cross_checks, sigma_rows, tau_gauss,
              sigma_degenerate, roundtrip, options) -> tuple[Verdict, ...]:
    independent = s.independent()
    out = [Verdict("independent_system", _status(independent),
                   "the quadrics are linearly independent" if independent
                   else "degenerate system: some quadrics are dependent or zero")]

    pairs = [c for c in cross_checks if c.agree is not None]
    if pairs:
        ok = all(c.agree for c in pairs)
        bad = ", ".join("%s %s!=%s" % (c.quantity, c.formula, c.oracle)
                        for c in pairs if not c.agree)
        out.append(Verdict("formula_oracle_agreement", _status(ok),
                           "all %d cross-checked dimensions agree" % len(pairs) if ok
                           else "disagreement: " + bad))
    else:
        out.append(Verdict("formula_oracle_agreement", "not-applicable",
                           "no oracle columns for this input"))

    rows = [r for r in sigma_rows if r["within_bound"] is not None]
    ok = all(r["within_bound"] for r in rows) if rows else None
    out.append(Verdict("secant_superadditivity", _status(ok),
                       "dim sigma_k <= n + (k-1) a0 for k = %s" %
                       ",".join(str(r["k"]) for r in rows) if rows else "no sigma_k data"))

    if tau_gauss is not None:
        out.append(Verdict("tau_gauss_lower_bound", _status(tau_gauss.weak_bound_holds),
                           "fiber %d vs delta_tau + 1 = %d" %
                           (tau_gauss.fiber_dim, tau_gauss.delta_tau + 1)))
        out.append(Verdict("tau_gauss_smooth_bound", _status(tau_gauss.smooth_bound_holds),
                           "fiber %d vs delta_tau + 2 = %d (needs a smooth source)" %
                           (tau_gauss.fiber_dim, tau_gauss.delta_tau + 2)))
    else:
        detail = "tau is not degenerate" if jet is not None else "needs a chart input"
        out.append(Verdict("tau_gauss_lower_bound", "not-applicable", detail))
        out.append(Verdict("tau_gauss_smooth_bound", "not-applicable", detail))

    rr = defects.rank_restriction
    rr_detail = "r = %d vs n - a + 2 = %d" % (rr.r, rr.lower)
    if not rr.applicable and projected is not None:
        rr = projected.rank_restriction
        rr_detail = "after generic projection to a hypersurface: r = %d vs n - a + 2 = %d" % \
            (rr.r, rr.lower)
    out.append(Verdict("rank_restriction", _status(rr.holds if rr.applicable else None),
                       rr_detail if rr.applicable else
                       "needs a degenerate secant variety and hypersurface tangential variety"))

    zb = defects.zak_bound
    zb_where = ""
    if not zb.applicable and projected is not None:
        zb = projected.zak_bound
        zb_where = " (after generic projection)"
    out.append(Verdict("zak_bound", _status(zb.holds if zb.applicable else None),
                       "a >= n/2 + 2 + fiber/2%s%s" %
                       (", equality" if zb.equality else "", zb_where)
                       if zb.applicable else
                       "needs a degenerate secant variety and hypersurface tangential variety"))

    cv = defects.clifford_verdict
    if cv.applicable:
        out.append(Verdict("clifford_fiber_condition", _status(cv.fiber_condition_ok),
                           "dim F_v = vertex_dim + 1"))
        out.append(Verdict("clifford_proportionality", _status(cv.proportionality_ok),
                           "minimal-subsystem restrictions to span{v} + ker II_v are proportional"))
        if cv.proportionality_ok:
            out.append(Verdict("clifford_identity", _status(cv.phi_v_is_identity),
                               "phi_v is the identity"))
            out.append(Verdict("clifford_relation", _status(cv.relation_holds),
                               "anticommutation with sign %+d on %d x %d kernel pairs; "
                               "module dim %d" % (cv.sign, cv.kernel_dim, cv.kernel_dim,
                                                  cv.module_dim)))
        else:
            out.append(Verdict("clifford_identity", "not-applicable", "no common quadric"))
            out.append(Verdict("clifford_relation", "not-applicable", "no common quadric"))
    else:
        for name in ("clifford_fiber_condition", "clifford_proportionality",
                     "clifford_identity", "clifford_relation"):
            out.append(Verdict(name, "not-applicable", defects.clifford_unmet or
                               "tangential variety is not a hypersurface"))
    out.append(Verdict("so_membership", _status(defects.so_membership),
                       "each phi_w is skew for the annihilator pairing"
                       if defects.so_membership is not None else defects.clifford_unmet or
                       "needs a one-dimensional annihilator in the hypersurface case"))

    # structural properties at 3 certified-generic vectors, the profile's own
    checks = (
        ("kernel_in_singular_locus", kernel_in_singular_locus),
        ("annihilator_matches_image_perp", annihilator_matches_image_perp),
        ("fiber_contains_singloc_products", fiber_contains_singloc_products),
        ("fiber_dimension_identity", fiber_dimension_identity),
        ("quotient_singular_locus_match", quotient_singular_locus_match),
    )
    stream = derive_stream(options.seed, "properties")
    points = points[:3] + [generic_vector(s, profile, stream, options.trials)
                           for _ in range(3 - len(points))]
    for name, fn in checks:
        try:
            ok = all(fn(s, point) for point in points)
            out.append(Verdict(name, _status(ok), "checked at 3 certified-generic vectors"))
        except DefectError as e:
            out.append(Verdict(name, "fail", str(e)))

    if jet is not None and sigma_degenerate:
        # each v accepted on a0 alone, which is sound here (`generic_image`)
        stream = derive_stream(options.seed, "third-form")
        ok = True
        for _ in range(5):
            v, image = generic_image(s, profile, stream, options.trials)
            ok = ok and refined_third_form_cube(jet, v, image)
        out.append(Verdict("third_form_vanishing", _status(ok),
                           "refined cubic form vanishes at 5 generic vectors"))
    else:
        out.append(Verdict("third_form_vanishing", "not-applicable",
                           "applies to charts with degenerate secant variety"))

    out.append(Verdict("chart_roundtrip", _status(roundtrip),
                       "graph reproduces the chart along random curves"
                       if roundtrip is not None else "needs a chart input"))
    return tuple(out)


def _defects_to_json(d: DefectReport) -> dict:
    return {
        "profile": d.profile._asdict(),
        "vertex_dim": d.vertex_dim,
        "fiber_dim": d.fiber_dim,
        "minimal_subsystem": {"dim": d.minimal_subsystem.dim},
        "clifford_verdict": d.clifford_verdict._asdict(),
        "so_membership": d.so_membership,
        "rank_restriction_ok": d.rank_restriction.holds if d.rank_restriction.applicable
        else None,
        "rank_restriction": d.rank_restriction._asdict(),
        "zak_bound_ok": d.zak_bound.holds if d.zak_bound.applicable else None,
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
                 % (de.vertex_dim, de.fiber_dim, de.minimal_subsystem.dim))
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
