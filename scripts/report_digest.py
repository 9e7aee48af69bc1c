"""Print one sha256 over the program's report outputs, to show that a change
leaves every report byte-identical.

Run from the root of each tree to compare (the package is imported from
that tree's `src/`):

    python3 scripts/report_digest.py

The digest covers, in this order, each output with its exit code and its
stderr:

- `analyze --format json` and `--format text` of every input of both
  benchmark workloads (`perfbench/workloads.py`, read as it is) at seeds
  0-39;
- `analyze --format json --trials T` of the same inputs for T = 1, 2, 3, at
  seeds 0-9: the runs whose certified profile rests on fewer samples than
  the 3 points the structural checks read;
- `analyze --format json` of every light catalog entry (all but severi_O
  and grassmannian_2_7) as a poly_map, at seeds 0-1;
- `clifford` of the same inputs at seeds 0-1;
- `analyze --format json` and `--format text` of the three Gaussian-rational
  quadric systems of `scripts/regen_golden.py` (`complex_system`), the
  inputs that run the report on Z[i], at seeds 0-39;
- `clifford` of those three systems at seeds 0-1;
- `analyze --format json` of the v3 re-embeddings of veronese_2_2 and
  severi_C (`zoo.veronese_of`) as poly_maps, at seeds 0-1: wide systems
  (a = 53 and 160 against n = 2 and 4), where `IntegerSpan.perp` takes
  d << a.

The last line printed is the report count and the digest.  Two trees that
print the same line give the same bytes on every one of these runs.  The
line before it pins the charts themselves: one sha256 over the
`quadric_system_to_json` of the second fundamental form of `chart_at` at
orders 3 and 4, for every light catalog entry at its base point and for a
graph map with Gaussian-rational coefficients and base point
(`gaussian_map`, the one `tests/test_jets.py` charts).
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "scripts"))

from secantgeo.cli import main  # noqa: E402
from secantgeo.jets import chart_at, second_fundamental_form  # noqa: E402
from secantgeo.polymaps import Poly, PolyMap, polymap_to_json  # noqa: E402
from secantgeo.quadrics import quadric_system_to_json  # noqa: E402
from secantgeo.scalars import Scalar  # noqa: E402
from secantgeo.zoo import catalog, veronese_of  # noqa: E402
from regen_golden import COMPLEX, complex_system  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

HEAVY = {"severi_O", "grassmannian_2_7"}
WIDE = ("veronese_2_2", "severi_C")
WORKLOAD_SEEDS = range(40)
FEW_TRIALS, FEW_TRIALS_SEEDS = (1, 2, 3), range(10)
CATALOG_SEEDS = range(2)


def run(path: Path, argv) -> bytes:
    """The input's file name, the other arguments, and the exit code, stdout
    and stderr of one in-process `secantgeo` call on that input."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv[:1] + ["--input", str(path)] + argv[1:])
    record = [path.name, argv, code, out.getvalue(), err.getvalue()]
    return json.dumps(record).encode() + b"\n"


def outputs(tmp: Path):
    """One record per run, in the order the module docstring lists; the
    input files are written to tmp."""
    bench = []
    for workload in WORKLOADS:
        inputs = [path for _name, _kind, path, _gold in make_inputs(workload, tmp)]
        bench += inputs
        for seed in WORKLOAD_SEEDS:
            for path in inputs:
                for fmt in ("json", "text"):
                    yield run(path, ["analyze", "--format", fmt, "--seed", str(seed)])
    for trials in FEW_TRIALS:
        for seed in FEW_TRIALS_SEEDS:
            for path in bench:
                yield run(path, ["analyze", "--format", "json", "--seed", str(seed),
                                 "--trials", str(trials)])
    paths = []
    for ent in catalog():
        if ent.name not in HEAVY:
            path = tmp / ("%s.catalog.json" % ent.name)
            path.write_text(json.dumps(polymap_to_json(ent.map, base_point=ent.base_point)),
                            encoding="utf-8")
            paths.append(path)
    for command in (["analyze", "--format", "json"], ["clifford"]):
        for seed in CATALOG_SEEDS:
            for path in paths:
                yield run(path, command + ["--seed", str(seed)])
    gaussian = []
    for ent in catalog():
        if ent.name in COMPLEX:
            path = tmp / ("%s_gaussian.json" % ent.name)
            path.write_text(json.dumps(quadric_system_to_json(complex_system(ent))),
                            encoding="utf-8")
            gaussian.append(path)
    for seed in WORKLOAD_SEEDS:
        for path in gaussian:
            for fmt in ("json", "text"):
                yield run(path, ["analyze", "--format", fmt, "--seed", str(seed)])
    for seed in CATALOG_SEEDS:
        for path in gaussian:
            yield run(path, ["clifford", "--seed", str(seed)])
    wide = []
    for ent in catalog():
        if ent.name in WIDE:
            v3 = veronese_of(ent, 3)
            path = tmp / ("%s.wide.json" % v3.name)
            path.write_text(json.dumps(polymap_to_json(v3.map, base_point=v3.base_point)),
                            encoding="utf-8")
            wide.append(path)
    for seed in CATALOG_SEEDS:
        for path in wide:
            yield run(path, ["analyze", "--format", "json", "--seed", str(seed)])


def gaussian_map():
    """(u1, u2) -> (u1, u2, i u1^2 + u2^2, (1 + i/2) u1 u2 + u2^3) and the base
    point (1/2, i)."""
    i = Scalar(0, 1)
    q1 = Poly.monomial(2, (2, 0), i) + Poly.monomial(2, (0, 2), 1)
    q2 = Poly.monomial(2, (1, 1), Scalar(1, "1/2")) + Poly.monomial(2, (0, 3), 1)
    comps = (Poly.variable(2, 0), Poly.variable(2, 1), q1, q2)
    return PolyMap(2, 4, False, comps), [Scalar("1/2"), i]


def chart_systems():
    """One JSON line per chart the module docstring lists: its name, order
    and quadric system."""
    charts = [(ent.name, ent.map, list(ent.base_point)) for ent in catalog()
              if ent.name not in HEAVY]
    charts.append(("gaussian_map",) + gaussian_map())
    for name, f, base in charts:
        for order in (3, 4):
            s = second_fundamental_form(chart_at(f, base, order))
            yield json.dumps([name, order, quadric_system_to_json(s)]).encode() + b"\n"


def main_digest() -> None:
    h = hashlib.sha256()
    lines = list(chart_systems())
    for line in lines:
        h.update(line)
    print("%d chart quadric systems sha256 %s" % (len(lines), h.hexdigest()))
    h, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for line in outputs(Path(tmp)):
            h.update(line)
            count += 1
    print("%d reports sha256 %s" % (count, h.hexdigest()))


if __name__ == "__main__":
    main_digest()
