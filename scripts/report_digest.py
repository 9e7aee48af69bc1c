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
- `analyze --format json` of every light catalog entry (all but severi_O
  and grassmannian_2_7) as a poly_map, at seeds 0-1;
- `clifford` of the same inputs at seeds 0-1;
- `analyze --format json` and `--format text` of the three Gaussian-rational
  quadric systems of `scripts/regen_golden.py` (`complex_system`), the
  inputs that run the report on Z[i], at seeds 0-39;
- `clifford` of those three systems at seeds 0-1.

The last line printed is the report count and the digest.  Two trees that
print the same line give the same bytes on every one of these runs.
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
from secantgeo.polymaps import polymap_to_json  # noqa: E402
from secantgeo.quadrics import quadric_system_to_json  # noqa: E402
from secantgeo.zoo import catalog  # noqa: E402
from regen_golden import COMPLEX, complex_system  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

HEAVY = {"severi_O", "grassmannian_2_7"}
WORKLOAD_SEEDS = range(40)
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
    for workload in WORKLOADS:
        inputs = make_inputs(workload, tmp)
        for seed in WORKLOAD_SEEDS:
            for _name, _kind, path, _gold in inputs:
                for fmt in ("json", "text"):
                    yield run(path, ["analyze", "--format", fmt, "--seed", str(seed)])
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


def main_digest() -> None:
    h, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for line in outputs(Path(tmp)):
            h.update(line)
            count += 1
    print("%d reports sha256 %s" % (count, h.hexdigest()))


if __name__ == "__main__":
    main_digest()
