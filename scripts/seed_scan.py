"""Scan `analyze` of the light catalog entries over many seeds and count what
the reports say.

Run from the root of a tree (the package is imported from its `src/`):

    python3 scripts/seed_scan.py [--seeds N] [--trials T]

For every catalog entry but severi_O and grassmannian_2_7, as a poly_map at
its base point, it runs `analyze --format json --seed S --trials T`
in-process for S = 0..N-1 (default 300, T default 5) and prints, per
entry:

- the exits other than 0, grouped by exit code and message (the message up
  to its first colon, so the sampled values are left out), with their seeds;
- how many certified analyses report each pair (a0, vertex_dim), and how
  many report each `vertex_dim` of the generic projection where the
  report has one;
- for each verdict that FAILs at some seed, the number of such seeds.

a0 is the generic rank of II_v, and a rank only drops at special points,
so the largest a0 seen for an entry is that of its generic profile, and a
report at a smaller a0 rests on a non-generic profile.  Among the reports
at the largest a0, a vertex is an intersection of images II_v(T), each of
which contains it, so a report above the smallest value seen there is
above the true vertex.  The last two lines count those reports and the
non-generic ones.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import tempfile
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from secantgeo.cli import main  # noqa: E402
from secantgeo.polymaps import polymap_to_json  # noqa: E402
from secantgeo.zoo import catalog  # noqa: E402

HEAVY = {"severi_O", "grassmannian_2_7"}


def analyze(path: Path, seed: int, trials: int) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process `analyze` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["analyze", "--input", str(path), "--format", "json", "--seed", str(seed),
                     "--trials", str(trials)])
    return code, out.getvalue(), err.getvalue()


def scan(path: Path, seeds, trials: int) -> dict:
    """The exits, vertex counts and FAIL counts of one input over `seeds`."""
    exits, vertices, projected, fails = defaultdict(list), Counter(), Counter(), Counter()
    for seed in seeds:
        code, out, err = analyze(path, seed, trials)
        if code:
            message = err.split(": ", 1)[-1].split(":")[0].strip()
            exits[(code, message)].append(seed)
            continue
        rep = json.loads(out)
        vertices[rep["profile"]["a0"], rep["defects"]["vertex_dim"]] += 1
        if rep["defects_projected"] is not None:
            projected[rep["defects_projected"]["vertex_dim"]] += 1
        fails.update(v["name"] for v in rep["verdicts"] if v["status"] == "fail")
    return {"exits": exits, "a0, vertex_dim": vertices, "projected_vertex_dim": projected,
            "fails": fails}


def _counts(c: Counter) -> str:
    return ", ".join("%s x%d" % kv for kv in sorted(c.items()))


def main_scan(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=300, help="scan seeds 0..N-1 (default 300)")
    ap.add_argument("--trials", type=int, default=5, help="analyze --trials (default 5)")
    args = ap.parse_args(argv)
    seeds = range(args.seeds)
    ents = [e for e in catalog() if e.name not in HEAVY]
    above = total = below = 0
    with tempfile.TemporaryDirectory() as tmp:
        for ent in ents:
            path = Path(tmp) / ("%s.json" % ent.name)
            path.write_text(json.dumps(polymap_to_json(ent.map, base_point=ent.base_point)),
                            encoding="utf-8")
            res = scan(path, seeds, args.trials)
            print("%s (seeds 0-%d)" % (ent.name, args.seeds - 1))
            for (code, message), hit in sorted(res["exits"].items()):
                print("  exit %d x%d: %s; seeds %s"
                      % (code, len(hit), message, ",".join(map(str, hit))))
            for key in ("a0, vertex_dim", "projected_vertex_dim"):
                if res[key]:
                    print("  %s: %s" % (key, _counts(res[key])))
            print("  FAIL: %s" % (_counts(res["fails"]) or "none"))
            top = max((a0 for a0, _ in res["a0, vertex_dim"]), default=None)
            vert = {d: c for (a0, d), c in res["a0, vertex_dim"].items() if a0 == top}
            total += sum(vert.values())
            above += sum(c for d, c in vert.items() if d > min(vert))
            below += sum(c for (a0, _), c in res["a0, vertex_dim"].items() if a0 != top)
            sys.stdout.flush()
    print("vertex above the smallest at its entry's largest a0: %d of %d certified analyses"
          " at that a0" % (above, total))
    print("non-generic profiles (a0 below the largest seen for the entry): %d" % below)


if __name__ == "__main__":
    main_scan()
