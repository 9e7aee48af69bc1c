"""Benchmark of secantgeo: time from an input file to a rendered report.

Run from the repository root:

    python3 perfbench/run.py --workload catalog_small --seed 0 --seconds 50 --trace 0

Each analysis goes through the user path, in-process:
`secantgeo.cli.main(["analyze", "--input", FILE, "--format", "json", "--seed", S])`,
one analysis at a time, in a single process with no threads (closed loop, one
client).  The workload seed reaches the program only as `--seed`.

The run repeats cycles until `--seconds` have passed, or until the next
cycle would end after them.  A cycle imports the package afresh from `src/`
and generates the input files (`workloads.py`): the set-up; then makes one
pass over the workload's inputs (JSON parse, analyze and render of each);
then times the calibration loop, a fixed pure-Python Fraction loop.

On a 2-CPU virtual machine shared with other tenants the CPUs run up to 2.5x
slower, in phases of seconds to tens of minutes, and CPU time grows with
wall time, so no estimator over raw times, and no run length, keeps runs
made at different times comparable (the fastest pass of a 30 s run ranged
over 1.4-2.6 s on one workload).  The calibration loop slows with the
program, so each cycle's set-up and pass are scaled to a reference speed:
multiplied by REF_CALIB_S over the mean of the loop times just before and
after the cycle.  `analyze_s` and `setup_s` are the medians of these scaled
times over the run: seconds on a machine on which the loop takes
REF_CALIB_S, its time on an idle core.  Over 16 runs of 30 s of
catalog_small this took the spread of the pass time (quartile distance over
median) from 0.18 to 0.05.  The calibration loop uses only the standard
library's Fraction, so no change to the program moves it.  The raw times
are kept in the metadata.  `peak_rss_mb` is the peak resident memory of
the process.

Every report is checked against the golden invariants; a nonzero exit, a
wrong invariant, or a report that differs from the first pass's counts as a
failed analysis.  The last line of stdout is the result object; the line
before it holds the run metadata: Python, backend, CPU count, commit, seed,
every calibration loop, set-up and pass time (raw seconds), and each
report's sha256.  Results compare only with results of the same
`comparable_key` (Python version and rational backend).

With `--trace 1` the run sets up once, times untraced cycles for a third of
the time, then installs the span tracer (`spans.py`) and repeats traced
cycles.  It prints the per-layer metrics named in BENCHMARK.json: exact
counts from the first traced pass (every traced pass must repeat them, or
the run is not correct), raw times as medians over the traced passes, and
`trace.overhead_s`, the traced minus the untraced `analyze_s`.  The spans
of the first traced pass are written to `.perfbench/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
TRACED_MIN_PASSES = 2
CALIB_STEPS = 10000
# seconds of the calibration loop on an idle core (Python 3.11, 2-CPU
# Xeon virtual machine): the speed the scaled times refer to
REF_CALIB_S = 0.02

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, check_report, make_inputs  # noqa: E402


def calibrate() -> float:
    """Seconds for a fixed pure-Python Fraction loop: the machine's speed now."""
    t0 = time.perf_counter()
    x = Fraction(0)
    for k in range(1, CALIB_STEPS + 1):
        x += Fraction(k % 97 + 1, k % 89 + 1)
    if x <= 0:
        raise RuntimeError("calibration loop")
    return time.perf_counter() - t0


def setup(workload, workdir: Path):
    """Import secantgeo afresh and generate the inputs.
    Returns (seconds, inputs, the package's cli module)."""
    for name in [m for m in sys.modules if m == "secantgeo" or m.startswith("secantgeo.")]:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    import secantgeo.cli
    inputs = make_inputs(workload, workdir)
    return time.perf_counter() - t0, inputs, secantgeo.cli


class Runner:
    """Runs cycles of set-up, pass and calibration loop, and checks every
    report.  Times are raw seconds; `scaled` takes them to the reference
    speed."""

    def __init__(self, workload, workdir, seed):
        self.workload, self.workdir, self.seed = workload, workdir, seed
        self.calib = [calibrate()]  # before the first cycle, then after each
        self.setup_times = []  # per cycle; None for a cycle without set-up
        self.pass_times = []
        self.attempted = self.failed = 0
        self.errors = []
        self.first = {}  # (name, kind) -> report text of the first pass
        self.times = {}  # "name.kind" -> seconds of each analysis

    def setup(self) -> float:
        secs, self.inputs, self.cli = setup(self.workload, self.workdir)
        return secs

    def cycle(self, with_setup, tracer=None) -> float:
        """One cycle; returns its raw seconds."""
        t0 = time.perf_counter()
        self.setup_times.append(self.setup() if with_setup else None)
        self.pass_times.append(self.run_pass(tracer))
        self.calib.append(calibrate())
        return time.perf_counter() - t0

    def scaled(self, times, first=0):
        """The median of `times` (one per cycle, None skipped) from cycle
        `first` on, each scaled to the reference speed by the calibration
        loops around its cycle."""
        return statistics.median(
            t * 2 * REF_CALIB_S / (self.calib[i] + self.calib[i + 1])
            for i, t in enumerate(times) if i >= first and t is not None)

    def run_pass(self, tracer=None) -> float:
        gc.collect()
        total = 0.0
        for name, kind, path, gold in self.inputs:
            argv = ["analyze", "--input", str(path), "--format", "json",
                    "--seed", str(self.seed)]
            before = tracer.layer_calls.get("oracles", 0) if tracer else 0
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                t0 = time.perf_counter()
                code = self.cli.main(argv)
                dt = time.perf_counter() - t0
            total += dt
            self.times.setdefault("%s.%s" % (name, kind), []).append(dt)
            if tracer and kind == "quadric_system":
                tracer.counts["oracle_spans_qs"] += tracer.layer_calls.get("oracles", 0) - before
            self._check(name, kind, gold, code, out.getvalue(), err.getvalue())
        return total

    def _check(self, name, kind, gold, code, text, err):
        self.attempted += 1
        key = (name, kind)
        if code != 0:
            bad = ["exit %d: %s" % (code, err.strip())]
        else:
            bad = check_report(json.loads(text), kind, gold)
            if self.first.setdefault(key, text) != text:
                bad.append("report differs from the first pass")
        if bad:
            self.failed += 1
            self.errors.append("%s (%s): %s" % (name, kind, "; ".join(bad)))

    def digests(self):
        return {"%s.%s" % key: hashlib.sha256(text.encode()).hexdigest()
                for key, text in self.first.items()}


def cycles_until(runner, deadline, minimum, with_setup=False, tracer=None, before=None):
    """At least `minimum` cycles, then more while the next one, taking as
    long as the last, ends before the deadline.  Returns the count."""
    n, last = 0, 0.0
    while n < minimum or time.perf_counter() + last < deadline:
        if before:
            before(n)
        last = runner.cycle(with_setup, tracer)
        n += 1
    return n


def layer_value(tracer: Tracer, name: str):
    """Value of a per-layer metric named in BENCHMARK.json, from the tracer's
    stats for one pass."""
    c = tracer.counts
    special = {
        "genericity.samples": lambda: c["samples"],
        "genericity.escalations":
            lambda: c["batches"] - tracer.stats.get("genericity.certified_value", [0])[0],
        "genericity.useful_ratio":
            lambda: c["certified"] / c["samples"] if c["samples"] else 0.0,
        "linalg.largest_rows": lambda: tracer.largest[0],
        "linalg.largest_cols": lambda: tracer.largest[1],
        "oracles.spans_in_quadric_systems": lambda: c["oracle_spans_qs"],
    }
    if name in special:
        return special[name]()
    span, _, what = name.rpartition(".")
    if what == "self_s" and span in LAYERS:
        return tracer.layer_self.get(span, 0.0)
    if what == "entries":
        return c["entries"].get(span, 0)
    field = {"calls": 0, "incl_s": 1, "self_s": 2}[what]
    return tracer.stats.get(span, [0, 0.0, 0.0])[field]


def traced_cycles(runner, tracer, deadline, per_layer):
    """Traced cycles until the deadline.  Returns ({metric: [value per
    pass]}, the counts that differ between passes)."""
    values = {m["name"]: [] for m in per_layer if m["name"] != "trace.overhead_s"}

    def start(i):
        if i:
            collect()
        tracer.reset()
        tracer.keep_records = i == 0

    def collect():
        for name, vals in values.items():
            vals.append(layer_value(tracer, name))

    tracer.install()
    try:
        cycles_until(runner, deadline, TRACED_MIN_PASSES, tracer=tracer, before=start)
    finally:
        tracer.uninstall()
    collect()
    counts = {m["name"] for m in per_layer if m["unit"] == "count"}
    unsteady = sorted(n for n in counts if len(set(values[n])) > 1)
    return values, unsteady


def write_spans(tracer: Tracer, workload, seed):
    OUT.mkdir(exist_ok=True)
    path = OUT / ("spans-%s-seed%s.jsonl" % (workload, seed))
    t0 = min((r[3] for r in tracer.records), default=0.0)
    with path.open("w", encoding="utf-8") as fh:
        for sid, parent, name, start, end in tracer.records:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start": start - t0, "end": end - t0}) + "\n")
    return path


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "secantgeo" / "__init__.py").is_file():
        sys.stderr.write("error: no secantgeo package under %s\n" % SRC)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    workdir = OUT / ("inputs-%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec, workdir) -> int:
    t0 = time.perf_counter()
    runner = Runner(args.workload, workdir, args.seed)
    metrics = {}
    unsteady = []
    if args.trace:
        runner.setup()
        untraced = cycles_until(runner, t0 + args.seconds / 3, 1)
        tracer = Tracer()
        values, unsteady = traced_cycles(runner, tracer, t0 + args.seconds,
                                         spec["per_layer"])
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                value = (runner.scaled(runner.pass_times, untraced)
                         - runner.scaled(runner.pass_times[:untraced]))
            elif m["unit"] == "count":
                value = values[name][0]
            else:
                value = statistics.median(values[name])
            metrics[name] = {"value": value, "unit": m["unit"]}
        spans_file = str(write_spans(tracer, args.workload, args.seed).relative_to(ROOT))
    else:
        untraced = cycles_until(runner, t0 + args.seconds, 1, with_setup=True)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measured = {"analyze_s": runner.scaled(runner.pass_times),
                    "setup_s": runner.scaled(runner.setup_times),
                    "peak_rss_mb": rss_mb}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        spans_file = None

    for e in runner.errors[:10]:
        sys.stderr.write("FAILED %s\n" % e)
    for name in unsteady:
        sys.stderr.write("UNSTEADY count %s differs between traced passes\n" % name)
    backend = sys.modules["secantgeo.scalars"].BACKEND
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "backend": backend,
        "nproc": os.cpu_count(), "commit": commit_id(),
        # results compare only with results that have the same key
        "comparable_key": "python-%s/%s" % (platform.python_version(), backend),
        "ref_calib_s": REF_CALIB_S, "calibration_s": runner.calib,
        "setup_s": runner.setup_times, "pass_s": runner.pass_times,
        "untraced_passes": untraced, "input_s": runner.times,
        "report_sha256": runner.digests(), "spans_file": spans_file,
    }
    for name, m in metrics.items():
        print("%-44s %14.6f %s" % (name, m["value"], m["unit"]))
    # not a metric: it is 0 when all is well, so it has no relative spread; the
    # result carries it as `failed` of `attempted`
    print("%-44s %14.6f of %d analyses" % ("failed_frac", runner.failed / runner.attempted,
                                           runner.attempted))
    print(json.dumps({"meta": meta}))
    result = {"correct": runner.failed == 0 and not unsteady,
              "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
