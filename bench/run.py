#!/usr/bin/env python3
"""Benchmark of the stickknots library.

Run from the repository root:

    python3 bench/run.py --workload census7 --seed 1 --seconds 24 --trace 0

Workloads are ``census7``, ``sweep``, ``scan9`` and ``gates``; see
``bench/README.md``.  With ``--trace 0`` the run reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of ``BENCHMARK.json``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
record (seed, versions, machine).  The run record, pass times and, for a
traced run, every span are also written to ``bench/out/``.

The benchmark runs single-threaded in one process, one pass after another
(a closed loop), and checks every pass against ``bench/reference/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from pathlib import Path

from calibration import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 3

#: Thread pools of the numeric libraries are pinned to one thread: the
#: workloads are single-threaded and the machine has few cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Counts on the commit that introduced the benchmark, for comparison in
#: the run record.  They are expected to move when an algorithm changes, so
#: they do not gate correctness; repeatability across passes does.
SEED_COMMIT_COUNTS = {
    "census7": {"heights.solve_feasibility.calls": 8336,
                "heights.feasible_assignments.calls": 36},
    "sweep": {"heights.solve_feasibility.calls": 376,
              "geometry.diagram_from_ordering.calls": 94,
              "codes.classify.calls": 658},
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("census7", "sweep", "scan9", "gates"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up (import, references, inputs) and exit")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def setup(name: str, seed: int):
    """Import the library and build the workload's inputs and reference."""
    import stickknots
    from stickknots import cli  # noqa: F401  (imports every module)
    if not Path(stickknots.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {stickknots.__file__}, not {SRC}")
    from workloads import WORKLOADS
    return WORKLOADS[name](seed)


def time_setup(args: argparse.Namespace) -> float:
    """Wall time of a fresh process that only sets up this workload, at
    the reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-probe"]
    with measure(periodic=False) as m:
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
    return m.scaled


def run_passes(wl, budget: float, tracer=None) -> dict:
    """Run passes until the next would overrun ``budget`` seconds (min. 1).

    Each pass is timed alone and then checked against the reference.
    ``durations`` are measured seconds, ``factors`` the speed factor of each
    pass (see ``calibration``).  With a tracer, each pass gets a root span
    and its own tally of counts.
    """
    from workloads import Check

    out = {"durations": [], "factors": [], "checks": [], "roots": [],
           "tallies": []}
    start = time.perf_counter()
    while True:
        gc.collect()
        before = Counter(tracer.tallies) if tracer else None
        root = tracer.root(wl.name) if tracer else None
        try:
            with measure() as m:
                if root is None:
                    result = wl.run()
                else:
                    with root:
                        result = wl.run()
            error = None
        except Exception:  # a failing pass is counted, and the run goes on
            result, error = None, traceback.format_exc()
        out["durations"].append(m.seconds)
        out["factors"].append(m.factor)
        if tracer is not None:
            out["roots"].append(root.index)
            out["tallies"].append(tracer.tallies - before)
        if error is None:
            chk = wl.check(result)
        else:
            sys.stderr.write(error)
            chk = Check(attempted=wl.ops_per_pass(),
                        failed=wl.ops_per_pass(), notes=[error])
        del result
        out["checks"].append(chk)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(out["durations"]) > budget:
            return out


#: Per-layer metrics that are totals of the tracer's result hooks, and those
#: computed from other measurements.
TALLY_METRICS = ("heights.solve_feasibility.none", "geometry.crossings",
                 "geometry.degenerate", "constructions.classes")
DERIVED_METRICS = ("heights.lp_per_diagram", "heights.ms_per_lp",
                   "heights.feasible_yield", "trace.coverage",
                   "trace.overhead_s")


def layer_values(profile: dict, tallies: Counter, cover: float,
                 factor: float) -> dict:
    """Per-layer metric values of one traced pass, by metric name; times
    are scaled to the reference speed by the pass's ``factor``."""
    def get(fn: str, kind: str) -> float:
        v = profile.get(fn, {}).get(kind, 0)
        return v if kind == "calls" else v * factor

    lps = get("heights.solve_feasibility", "calls")
    diagrams = get("heights.feasible_assignments", "calls")
    values = {
        "heights.lp_per_diagram": lps / diagrams if diagrams else 0.0,
        "heights.ms_per_lp": (1000.0 * get("heights.solve_feasibility", "s")
                              / lps if lps else 0.0),
        "heights.feasible_yield": (tallies["heights.feasible_found"] / lps
                                   if lps else 0.0),
        "trace.coverage": cover,
    }
    for key in TALLY_METRICS:
        values[key] = tallies[key]
    for fn, stats in profile.items():
        for kind in stats:
            values[f"{fn}.{kind}"] = get(fn, kind)
    return values


def scaled(passes: dict) -> list[float]:
    """Pass times at the reference speed."""
    return [d * f for d, f in zip(passes["durations"], passes["factors"])]


def is_count(name: str) -> bool:
    return name.endswith((".calls", ".none", ".crossings", ".degenerate",
                          ".classes", ".lp_per_diagram", ".feasible_yield"))


def traced_metrics(wl, budget: float, names: list[str],
                   notes: list[str]) -> tuple[dict, dict, bool]:
    """Untraced passes, then traced passes; per-layer values and spans."""
    from tracing import LAYER_FUNCTIONS, Tracer, coverage, pass_profile

    known = {f"{fn}.{kind}" for fn in LAYER_FUNCTIONS
             for kind in ("calls", "s", "self_s")}
    known.update(TALLY_METRICS, DERIVED_METRICS)
    unknown = sorted(set(names) - known)
    if unknown:
        raise ValueError(f"per-layer metrics not measured: {unknown}")

    plain = run_passes(wl, budget / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(wl, budget / 2, tracer)
    finally:
        restored = tracer.restore()
    if not restored:
        notes.append("tracing wrappers were not all removed")
    per_pass = []
    for root, tallies, factor in zip(traced["roots"], traced["tallies"],
                                     traced["factors"]):
        values = layer_values(pass_profile(tracer.spans, root), tallies,
                              coverage(tracer.spans, root), factor)
        per_pass.append({n: values.get(n, 0) for n in names})
    counts_repeat = all(p[n] == per_pass[0][n] for p in per_pass
                        for n in names if is_count(n))
    if not counts_repeat:
        notes.append("counts differ between traced passes")
    metrics = {n: per_pass[0][n] if is_count(n)
               else statistics.median(p[n] for p in per_pass) for n in names}
    if "trace.overhead_s" in names:
        metrics["trace.overhead_s"] = (statistics.median(scaled(traced))
                                       - statistics.median(scaled(plain)))
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    detail = {
        "untraced_pass_s": plain["durations"],
        "untraced_factors": plain["factors"],
        "traced_pass_s": traced["durations"],
        "traced_factors": traced["factors"],
        "checks": plain["checks"] + traced["checks"],
        "spans": [[s[0], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3]]
                  for s in tracer.spans],
    }
    return metrics, detail, restored and counts_repeat


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return res.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the library sources: identifies the code measured,
    also in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "stickknots").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_record(args: argparse.Namespace, wl) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "work_unit": wl.unit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python_threads": threading.active_count(),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "stickknots" / "__init__.py").is_file():
        sys.stderr.write(f"error: no stickknots sources under {SRC}\n")
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.stderr.write(f"error: {spec_path} not found\n")
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        setup(args.workload, args.seed)
        return 0

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    notes: list[str] = []
    setup_times = [] if args.trace else [time_setup(args)
                                         for _ in range(SETUP_REPEATS)]
    wl = setup(args.workload, args.seed)
    if args.trace:
        values, detail, ok = traced_metrics(wl, args.seconds, list(units),
                                            notes)
        checks = detail["checks"]
        record_extra = {"seed_commit_counts": SEED_COMMIT_COUNTS.get(
            args.workload, {})}
    else:
        res = run_passes(wl, args.seconds)
        checks, ok = res["checks"], True
        wall_s = statistics.median(scaled(res))
        values = {
            "wall_s": wall_s,
            "throughput": wl.work_per_pass() / wall_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail = {"pass_s": res["durations"], "factors": res["factors"],
                  "setup_s": setup_times}
        record_extra = {"measured_wall_s": statistics.median(res["durations"]),
                        "speed_factor": statistics.median(res["factors"])}

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    for c in checks:
        notes.extend(c.notes)
    record = run_record(args, wl)
    record.update(record_extra)
    record["passes"] = len(checks)
    record["error_rate"] = failed / attempted
    if args.workload == "scan9":
        record["sample_kind_tally"] = wl.tally()
    record["notes"] = notes[:20]

    OUT_DIR.mkdir(exist_ok=True)
    detail["checks"] = [vars(c) for c in checks]
    out_path = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    out_path.write_text(json.dumps({"record": record, "metrics": values,
                                    **detail}) + "\n", encoding="utf-8")

    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
