"""Benchmark of the crlab CLI verbs, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds T

Run from the root of a checkout.  One workload runs in a fresh worker
process (``bench/worker.py``) with ``CRLAB_PRIME`` and ``CRLAB_MAX_N``
cleared, so memory and warm caches never carry over from another workload.
Set-up is also timed in ``SETUP_PROBES`` extra fresh processes and reported
as the median.  The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  The line before it is a
record of the environment, the report digests and the exact counts.

``--workload all`` runs every workload with tracing off, twice with tracing
on, and once more on seed N+1; it prints both metric tables, checks that
digests and counts repeat across the runs on seed N, and exits nonzero on any
failure.  See ``bench/WORKLOADS.md`` for why each workload exists and which
metric each layer should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from tracer import ENTRY_POINTS  # noqa: E402
from workloads import COUNTS, WORKLOADS  # noqa: E402

SETUP_PROBES = 4
TIMEOUT_S = 170

END_TO_END = {"adj_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# printed and recorded, but not bounded: plain times that move with the
# host's speed by more than any useful bound, 0 when the program is right,
# and a median that jumps between the short and long invocations of a batch
UNBOUNDED = {"wall_s": "s", "cpu_s": "s", "op_p50_ms": "ms", "error_rate": "ratio"}


def per_layer_units():
    units = {}
    for name in ENTRY_POINTS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(dict.fromkeys(COUNTS, "count"))
    units["trace_overhead"] = "ratio"
    return units


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env():
    env = dict(os.environ)
    for key in ("CRLAB_PRIME", "CRLAB_MAX_N"):
        env.pop(key, None)
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    return env


def _worker(args, timeout):
    cmd = [sys.executable, os.path.join(BENCH, "worker.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {args}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _git_sha():
    """HEAD of the checkout when it is a git repository, else None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(name, seed, seconds, trace):
    """(result object, record) for one workload."""
    if not os.path.isfile(os.path.join(ROOT, "src", "crlab", "__init__.py")):
        raise BenchError(f"no crlab source under {ROOT}/src")
    start = time.monotonic()
    common = ["--workload", name, "--seed", str(seed)]
    setups = []  # (scaled, plain) set-up times
    for _ in range(0 if trace else SETUP_PROBES):  # setup_s is a --trace 0 metric
        s = _worker(common + ["--setup-only"], 60)
        setups.append((s["setup_s"], s["setup_plain_s"]))
    m = _worker(common + ["--seconds", str(seconds), "--trace", str(trace)],
                TIMEOUT_S - (time.monotonic() - start))
    setups.append((m["setup_s"], m["setup_plain_s"]))
    if trace:
        t = m["trace"]
        metrics = {}
        for entry in ENTRY_POINTS:
            metrics[f"{entry}.calls"] = t["calls"][entry]
            metrics[f"{entry}.self_s"] = t["self_s"][entry]
        metrics.update({key: m["counts"].get(key, 0) for key in COUNTS})
        metrics["trace_overhead"] = t["overhead"]
        units = per_layer_units()
    else:
        metrics = {"adj_wall_s": m["adj_wall_s"],
                   "setup_s": statistics.median(s for s, _ in setups),
                   "peak_rss_mb": m["peak_rss_mb"]}
        units = END_TO_END
    result = {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": m["python"], "sympy": m["sympy"], "nproc": os.cpu_count(),
        "platform": platform.platform(), "git_sha": _git_sha(),
        "wall_s": m["wall_s"], "cpu_s": m["cpu_s"],
        "error_rate": m["failed"] / m["attempted"], "op_p50_ms": m["op_p50_ms"],
        "op_samples": m["op_samples"], "passes": m["passes"],
        "pass_walls_s": m["pass_walls_s"],
        "setup_samples_s": [s for s, _ in setups],
        "setup_plain_samples_s": [p for _, p in setups],
        "digest": m["digest"], "counts": m["counts"],
        "problems": m["problems"], "invocations": m["invocations"],
    }
    if not trace:
        record["adj_pass_walls_s"] = m["adj_pass_walls_s"]
        record["probe_samples"] = m["probe_samples"]
    if trace:
        record["trace_passes"] = m["trace"]["passes"]
        record["absent"] = m["trace"]["absent"]
        record["calls"] = m["trace"]["calls"]
    return result, record


def run_all(seed, seconds):
    """Every workload: untraced, traced twice, and a second seed."""
    failures = []
    summary = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        try:
            plain, rec = run_workload(name, seed, seconds, 0)
            traced = [run_workload(name, seed, seconds, 1) for _ in range(2)]
            other, other_rec = run_workload(name, seed + 1, seconds, 0)
        except BenchError as exc:
            failures.append(f"{name}: {exc}")
            continue
        for label, (res, r) in (("untraced", (plain, rec)), ("traced", traced[0]),
                                ("traced again", traced[1]),
                                (f"seed {seed + 1}", (other, other_rec))):
            if not res["correct"]:
                failures.append(f"{name} {label}: {r['problems'][:3]}")
        if len({rec["digest"], traced[0][1]["digest"], traced[1][1]["digest"]}) != 1:
            failures.append(f"{name}: report digests differ across runs on seed {seed}")
        if traced[0][1]["calls"] != traced[1][1]["calls"] or \
                traced[0][1]["counts"] != traced[1][1]["counts"]:
            failures.append(f"{name}: counts differ across traced runs on seed {seed}")
        row = {k: v["value"] for k, v in plain["metrics"].items()}
        row.update({k: rec[k] for k in UNBOUNDED})
        row["error_rate_seed2"] = other_rec["error_rate"]
        summary["workloads"][name] = {
            "end_to_end": row,
            "per_layer": {k: v["value"] for k, v in traced[0][0]["metrics"].items()},
            "absent": traced[0][1]["absent"],
            "digest": rec["digest"],
        }
        summary.update({k: rec[k] for k in ("python", "sympy", "nproc", "git_sha")})
    _print_tables(summary)
    summary["failures"] = failures
    for f in failures:
        print("FAIL", f)
    print(json.dumps(summary))
    return 1 if failures else 0


def _print_tables(summary):
    names = list(summary["workloads"])
    units = dict(END_TO_END, **UNBOUNDED, error_rate_seed2="ratio")
    print(f"{'end-to-end':32}" + "".join(f"{n:>15}" for n in names))
    for key, unit in units.items():
        print(f"{key + ' [' + unit + ']':32}" + "".join(
            f"{summary['workloads'][n]['end_to_end'][key]:15.4f}" for n in names))
    print()
    print(f"{'per-layer (traced)':60}" + "".join(f"{n:>15}" for n in names))
    for key, unit in per_layer_units().items():
        cells = []
        for n in names:
            w = summary["workloads"][n]
            absent = key.rsplit(".", 1)[0] in w["absent"]
            cells.append(f"{'absent':>15}" if absent else f"{w['per_layer'][key]:15.4f}")
        print(f"{key + ' [' + unit + ']':60}" + "".join(cells))
    print()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for problem in record["problems"]:
        print("FAIL", problem, file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
