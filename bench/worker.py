"""One workload in one process: set up, run timed passes, gate every output.

    python3 bench/worker.py --workload W --seed S --seconds T --trace 0|1
    python3 bench/worker.py --workload W --seed S --setup-only

``bench/run.py`` starts this with ``src`` on PYTHONPATH and a cleaned
environment.  The last line of stdout is one JSON object with the raw
measurements.

Set-up is ``import crlab``, writing the seeded inputs and the first
sympy-backed call, timed and scaled to a fixed host speed like a pass.  A
pass runs the whole batch through ``crlab.cli.main`` in this process; passes
repeat until the next one would end after ``--seconds``.  ``wall_s`` and
``cpu_s`` add up each invocation's fastest time over the passes.  A shared
host runs the process slower or faster in spells that can outlast a run, so
``adj_wall_s`` also scales each untraced pass to a fixed host speed, which a
speed probe samples while the pass runs (see :class:`SpeedProbe` and
``bench/WORKLOADS.md``), and takes the median over the passes after the
first, which warms caches.  With ``--trace 1`` each invocation runs untraced
and traced back to back, so the tracing overhead is measured on the same
inputs, at the same host speed and with the same estimator.  The first
pass's outputs go through the correctness gate; every later run must
reproduce each report's digest exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time

import workloads
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _digest(payload):
    """Digest of the reproducible part of a report: no wall_time_ms, and the
    input file named by its base name only."""
    body = {k: v for k, v in payload.items() if k != "wall_time_ms"}
    if "file" in body.get("args", {}):
        body["args"] = dict(body["args"], file=os.path.basename(body["args"]["file"]))
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:16]


class SpeedProbe:
    """Samples the host's speed while the program runs.

    Every ``INTERVAL_S`` of wall time a SIGALRM handler times a fixed snippet
    of the kind of work the program's ``Fraction`` arithmetic does (calls,
    multi-word ``int`` products, quotients and gcds) and records its rate,
    ``REF_S`` over its duration.  The mean rate over an interval is how fast
    the host ran during it, relative to the speed at which the snippet takes
    ``REF_S``; the interval's wall time times that rate is the time it would
    have taken at that speed.  The snippet allocates nothing the garbage
    collector tracks, so the size of the program's heap does not change its
    time."""

    INTERVAL_S = 0.01
    REF_S = 60e-6

    def __init__(self):
        self.rates = []

    @staticmethod
    def _snippet():
        y = 0
        for i in range(1, 120):
            a, b = 1234567891011 * i, 9876543210 + i * i
            g = math.gcd(a, b)
            y += divmod(a, g)[0] - b // g
        return y

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._snippet()
        self.rates.append(self.REF_S / (time.perf_counter() - t0))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start, stop):
        """Mean rate of the samples ``start:stop``."""
        return statistics.fmean(self.rates[start:stop])


def _run_one(cli, inv):
    """((wall s, cpu s), (exit code, stdout)) of one invocation."""
    out = io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(inv.argv))
    except Exception as exc:  # a crash fails this invocation, not the run
        code = f"{type(exc).__name__}: {exc}"
    return (time.perf_counter() - t0, time.process_time() - c0), (code, out.getvalue())


def _run_pass(cli, invocations, tracer=None, parity=0):
    """{traced: ([(wall s, cpu s)], [(exit code, stdout)]) per invocation}.

    With a tracer each invocation runs untraced and traced back to back, so
    both runs see the host at the same speed.  The order flips from one
    invocation to the next, and ``parity`` flips it for a whole pass, so that
    neither side always runs second, on warm caches."""
    runs = {False: ([], []), True: ([], [])} if tracer else {False: ([], [])}
    for i, inv in enumerate(invocations):
        order = (True, False) if (i + parity) % 2 else (False, True)
        for traced in order if tracer else (False,):
            if traced:
                tracer.install()
            try:
                t, r = _run_one(cli, inv)
            finally:
                if traced:
                    tracer.uninstall()
            runs[traced][0].append(t)
            runs[traced][1].append(r)
    return runs


class Gate:
    """Checks the first pass in full and later passes against its digests."""

    def __init__(self, invocations):
        self.invocations = invocations
        self.first = None  # [(code, digest)] of the first pass
        self.payloads = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _fail(self, inv, messages):
        self.failed += 1
        self.problems += [f"{inv.label}: {m}" for m in messages][:20 - len(self.problems)]

    def check_pass(self, results):
        seen, payloads = [], []
        for i, (inv, (code, text)) in enumerate(zip(self.invocations, results)):
            self.attempted += 1
            try:
                payload = json.loads(text)
            except ValueError:
                payload = None
            digest = _digest(payload) if isinstance(payload, dict) else None
            seen.append((code, digest))
            payloads.append(payload)
            if self.first is None:
                try:
                    messages = workloads.check(inv, code, payload)
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    messages = [f"malformed report ({type(exc).__name__}: {exc})"]
            else:
                messages = [] if self.first[i] == (code, digest) else [
                    "report differs from the first pass"]
            if messages:
                self._fail(inv, messages)
        if self.first is None:
            self.first, self.payloads = seen, payloads


def _sum_of_minima(passes, field):
    """Each invocation's lowest wall (field 0) or CPU (field 1) time over the
    passes, added up."""
    return sum(min(t[field] for t in samples) for samples in zip(*passes))


def _measure(cli, invocations, seconds, trace):
    gate = Gate(invocations)
    tracer = Tracer() if trace else None
    passes = {False: [], True: []}  # per pass: [(wall s, cpu s)] per invocation
    traced = []  # per traced pass: (calls, self_s)
    adjusted = []  # per untraced pass: wall time at the probe's reference speed
    start = time.perf_counter()
    with contextlib.ExitStack() as stack:
        probe = None if trace else stack.enter_context(SpeedProbe())
        while True:
            pass_start = time.perf_counter()
            if trace:
                tracer.reset()
            first_sample = len(probe.rates) if probe else 0
            runs = _run_pass(cli, invocations, tracer, parity=len(traced))
            if probe:
                adjusted.append(sum(w for w, _ in runs[False][0])
                                * probe.speed(first_sample, len(probe.rates)))
            for is_traced, (times, results) in runs.items():
                passes[is_traced].append(times)
                gate.check_pass(results)
            if trace:
                traced.append((dict(tracer.calls), dict(tracer.self_s)))
            now = time.perf_counter()
            if now - start + (now - pass_start) > seconds:
                break
    untraced = passes[False]
    latencies = [w for times in untraced for w, _ in times]
    out = {
        "passes": len(untraced),
        "pass_walls_s": [sum(w for w, _ in times) for times in untraced],
        "wall_s": _sum_of_minima(untraced, 0),
        "cpu_s": _sum_of_minima(untraced, 1),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_samples": len(latencies),
        "gate": gate,
    }
    if adjusted:
        out["adj_pass_walls_s"] = adjusted
        out["adj_wall_s"] = statistics.median(adjusted[1:] or adjusted)
        out["probe_samples"] = len(probe.rates)
    if trace:
        calls = traced[0][0]
        if any(c != calls for c, _ in traced):
            gate.failed += 1
            gate.problems.append("call counts differ between traced passes")
        out["trace"] = {
            "passes": len(traced),
            "calls": calls,
            "self_s": {name: statistics.median(s[name] for _, s in traced)
                       for name in tracer.entry_points},
            "absent": tracer.absent,
            "overhead": _sum_of_minima(passes[True], 0) / out["wall_s"] - 1,
        }
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    workdir = os.path.join(ROOT, ".bench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        t0 = time.perf_counter()
        with SpeedProbe() as probe:
            import crlab.cli
            from crlab.numberfield import irreducible_factors
            invocations = workloads.build(args.workload, args.seed, workdir)
            irreducible_factors((-2, 0, 1))  # the first sympy-backed call loads sympy
            setup_plain_s = time.perf_counter() - t0
        setup_s = setup_plain_s * probe.speed(0, len(probe.rates))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_plain_s": setup_plain_s}))
            return 0
        m = _measure(crlab.cli, invocations, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import sympy
    gate = m.pop("gate")
    m.update({
        "setup_s": setup_s,
        "setup_plain_s": setup_plain_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "problems": gate.problems,
        "invocations": [{"argv": inv.label, "code": code, "digest": digest}
                        for inv, (code, digest) in zip(invocations, gate.first)],
        "digest": hashlib.sha256(json.dumps(gate.first).encode()).hexdigest()[:16],
        "counts": workloads.report_counts(invocations, gate.payloads),
        "python": sys.version.split()[0],
        "sympy": sympy.__version__,
    })
    print(json.dumps(m))
    return 0


if __name__ == "__main__":
    sys.exit(main())
