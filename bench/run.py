#!/usr/bin/env python3
"""Benchmark of the spwebs command line, one workload per process.

    python3 bench/run.py --workload trace_sum --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all            # every workload, one table
    python3 bench/run.py --selftest       # tiny runs plus checks that bite

A run writes its seeded inputs under .bench_work/, then drives a closed
loop with one client: each op is one in-process ``spwebs.cli.main`` call,
and only that call is timed.  Every op's JSON output is checked against
an invariant outside the timed call.  The last line of stdout is one
JSON object: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced pass over the same ops as an untraced one.
Spans of a traced run go to .bench_work/spans-<workload>.npz and a
per-op-kind summary to .bench_work/trace-<workload>.json.

The package is imported from src/ next to this directory; without it
the benchmark exits with code 2 before measuring anything.
"""

import argparse
import bisect
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
WORK = ROOT / ".bench_work"

WORKLOADS = ("trace_sum", "pfaffian_grid", "symbolic", "cli_small")
DEFAULT_SECONDS = 20
MIN_OPS = 100          # so that at least 10 latency samples lie beyond p90
SETUP_REPEATS = 3      # set-up is timed in fresh processes; the median counts
SETUP_PROBES = 5       # probes around each timed set-up
PROBE_SHARE = 0.03     # probing time after an op, as a share of the op's time
PROBE_WINDOW = 0.5     # seconds around an op whose probes estimate its slowdown
# Time of one probe on a quiet machine: 2 vCPU Xeon at 2.1 GHz, Python 3.11.7.
PROBE_QUIET_S = 1.55e-3
# Distinct cycles generated per run.  A longer run repeats them; an op
# keeps no state between calls, so a repeat costs what the first run did.
CYCLES = {"trace_sum": 16, "pfaffian_grid": 2, "symbolic": 6, "cli_small": 4}


def import_spwebs():
    """Put src/ first on the path and import the CLI from there only."""
    sys.path.insert(0, str(SRC))
    import spwebs.cli
    if Path(spwebs.cli.__file__).resolve().parent != SRC / "spwebs":
        raise SystemExit("error: spwebs imported from %s, not from %s"
                         % (spwebs.cli.__file__, SRC))
    return spwebs.cli


def probe():
    """Seconds taken by a fixed ~1.5 ms of stdlib Fraction arithmetic, the
    same kind of work as an op: the machine's speed at this moment."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 800):
        s += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


class Result:
    """Outcome of a pass over whole cycles: per op its kind, start and
    latency, and the probes timed between ops as (midpoint, seconds)."""

    def __init__(self):
        self.latencies = []
        self.starts = []
        self.kinds = []
        self.probes = []
        self.failed = 0
        self.cycles = 0
        self.failures = []

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def op_s(self):
        return sum(self.latencies)

    def run_probes(self, busy):
        """Probe for about PROBE_SHARE of `busy` seconds, at least once."""
        spent = 0.0
        while True:
            t = time.perf_counter()
            dt = probe()
            self.probes.append((t + dt / 2, dt))
            spent += dt
            if spent >= PROBE_SHARE * busy:
                return

    def corrected(self):
        """Latencies at a quiet machine's speed.  Other tenants of the
        machine slow every process on it by up to 2x, for seconds or for a
        whole run.  Op i's wall time is scaled by PROBE_QUIET_S / p, where
        p is the mean probe time within PROBE_WINDOW seconds of the op."""
        times = [t for t, _ in self.probes]
        out = []
        for t0, dt in zip(self.starts, self.latencies):
            lo = bisect.bisect_left(times, t0 - PROBE_WINDOW)
            hi = bisect.bisect_right(times, t0 + dt + PROBE_WINDOW)
            near = [d for _, d in self.probes[lo:hi]]
            out.append(dt * PROBE_QUIET_S / statistics.fmean(near))
        return out


def invoke(cli, op, tracer=None, op_id=-1):
    """Run one op in-process; returns (exit code, seconds, stdout, stderr).
    Only the cli.main call is timed."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.op_id = op_id
        close = tracer.span("bench.op")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an op that raises is a failed op
            rc = "raised %r" % (exc,)
        seconds = time.perf_counter() - t0
    if tracer is not None:
        close()
    return rc, seconds, out.getvalue(), err.getvalue()


def judge(op, rc, out, err):
    """(ok, detail): exit code 0 and the op's check holds on its output."""
    if rc != 0:
        return False, "exit %r: %s" % (rc, err[-300:])
    try:
        ok = bool(op.check(json.loads(out.strip().splitlines()[-1])))
    except Exception as exc:  # malformed output fails the op's check
        return False, "check raised %r" % (exc,)
    return ok, "" if ok else "check failed: %s" % out[:300]


def call(cli, op, tracer=None, op_id=-1):
    rc, seconds, out, err = invoke(cli, op, tracer, op_id)
    ok, detail = judge(op, rc, out, err)
    return ok, seconds, detail


def drive(cli, cycles, seconds=None, n_cycles=None, tracer=None,
          min_ops=MIN_OPS):
    """Closed loop over whole cycles, until `seconds` have passed and
    `min_ops` ops ran (capped at 3 x seconds), or for `n_cycles` cycles."""
    res = Result()
    res.run_probes(0.0)
    t_start = time.perf_counter()
    while True:
        for op in cycles[res.cycles % len(cycles)]:
            res.starts.append(time.perf_counter())
            ok, dt, detail = call(cli, op, tracer, res.attempted)
            res.latencies.append(dt)
            res.run_probes(dt)
            res.kinds.append(op.kind)
            if not ok:
                res.failed += 1
                res.failures.append("%s: %s" % (op.kind, detail))
        res.cycles += 1
        if n_cycles is not None:
            if res.cycles >= n_cycles:
                return res
            continue
        elapsed = time.perf_counter() - t_start
        if (elapsed >= seconds and res.attempted >= min_ops) or elapsed >= 3 * seconds:
            return res


@contextlib.contextmanager
def workdir(workload, seed):
    path = WORK / ("%s-%d-%d" % (workload, seed, os.getpid()))
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def set_up(cli, workload, seed, path, cycles=None):
    """Generate and write the inputs, then run one warm-up op."""
    import workloads
    rnd = random.Random("%s:%d" % (workload, seed))
    ops = workloads.build(workload, rnd, path, DATA,
                          cycles or CYCLES[workload])
    ok, _, detail = call(cli, ops[0][0])
    if not ok:
        raise SystemExit("error: warm-up op failed: %s" % detail)
    return ops


def timed_setups(workload, seed):
    """Median over fresh processes of the time from process start to the
    end of the warm-up op: interpreter start, imports, inputs, warm-up.
    Each time is corrected like an op's, by probes taken just before the
    process starts and just after its warm-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = statistics.fmean(probe() for _ in range(SETUP_PROBES))
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise SystemExit("error: set-up process failed: %s"
                             % proc.stderr[-500:])
        end, after = map(float, proc.stdout.split()[-2:])
        times.append((end - t0) * PROBE_QUIET_S / ((before + after) / 2))
    return statistics.median(times)


def end_to_end(res, setup_s):
    lat = res.corrected()
    return {
        "ops_per_s": {"value": (res.attempted - res.failed) / sum(lat), "unit": "1/s"},
        "latency_p50_s": {"value": statistics.median(lat), "unit": "s"},
        "latency_p90_s": {"value": statistics.quantiles(lat, n=10)[8], "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MiB"},
    }


def traced(cli, workload, cycles, seconds):
    """Untraced pass for seconds/2, then the same cycles traced."""
    from tracer import Tracer
    plain = drive(cli, cycles, seconds=seconds / 2.0, min_ops=1)
    tr = Tracer()
    tr.install()
    try:
        res = drive(cli, cycles, n_cycles=plain.cycles, tracer=tr)
    finally:
        tr.uninstall()
    metrics = tr.metrics()
    metrics["bench.trace_overhead"] = {"value": res.op_s / plain.op_s, "unit": "ratio"}
    metrics["bench.op_s"] = {"value": res.op_s, "unit": "s"}
    tr.save(WORK / ("spans-%s.npz" % workload))
    op_time = {}
    for kind, dt in zip(res.kinds, res.latencies):
        op_time[kind] = op_time.get(kind, 0.0) + dt
    with open(WORK / ("trace-%s.json" % workload), "w") as fh:
        json.dump({"metrics": metrics, "op_s_by_kind": op_time,
                   "self_s_by_kind_and_layer": tr.by_kind(res.kinds)},
                  fh, indent=1, sort_keys=True)
    return plain, res, metrics


def run(workload, seed, seconds, trace):
    setup_s = None if trace else timed_setups(workload, seed)
    cli = import_spwebs()
    with workdir(workload, seed) as path:
        cycles = set_up(cli, workload, seed, path)
        if trace:
            plain, res, metrics = traced(cli, workload, cycles, seconds)
            passes = [plain, res]
        else:
            res = drive(cli, cycles, seconds=seconds)
            metrics = end_to_end(res, setup_s)
            passes = [res]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for line in p.failures[:5]:
            print("FAILED %s" % line, file=sys.stderr)
    print("%s seed %d: %d ops in %d cycles, %d failed"
          % (workload, seed, attempted, sum(p.cycles for p in passes), failed),
          file=sys.stderr)
    probes = [d for _, d in passes[0].probes]
    print("probe median %.3g s over %d probes (quiet: %.3g s)"
          % (statistics.median(probes), len(probes), PROBE_QUIET_S), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def setup_only(workload, seed):
    """Set up once; print the monotonic time at the end of the warm-up and
    the mean of the probes taken right after it."""
    cli = import_spwebs()
    with workdir(workload, seed) as path:
        set_up(cli, workload, seed, path)
        end = time.monotonic()
        print(end, statistics.fmean(probe() for _ in range(SETUP_PROBES)))
    return 0


def run_all(seed, seconds):
    """One fresh process per workload; prints the end-to-end table."""
    cols = [("ops_per_s", "1/s"), ("latency_p50_s", "s"), ("latency_p90_s", "s"),
            ("setup_s", "s"), ("peak_rss_mb", "MiB")]
    print("%-14s %8s " % ("workload", "samples")
          + " ".join("%16s" % ("%s[%s]" % c) for c in cols)
          + " %10s" % "error_rate")
    status = 0
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600, check=False)
        if proc.returncode != 0:
            print("%-14s failed: %s" % (w, proc.stderr.strip()[-300:]))
            status = 1
            continue
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        m = r["metrics"]
        print("%-14s %8d " % (w, r["attempted"])
              + " ".join("%16.6g" % m[name]["value"] for name, _ in cols)
              + " %10.4g" % (r["failed"] / r["attempted"]))
        status |= r["failed"] > 0
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print the end-to-end table")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "spwebs" / "cli.py").is_file():
        print("error: %s/spwebs not found; run from a checkout of the"
              " repository" % SRC, file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.selftest:
        import selftest
        return selftest.main(import_spwebs())
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
