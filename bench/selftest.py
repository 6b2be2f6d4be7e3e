"""Self-test of the benchmark itself.

For every workload, one cycle of ops at seed 0:
  - every op exits 0 and passes its check (error_rate = 0);
  - every check rejects its op's output with one value perturbed
    (an exact value moved by 1/1000003, a polynomial given an extra
    constant term, C_0 scaled by 1 + 1e-3, a count raised by one);
  - a traced pass over the same cycle also passes, reports the
    per-layer metrics, and leaves the package unwrapped afterwards.
"""

import json
from fractions import Fraction

import run
from tracer import LAYERS


def bump(text):
    try:
        x = Fraction(text)
    except ValueError:
        return text + " + 1"
    x += Fraction(1, 1000003)
    return "%d/%d" % (x.numerator, x.denominator)


def perturb(payload):
    """A copy of an op's output with one value moved off its invariant."""
    p = dict(payload)
    for key in ("pf", "spin", "parity", "trace", "det", "qdet"):
        if key in p:
            p[key] = bump(p[key])
            return p
    if "C" in p:
        p["C"] = [p["C"][0] * (1 + 1e-3)] + p["C"][1:]
        return p
    for key in ("count", "ok"):
        if key in p:
            p[key] += 1
            return p
    raise KeyError("nothing to perturb in %r" % sorted(p))


def check_workload(cli, workload):
    problems = []
    with run.workdir(workload, 0) as path:
        cycles = run.set_up(cli, workload, 0, path, cycles=1)
        for op in cycles[0]:
            rc, _, out, err = run.invoke(cli, op)
            ok, detail = run.judge(op, rc, out, err)
            if not ok:
                problems.append("%s failed: %s" % (op.kind, detail))
                continue
            payload = json.loads(out.strip().splitlines()[-1])
            if op.check(perturb(payload)):
                problems.append("%s: check accepts a perturbed output" % op.kind)
        plain, traced, metrics = run.traced(cli, workload, cycles, seconds=0.0)
        for name, res in (("untraced", plain), ("traced", traced)):
            if res.failed:
                problems.append("%s pass: %s" % (name, res.failures[:3]))
        wanted = ["%s.self_s" % layer for layer in LAYERS]
        wanted += ["linalg.pf_s", "rings.exact_div_calls", "bench.trace_overhead"]
        missing = [k for k in wanted if k not in metrics]
        if missing:
            problems.append("per-layer metrics missing: %s" % missing)
        if hasattr(cli.main, "__wrapped__"):
            problems.append("tracer left cli.main wrapped")
    return problems, sum(len(c) for c in cycles)


def main(cli):
    status = 0
    for w in run.WORKLOADS:
        problems, n = check_workload(cli, w)
        print("%-14s %3d ops: %s" % (w, n, "ok" if not problems else "FAIL"))
        for p in problems:
            print("    " + p)
        status |= bool(problems)
    return status
