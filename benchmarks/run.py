"""Benchmark of the qrh CLI: seeded workloads through ``qrh.cli.main``.

    python3 benchmarks/run.py --workload grid-a1 --seed 1 --seconds 30 --trace 0

One client in one long-lived process makes one CLI call at a time (a closed
loop, no threads), so caches grow as they would for a user who keeps calling.
Only ``cli.main`` is timed; each call's output is then checked item by item
(see ``workloads.py``).  Set-up time is measured in fresh interpreters.

``--seconds`` sets the size of a run: a fixed number of calls per workload,
about that many seconds of wall time on the reference machine.  The count is
not timed, so the same seed gives the same calls, items and failures.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
prints its per-layer metrics: calls alternate between untraced and traced
blocks, the traced ones give the per-layer numbers, and the difference between
the two gives the tracing overhead.  Human-readable lines come first; the last
line of standard output is one JSON object.  The exit code is not 0, and no
result is printed, when an output check cannot run.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

from scipy.special import loggamma

import workloads
from workloads import CheckError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7
EX_CHECK = 3
#: Duration of the machine gauge when the machine runs at full speed (the
#: 2-vCPU VM of the recorded baseline, CPython 3.11.7, scipy 1.17).
GAUGE_FULL_SPEED_S = 3.3e-4
#: Wall seconds after which a run stops before its fixed call count, so that it
#: still ends in time on a machine far slower than the reference one.
GUARD_S = 120.0


def import_qrh():
    """Import the package from this checkout's ``src``, and only from there."""
    sys.path.insert(0, str(ROOT / "src"))
    import qrh.cli

    if Path(qrh.cli.__file__).resolve().parent.parent != ROOT / "src":
        raise ImportError(f"qrh was imported from {qrh.cli.__file__}, not from this checkout")
    return qrh.cli


def measure_setup(argv: list[str]) -> list[float]:
    """Seconds from starting a fresh interpreter to the first result of `argv`,
    scaled to full machine speed."""
    times = []
    for _ in range(SETUP_RUNS):
        before = gauge()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "first_call.py"), str(ROOT / "src"), *argv],
            stdout=subprocess.PIPE,
            cwd=ROOT,
            text=True,
        )
        with proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise CheckError(f"set-up run of {argv[:2]} failed (exit {proc.returncode})")
        times.append((t1 - t0) * speed(before, gauge()))
    return times


def gauge() -> float:
    """Seconds for a fixed mix of pure-Python arithmetic and the library calls
    qrh leans on (scipy's loggamma, cmath, Fraction, json), none of them from
    qrh: how fast the machine runs right now.

    The virtual CPUs of the shared host run up to ~2x slower for seconds to
    minutes at a time. Over such swings call times vary as about the 1.1th
    power of this gauge (an integer loop alone gives 1.35). It is timed on its
    second run, so the preceding call's use of the caches does not count.
    """
    _gauge_once()
    return _gauge_once()


def _gauge_once() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(3000):
        x += i * i
    acc = 0j
    table = {}
    for i in range(40):
        z = complex(0.37 * i + 1.0, 0.5)
        acc += complex(loggamma(z)) + cmath.log(z) * z
        table[i] = [acc, Fraction(i, 7) + Fraction(1, 3)]
    json.dumps({str(k): [v[0].real, str(v[1])] for k, v in table.items()})
    return time.perf_counter() - t0


class Record:
    """One CLI call as measured and checked.

    `speed` is the machine speed around the call relative to full speed, from
    the gauge just before and just after it; `scaled` is the call's wall time
    scaled to full machine speed.
    """

    __slots__ = ("kind", "traced", "seconds", "out", "speed")

    def __init__(self, kind, traced, seconds, out, speed):
        self.kind, self.traced, self.seconds, self.out, self.speed = kind, traced, seconds, out, speed

    @property
    def scaled(self) -> float:
        return self.seconds * self.speed


def speed(before: float, after: float) -> float:
    return GAUGE_FULL_SPEED_S / ((before + after) / 2)


def run_calls(cli, wl, calls, count: int, tracer):
    """Make `count` calls, fewer only if they outlast GUARD_S."""
    records = []
    peak_rss_mb = None
    n = 0
    start = time.perf_counter()
    before = gauge()
    while n < count and (n < wl.rss_window or time.perf_counter() - start < GUARD_S):
        call = next(calls)
        traced = tracer is not None and (n // wl.period) % 2 == 1
        if traced:
            tracer.install(n)
        buf = io.StringIO()
        code = exc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(call.argv)
        except Exception as e:  # the program failed on this call; checked below
            exc = e
        dt = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        after = gauge()
        out = wl.check(call, code, buf.getvalue(), exc)
        records.append(Record(call.kind, traced, dt, out, speed(before, after)))
        before = gauge()
        n += 1
        if n == wl.rss_window:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return records, peak_rss_mb


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """The q-quantile (nearest rank) and how many values lie beyond it."""
    ordered = sorted(values)
    v = ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]
    return v, sum(1 for x in ordered if x > v)


def call_times(records, scaled: bool = True) -> list[float]:
    # a call that raised misses any latency limit
    return [math.inf if r.out.raised else (r.scaled if scaled else r.seconds) for r in records]


def accuracy_digits(records) -> float:
    """Worst call kind's median, over its calls, of -log10 of the call's
    largest verified identity residual."""
    by_kind = defaultdict(list)
    for r in records:
        if r.out.worst is not None:
            by_kind[r.kind].append(-math.log10(r.out.worst))
    if not by_kind:
        raise CheckError("no item could be verified")
    return min(statistics.median(v) for v in by_kind.values())


def timing(records, scaled: bool = True) -> tuple[float, float, float, int]:
    """(items per second, p50, p90, calls beyond p90) over `records`."""
    times = call_times(records, scaled)
    p50, _ = percentile(times, 0.5)
    p90, beyond = percentile(times, 0.9)
    total = sum(r.scaled if scaled else r.seconds for r in records)
    return sum(r.out.completed for r in records) / total, p50, p90, beyond


def end_to_end(records, setup_times, peak_rss_mb, window: int) -> tuple[dict, list[str]]:
    rate, p50, p90, beyond = timing(records)
    if math.isinf(p50):
        raise CheckError("more than half the calls raised")
    wall_rate, wall_p50, _, _ = timing(records, scaled=False)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (rate, "1/s"),
        "call_s_p50": (p50, "s"),
        "accuracy_digits": (accuracy_digits(records), "digits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"machine speed: median {statistics.median(r.speed for r in records):.3f} of full speed; "
        f"unscaled, items_per_s reads {wall_rate:.6g} 1/s and call_s_p50 {wall_p50:.6g} s",
        f"setup_s: median of {len(setup_times)} fresh interpreters: "
        + ", ".join(f"{t:.4f}" for t in setup_times),
        (
            f"call_s_p90: {p90:.6g} s over {len(records)} calls, {beyond} beyond it"
            if beyond >= 10
            else f"call_s_p90: not reported, {len(records)} calls leave {beyond} beyond it (10 needed)"
        ),
        f"peak_rss_mb: read after the first {window} calls",
    ]
    return metrics, notes


def per_layer(records, tracer, cost: float) -> dict:
    from tracing import LAYERS

    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    if not traced or not untraced:
        raise CheckError("the run was too short for both traced and untraced calls")
    n = len(traced)
    items = sum(r.out.completed for r in traced)
    # span times are wall times; scale them like the calls they ran in
    k = sum(r.scaled for r in traced) / sum(r.seconds for r in traced)
    m = {}
    for layer, funcs in LAYERS.items():
        for f in funcs:
            name = f"{layer}.{f}"
            calls, self_s, _incl, _desc = tracer.stat(name)
            if name != "cli.main":
                m[f"{name}.calls"] = (calls / n, "1/call")
            m[f"{name}.self_s"] = (k * self_s / n, "s/call")
    for name in tracer.names:
        if name.startswith("suites."):
            _calls, self_s, incl, _desc = tracer.stat(name)
            m[f"{name}.wall_s"] = (k * incl / n, "s/call")
            m[f"{name}.self_s"] = (k * self_s / n, "s/call")
    lg2_calls = tracer.stat("special.log_gamma2")[0]
    m["special.log_gamma2.shifts_per_call"] = (tracer.shifts / lg2_calls if lg2_calls else 0.0, "1/call")
    m["bps.EMSplitting.decompose.calls_per_item"] = (
        tracer.stat("bps.EMSplitting.decompose")[0] / items if items else 0.0, "1/item")
    hits, misses, grown = tracer.cache
    m["bernoulli.zero_value_series.hits"] = (hits / n, "1/call")
    m["bernoulli.zero_value_series.misses"] = (misses / n, "1/call")
    m["bernoulli.zero_value_series.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["bernoulli.zero_value_series.entries"] = (grown / n, "1/call")
    m["qtorus.self_s"] = (
        k * sum(tracer.stat(f"qtorus.{f}")[1] for f in LAYERS["qtorus"]) / n, "s/call")
    # North-star rows: inclusive time per call, less the cost of traced children
    for name in ("special.log_lambda", "special.log_gamma2", "rhsolver.adjoint_psi_a1",
                 "rhsolver.hamiltonian_limit"):
        calls, _self, incl, desc = tracer.stat(name)
        m[f"{name}.us_per_call"] = (k * (incl - desc * cost) / calls * 1e6 if calls else 0.0, "us")
    for kind in ("psi_a1", "hamiltonian", "psi_general"):
        done = [r for r in untraced if r.kind == kind and not r.out.raised]
        pts = sum(r.out.completed for r in done)
        m[f"cli.grid_{kind}.us_per_pt"] = (sum(r.scaled for r in done) / pts * 1e6 if pts else 0.0, "us/pt")
    reports = [r.scaled for r in untraced if r.kind == "report"]
    m["cli.report.wall_s"] = (statistics.median(reports) if reports else 0.0, "s")

    def per_item(rs):
        done = [r for r in rs if not r.out.raised]
        return sum(r.scaled for r in done) / max(1, sum(r.out.completed for r in done))

    m["trace.overhead_pct"] = (100 * (per_item(traced) / per_item(untraced) - 1), "%")
    m["trace.span_cost_us"] = (cost * 1e6, "us")
    return m


def summary_lines(args, records) -> list[str]:
    kinds = Counter(r.kind for r in records)
    raised = Counter(r.out.raised for r in records if r.out.raised)
    attempted = sum(r.out.items for r in records)
    failed = sum(r.out.failed for r in records)
    reasons = Counter()
    for r in records:
        reasons.update(r.out.reasons)
    import numpy
    import scipy

    return [
        f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}; "
        f"python {platform.python_version()} numpy {numpy.__version__} scipy {scipy.__version__} "
        f"nproc {len(os.sched_getaffinity(0))}",
        "calls: " + ", ".join(f"{k} {v}" for k, v in kinds.items())
        + (f"; raised: {dict(raised)}" if raised else ""),
        f"items: attempted {attempted}, completed {sum(r.out.completed for r in records)}, "
        f"verified {sum(r.out.verified for r in records)}, "
        f"unverified {sum(r.out.unverified for r in records)}, failed {failed} "
        f"(failed_share {failed / attempted:.6f})",
        "outcomes: " + ", ".join(f"{k} {v}" for k, v in sorted(reasons.items())),
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        cli = import_qrh()
    except ImportError as exc:
        print(f"cannot import qrh from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    wl = workloads.WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=out_dir) as work:
            wl.setup(rng, work)
            calls = wl.calls(rng)
            first = next(calls)
            tracer = cost = None
            if args.trace:
                from tracing import Tracer, span_cost

                cost = span_cost()
                tracer = Tracer()
            else:
                setup_times = measure_setup(first.argv)
            count = wl.call_count(args.seconds)
            records, peak_rss_mb = run_calls(cli, wl, itertools.chain([first], calls), count, tracer)
        lines = summary_lines(args, records)
        if len(records) < count:
            lines.append(f"stopped after {len(records)} of {count} calls: they outlasted {GUARD_S:g} s")
        if args.trace:
            values = per_layer(records, tracer, cost)
            wanted = spec["per_layer"]
            path = out_dir / f"spans-{args.workload}.npz"
            lines.append(f"trace: {tracer.write(str(path))} spans kept of {tracer.spans_total}, "
                         f"written to {path.relative_to(ROOT)}")
        else:
            values, notes = end_to_end(records, setup_times, peak_rss_mb, wl.rss_window)
            lines += notes
            wanted = spec["end_to_end"]
    except CheckError as exc:
        print(f"output check could not run: {exc}", file=sys.stderr)
        return EX_CHECK
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return EX_CHECK
    for m in wanted:
        v, unit = values[m["name"]]
        if unit != m["unit"]:
            print(f"{m['name']} is measured in {unit}, BENCHMARK.json says {m['unit']}", file=sys.stderr)
            return EX_CHECK
        lines.append(f"{m['name']}: {v!r} {unit}")
    print("\n".join(lines))
    result = {
        "correct": all(r.out.consistent for r in records),
        "attempted": sum(r.out.items for r in records),
        "failed": sum(r.out.failed for r in records),
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
