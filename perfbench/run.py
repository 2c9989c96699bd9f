"""dustmie benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload qext-table --seed 1 --seconds 15 --trace 0

Run from the repository root. The benchmark process is one client in a closed
loop: each op starts when the previous one has returned. Ops are in-process
calls into dustmie's public functions (``cli.run`` for qext-table,
``dust_attenuation_coefficient`` for kdust-fscan, ``path_loss`` for
slant-link), timed from outside and checked against the stored references
in ``data/`` (see workloads.py and reference.py).

--trace 0 times a fixed, seeded list of op blocks and reports the end-to-end
metrics named in BENCHMARK.json; set-up time comes from fresh interpreters
(probe.py). --seconds sets the length of the list, seconds / BLOCK_S blocks,
so it does not depend on how fast the host or the program is and two commits
run the same ops. --trace 1 runs the first TRACE_OPS ops of the list twice,
once plain and once with the module boundaries wrapped (spans.py), and
reports the per-layer metrics and the tracing overhead; its counts repeat
exactly for a given seed.

Host-normalised time. On a shared host the same op can take 1.4x longer from
one run to the next, and a short fixed pure-Python loop slows with it (their
times correlate at 0.6 to 0.95 on a 2-core host). The loop is timed (median
of three) just before and just after every op and set-up probe, and the
op's wall time is scaled by CAL_REF_S over the two timings' mean: the result
is the op's length on a host where the loop takes CAL_REF_S. On one seed
repeated five times, this cut the spread of kdust-fscan's ops_per_s from
0.23 to 0.05. The registered metrics use these times; raw wall times are
printed beside them.
host.calib_s is the same loop timed before and after the whole run.

Correctness. Every op's output is checked against its stored reference. An
op fails if it raises, if the CLI exits non-zero, if it runs past its
deadline, or if its output misses the gate. An op stored with a known
failure (workloads.expected) may fail in that way; any other failure of a
timed op, of the warm-up op or of a set-up probe makes ``correct`` false.
Failed ops are left out of ops_per_s and op_p50_s: only an op that passed
at the parent commit or fails in its known way can be left out, and a fix
that makes a known failure pass adds it.

Deadlines. An op stored as running for minutes is stopped after
KNOWN_HANG_S. Every other op may run until RUN_BUDGET_S, counted from the
start of the run, is spent; one stopped there fails unexpectedly, so a run
ends inside three minutes however slow the program gets.

Human-readable lines go to stdout first; the last line is the JSON result.
Exit code 0 on a completed run, 2 when the checkout has no dustmie source.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import signal
import subprocess
import sys
from collections import Counter
from time import perf_counter

import spans
import workloads as wl

# Seconds of --seconds that buy one block of ops. Nominal, not measured:
# chosen so each workload makes enough ops for steady medians while all runs
# of all workloads fit the benchmark's time budget.
BLOCK_S = {"qext-table": 0.3, "kdust-fscan": 5.0, "slant-link": 30.0}
# Fresh interpreters per run for setup_s, and ops per traced run; both
# sized so a slant-link run stays well inside three minutes.
SETUP_PROBES = {"qext-table": 5, "kdust-fscan": 5, "slant-link": 3}
TRACE_OPS = {"qext-table": 64, "kdust-fscan": 6, "slant-link": 3}

# Wall seconds a whole run may take, and a known non-converging op.
RUN_BUDGET_S = 150.0
KNOWN_HANG_S = 6.0
# Time of calibration_loop() on an unloaded 2-core x86-64 host at 2.1 GHz
# running CPython 3.11: the unit of host-normalised seconds.
CAL_REF_S = 0.00052


class OpTimeout(Exception):
    """The op ran past its deadline."""


def _alarm(signum, frame):
    raise OpTimeout("op ran past its deadline")


def with_deadline(fn, seconds: float):
    """fn(), stopped by OpTimeout after `seconds` of wall time."""
    if seconds <= 0:
        raise OpTimeout("the run's time budget is spent")
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python loop; depends on the host only."""
    t0 = perf_counter()
    acc = 0
    for i in range(8_000):
        acc += i * i % 7
    return perf_counter() - t0


def loop_time() -> float:
    """Median of three calibration loops, so that one loop hit by an
    interrupt does not skew an op's time."""
    return statistics.median(calibration_loop() for _ in range(3))


class Stopwatch:
    """Times one call; afterwards .wall and .normalised hold its time, also
    when it raised."""

    wall = normalised = 0.0

    def run(self, fn):
        before = loop_time()
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self.wall = perf_counter() - t0
            self.normalised = self.wall * CAL_REF_S / ((before + loop_time()) / 2)


def setup_time(workload: str, op: dict, run_end: float) -> tuple[float, float, bool]:
    """(normalised, wall) seconds of a fresh interpreter importing dustmie
    and making one op, and whether it exited cleanly."""
    spec = json.dumps({k: v for k, v in op.items() if k not in ("ref", "expect")})
    watch = Stopwatch()
    try:
        proc = watch.run(lambda: subprocess.run(
            [sys.executable, str(wl.HERE / "probe.py"), workload, spec], cwd=wl.ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(run_end - perf_counter(), 0.1)))
    except subprocess.TimeoutExpired:
        print("set-up probe ran past the run's time budget", file=sys.stderr)
        return watch.normalised, watch.wall, False
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        print(f"set-up probe failed ({proc.returncode}): {last}", file=sys.stderr)
    return watch.normalised, watch.wall, proc.returncode == 0


class Ledger:
    """Latency, outcome and deviation of every op a run makes."""

    def __init__(self, workload: str, dm, run_end: float):
        self.workload, self.dm, self.run_end = workload, dm, run_end
        self.ok: list[float] = []        # normalised seconds of ops that passed
        self.ok_wall: list[float] = []
        self.failed: list[float] = []    # normalised seconds of ops that failed
        self.kinds = Counter()
        self.unexpected = Counter()      # failures not stored for the op
        self.max_dev = 0.0
        self.last_s = 0.0
        self.seen: set[int] = set()
        self.repeats = 0

    def run(self, op, wrap=None) -> str | None:
        """Run and check one op; returns its failure kind, None on success."""
        self.repeats += id(op) in self.seen
        self.seen.add(id(op))
        deadline = self.run_end - perf_counter()
        if "timeout" in op.get("expect", {}).get("fails", ()):
            deadline = min(deadline, KNOWN_HANG_S)
        out, kind, watch = None, None, Stopwatch()
        try:
            call = wl.prepare(self.workload, op, self.dm)
            out = watch.run(lambda: with_deadline(
                lambda: wrap(call) if wrap else call(), deadline))
        except Exception as exc:       # the op failed; record how and go on
            kind = ("timeout" if isinstance(exc, OpTimeout)
                    else wl.failure_kind(exc, self.dm))
        self.last_s = dt = watch.normalised
        if kind is None:
            passed, dev = wl.check(self.workload, op, out)
            self.max_dev = max(self.max_dev, dev)
            if passed:
                self.ok.append(dt)
                self.ok_wall.append(watch.wall)
                return None
            kind = "mismatch"
        self.failed.append(dt)
        self.kinds[kind] += 1
        if not wl.expected(self.workload, op, kind, out):
            self.unexpected[kind] += 1
        return kind

    @property
    def attempted(self) -> int:
        return len(self.ok) + len(self.failed)

    @property
    def busy(self) -> float:
        return sum(self.ok) + sum(self.failed)

    @property
    def measured(self) -> list[float]:
        """Latencies behind ops_per_s and op_p50_s: the successful ops, or
        every op in a run where none succeeded (and which is incorrect)."""
        return self.ok or self.failed

    @property
    def ops_per_s(self) -> float:
        times = self.measured
        return len(times) / max(sum(times), 1e-9)

    def fail_counts(self) -> dict[str, int]:
        groups = dict.fromkeys(("fail.dustmie_error", "fail.overflow_error",
                                "fail.other_exception", "fail.exit_nonzero",
                                "fail.timeout", "fail.mismatch"), 0)
        for kind, n in self.kinds.items():
            if kind.startswith("DustmieError:"):
                groups["fail.dustmie_error"] += n
            elif kind == "OverflowError":
                groups["fail.overflow_error"] += n
            elif kind.startswith("exit:"):
                groups["fail.exit_nonzero"] += n
            elif kind in ("mismatch", "timeout"):
                groups[f"fail.{kind}"] += n
            else:
                groups["fail.other_exception"] += n
        return groups

    def describe_failures(self) -> str:
        def listed(counts):
            return ", ".join(f"{k}={n}" for k, n in sorted(counts.items())) or "none"
        return (f"{len(self.failed)}/{self.attempted} ({listed(self.kinds)}); "
                f"unexpected: {listed(self.unexpected)}")


def tail(latencies: list[float]):
    """(value, percentile) of the highest percentile with ten samples beyond
    it; None below 100 samples, where that percentile is under p90."""
    n = len(latencies)
    if n < 100:
        return None
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def timed_run(workload, pool, seed, seconds, dm, run_end):
    """The timed op list; returns (ledgers the gate reads, the ledger the
    metrics come from, metrics, lines)."""
    probes = [setup_time(workload, pool["setup"], run_end)
              for _ in range(SETUP_PROBES[workload])]
    setup = statistics.median(p[0] for p in probes)
    warm = Ledger(workload, dm, run_end)
    warm.run(pool["setup"])                          # warm-up, not timed
    warm.unexpected["setup_probe"] += sum(not p[2] for p in probes)
    ledger = Ledger(workload, dm, run_end)
    blocks = wl.blocks(workload, pool, seed)
    n_blocks = max(1, round(seconds / BLOCK_S[workload]))
    t0 = perf_counter()
    for _ in range(n_blocks):
        for op in next(blocks):
            ledger.run(op)
    wall = perf_counter() - t0

    times = ledger.measured
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": setup,
        "ops_per_s": ledger.ops_per_s,
        "op_p50_s": statistics.median(times),
        "peak_rss_mb": rss_mb,
    }
    t = tail(ledger.ok)
    excluded = f"{len(ledger.ok)} ok ops, {len(ledger.failed)} failed excluded"
    lines = [
        f"{workload} seed {seed}: {ledger.attempted} ops in {n_blocks} blocks, "
        f"{wall:.2f} s wall; {ledger.repeats} ops repeat an earlier op",
        "times are host-normalised; wall-clock values in brackets",
        f"setup_s = {setup:.4f} s [{statistics.median(p[1] for p in probes):.4f}] "
        f"(median of {len(probes)} fresh interpreters)",
        f"ops_per_s = {metrics['ops_per_s']:.4f} 1/s "
        f"[{len(ledger.ok_wall) / max(sum(ledger.ok_wall), 1e-9):.4f}] ({len(times)} ops / "
        f"{sum(times):.3f} s in them; {ledger.busy:.3f} s in all ops)",
        f"op_p50_s = {metrics['op_p50_s']:.5f} s "
        f"[{statistics.median(ledger.ok_wall or [0.0]):.5f}] ({excluded})",
        (f"op_tail_s = {t[0]:.5f} s at p{t[1]:.1f} ({excluded}, 10 beyond)" if t else
         f"op_tail_s omitted: {len(ledger.ok)} ok ops, fewer than 100"),
        f"fail_ratio = {len(ledger.failed) / ledger.attempted:.4f}",
        f"failed: {ledger.describe_failures()}",
        f"peak_rss_mb = {rss_mb:.2f} MB",
    ]
    return [warm, ledger], ledger, metrics, lines


def traced_run(workload, pool, seed, dm, run_end):
    """The first TRACE_OPS ops, plain and then traced."""
    blocks = wl.blocks(workload, pool, seed)
    listed = []
    while len(listed) < TRACE_OPS[workload]:
        listed += next(blocks)
    warm = Ledger(workload, dm, run_end)
    warm.run(pool["setup"])                          # warm-up, not timed
    plain = Ledger(workload, dm, run_end)
    ops, plain_s = [], 0.0
    for op in listed[:TRACE_OPS[workload]]:
        # an op stopped at the deadline is not traced: where it stops depends
        # on the host, and the counts must repeat exactly
        if plain.run(op) != "timeout":
            ops.append(op)
            plain_s += plain.last_s

    tracer = spans.Tracer()
    traced = Ledger(workload, dm, run_end)
    tracer.install()
    try:
        for op in ops:
            traced.run(op, wrap=tracer.run_op)
    finally:
        tracer.uninstall()

    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced.busy - plain_s
    metrics.update(plain.fail_counts())
    metrics["check.max_rel_dev"] = max(plain.max_dev, traced.max_dev)
    errors = ", ".join(f"{layer}:{kind}={n}" for (layer, kind), n
                       in sorted(tracer.errors.items())) or "none"
    lines = [
        f"{workload} seed {seed}: {len(ops)} of {plain.attempted} ops traced, "
        f"{plain_s:.3f} s plain, {traced.busy:.3f} s traced "
        "(host-normalised; span self times are wall-clock)",
        f"boundaries absent: {', '.join(tracer.absent) or 'none'}",
        f"errors by layer: {errors}",
        f"failed (plain pass): {plain.describe_failures()}",
        f"failed (traced pass): {traced.describe_failures()}",
    ]
    return [warm, plain, traced], plain, metrics, lines


def main() -> int:
    run_end = perf_counter() + RUN_BUDGET_S
    ap = argparse.ArgumentParser(description="dustmie benchmark run")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        dm = wl.load_program()
        with open(wl.ROOT / "BENCHMARK.json") as fh:
            declared = json.load(fh)
    except (wl.ProgramMissing, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    pool = wl.load_pool(args.workload)

    calib_before = statistics.median(calibration_loop() for _ in range(25))
    run = traced_run if args.trace else timed_run
    extra = () if args.trace else (args.seconds,)
    gated, ledger, values, lines = run(args.workload, pool, args.seed,
                                       *extra, dm, run_end)
    calib_after = statistics.median(calibration_loop() for _ in range(25))

    unexpected = sum((g.unexpected for g in gated), Counter())
    correct = not unexpected and bool(ledger.ok)
    tol = wl.QEXT_RTOL if args.workload == "qext-table" else wl.INTEGRAL_RTOL
    lines += [
        f"check: largest deviation {max(g.max_dev for g in gated):.3e} "
        f"(gate {tol:g}); failures not stored for their op: "
        f"{dict(unexpected) or 'none'}; correct = {correct}",
        f"host.calib_s = {calib_before:.5f} s before, {calib_after:.5f} s after",
    ]
    if args.trace:
        values.update({"host.calib_s": calib_before,
                       "host.calib_after_s": calib_after})
        lines += [f"{k} = {v}" for k, v in values.items()]
    declared_metrics = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared_metrics}
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct,
                      "attempted": ledger.attempted,
                      "failed": len(ledger.failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
