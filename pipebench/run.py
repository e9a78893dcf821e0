#!/usr/bin/env python3
"""The pipeline benchmark: one workload per process, closed loop, one client.

    python3 pipebench/run.py --workload survey30 --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
workloads are defined in ``workloads.py``.  Each run:

1. sets up three times (library caches cleared before each, so every set-up
   is cold) and reports ``setup_s`` = import time + the median set-up, where
   one set-up builds the inputs and runs one untimed warm-up op;
2. with ``--trace 0``, runs whole passes over the workload's ops, in the
   order ``--seed`` gives, while the next pass is expected to end within
   ``--seconds`` of the first (always at least one pass), each op under a
   deadline, and no op after RUN_LIMIT_S;
3. with ``--trace 1``, runs one pass with every layer wrapped
   (``tracer.py``) and reports its per-layer metrics; then samples the
   tracing overhead by running the pass's first ops both ways; spans are
   written to ``pipebench/out/`` at the end;
4. checks the outputs of every complete pass (the workload's gate) and
   prints every metric by name and unit, then one JSON line.

The JSON line holds the metrics listed in ``BENCHMARK.json``: the
end-to-end ones with ``--trace 0``, the per-layer ones with ``--trace 1``.
Metrics that only some workloads have (``op_s_p99``, ``zeta_s``) and
``failed_frac`` are printed in the human-readable lines above it.

End-to-end times are in reference seconds: wall time corrected by a
host-speed probe that samples throughout the run (``hostspeed.py``), because
the wall time of fixed work on a shared host drifts by about 20 % from run
to run.  Each human-readable line also gives the wall-time value.  Per-layer
times are wall times.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 3
RUN_LIMIT_S = 150.0  # no op starts, or runs on, later than this after the process started
OVERHEAD_SAMPLE_S = 15.0  # how long the traced run samples the tracing overhead
P99_MIN_OPS = 1000  # p99 needs ten samples beyond it


class OpDeadline(BaseException):
    """Raised by SIGALRM when an op overruns its deadline (BaseException, so no
    library handler can swallow it)."""


def _on_alarm(signum, frame):
    raise OpDeadline()


def run_op(thunk, deadline_s, codes):
    """(outcome, output, start, seconds): outcome is "ok", an error code, "other"
    or "deadline".

    The deadline is cut short so that no op runs past RUN_LIMIT_S.
    """
    from trigonal.errors import TrigonalError

    out = None
    t0 = time.perf_counter()
    deadline_s = min(deadline_s, PROCESS_START + RUN_LIMIT_S - t0)
    if deadline_s <= 0:
        return "deadline", None, t0, 0.0
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            out = thunk()
            outcome = "ok"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpDeadline:
        outcome = "deadline"
    except TrigonalError as exc:
        outcome = exc.code if exc.code in codes else "error"
    except Exception:
        outcome = "other"
        traceback.print_exc(file=sys.stderr)
    return outcome, out, t0, time.perf_counter() - t0


def clear_library_caches():
    """Empty the module-level caches of trigonal (extension, embedding and
    projection tables), so that each set-up starts cold."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "trigonal" or name.startswith("trigonal.")):
            continue
        for attr, value in vars(mod).items():
            if isinstance(value, dict) and "cache" in attr:
                value.clear()


def run_pass(plan, order, codes, stop_at=None, after_op=None):
    """One pass in the given order: ([(label, start, seconds, outcome, output)], complete).

    No op starts after the perf_counter time stop_at, nor after RUN_LIMIT_S;
    the pass is then incomplete.
    """
    records = []
    stop_at = min(stop_at or float("inf"), PROCESS_START + RUN_LIMIT_S)
    for idx in order:
        if time.perf_counter() > stop_at:
            return records, False
        label, thunk = plan.ops[idx]
        outcome, out, t0, dt = run_op(thunk, plan.deadline_s, codes)
        records.append((label, t0, dt, outcome, out))
        if after_op is not None:
            after_op(label, dt)
    return records, True


def sample_overhead(plan, order, codes, sampler):
    """(ops, traced seconds, untraced seconds): each of the pass's first ops run
    twice in a row, once under a tracer of its own, for OVERHEAD_SAMPLE_S.

    The order of the two runs alternates, and they are adjacent in time, so
    drift in the host's speed cancels out of the ratio.
    """
    traced = untraced = 0.0
    n = 0
    stop_at = time.perf_counter() + OVERHEAD_SAMPLE_S
    for idx in order:
        if time.perf_counter() > stop_at:
            break
        thunk = plan.ops[idx][1]
        for with_tracer in ((False, True) if n % 2 == 0 else (True, False)):
            if with_tracer:
                sampler.install()
            try:
                dt = run_op(thunk, plan.deadline_s, codes)[3]
            finally:
                sampler.uninstall()
            if with_tracer:
                traced += dt
            else:
                untraced += dt
        n += 1
    return n, traced, untraced


def git_rev():
    """The checked-out commit, read from .git without running git ("unknown" outside a clone)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q):
    """Nearest-rank percentile."""
    return sorted(values)[max(0, math.ceil(q * len(values)) - 1)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the smoke-test size")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "trigonal", "__init__.py")):
        print(f"error: no trigonal package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    probe = None if args.trace else hostspeed.SpeedProbe()
    if probe:
        probe.start()
    sys.path.insert(0, SRC)
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup, check = workloads.WORKLOADS[args.workload]
    codes = set(tracing.ERROR_CODES)
    signal.signal(signal.SIGALRM, _on_alarm)
    imported = time.perf_counter()

    tracer = tracing.Tracer() if args.trace else None
    setup_spans = []
    reps = 1 if tracer else SETUP_REPS
    for _ in range(reps):
        clear_library_caches()
        t0 = time.perf_counter()
        if tracer:
            tracer.install()
        plan = setup(args.size)
        outcome = run_op(plan.ops[plan.warmup][1], plan.deadline_s, codes)[0]
        if tracer:
            setup_module_self = tracer.module_self()
            tracer.uninstall()
        setup_spans.append((t0, time.perf_counter()))
        if outcome != "ok":
            print(f"warning: warm-up op ended with {outcome}", file=sys.stderr)

    order = list(range(len(plan.ops)))
    random.Random(args.seed).shuffle(order)
    passes = []  # (records, complete, wall seconds)
    t_start = time.perf_counter()
    if tracer is None:
        while True:
            tp = time.perf_counter()
            records, complete = run_pass(plan, order, codes)
            now = time.perf_counter()
            passes.append((records, complete, now - tp))
            if not complete or now - t_start + (now - tp) > args.seconds:
                break
        t_end = time.perf_counter()
        probe.stop()
    else:
        per_op = []

        def after_op(label, dt):
            nonlocal last
            now = tracer.snapshot()
            delta = {n: [now[n][0] - last[n][0], now[n][1] - last[n][1]] for n in now if now[n][0] != last[n][0]}
            per_op.append({"op": repr(label), "seconds": dt, "spans": delta})
            last = now

        tracer.reset()
        last = tracer.snapshot()
        tracer.install()
        tp = time.perf_counter()
        try:
            records, complete = run_pass(plan, order, codes, after_op=after_op)
        finally:
            tracer.uninstall()
        passes.append((records, complete, time.perf_counter() - tp))
        overhead = sample_overhead(plan, order, codes, tracing.Tracer())

    # gates, on the outputs of every complete pass
    problems = []
    found = {}
    for records, complete, _ in passes:
        if complete:
            ok_outputs = [(label, out) for label, _, _, outcome, out in records if outcome == "ok"]
            problems.extend(check(plan, ok_outputs, args.size, found))
    if not any(complete for _, complete, _ in passes):
        problems.append("no pass completed")

    all_records = [r for records, _, _ in passes for r in records]
    attempted = len(all_records)
    outcomes = {}
    for record in all_records:
        outcomes[record[3]] = outcomes.get(record[3], 0) + 1
    failed = attempted - outcomes.get("ok", 0)
    completed = outcomes.get("ok", 0)

    lines = []
    metrics = {}

    def put(name, value, unit, note=""):
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{args.workload} {name} = {value:.6g} {unit}{note}")

    if tracer is None:
        # times in reference seconds (hostspeed.py), wall seconds beside them
        ref = probe.reference_seconds
        import_ref, import_wall = ref(PROCESS_START, imported), imported - PROCESS_START
        reps_ref = [ref(a, b) for a, b in setup_spans]
        put("setup_s", import_ref + statistics.median(reps_ref), "s",
            f"  (imports {import_ref:.3f} + median of {reps} set-ups {[round(t, 3) for t in reps_ref]}; "
            f"wall {import_wall + statistics.median(b - a for a, b in setup_spans):.6g} s)")
        timed_ref = ref(t_start, t_end)
        put("ops_per_s", completed / timed_ref, "1/s",
            f"  ({completed} ops in {timed_ref:.2f} s, {len(passes)} passes; "
            f"wall {completed / (t_end - t_start):.6g} ops/s)")
        # latencies of every attempted op: a failed op counts with the time it took
        latencies = [ref(r[1], r[1] + r[2]) for r in all_records]
        put("op_s_p50", statistics.median(latencies), "s",
            f"  (n={len(latencies)}; wall {statistics.median(r[2] for r in all_records):.6g} s)")
        put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        extra = []
        if args.workload in ("survey30", "verify37"):
            if len(latencies) >= P99_MIN_OPS:
                extra.append(f"op_s_p99 = {percentile(latencies, 0.99):.6g} s  (n={len(latencies)})")
            else:
                extra.append(f"op_s_p99 not reported: {len(latencies)} ops < {P99_MIN_OPS}")
        extra.append(f"failed_frac = {failed / attempted if attempted else 0.0:.6g}  ({failed} of {attempted})")
        if args.workload == "verify37":
            zeta = [t for r, t in zip(all_records, latencies) if r[0][0] == "zeta" and r[3] == "ok"]
            if zeta:
                extra.append(f"zeta_s = {statistics.median(zeta):.6g} s  (median of {len(zeta)})")
        extra.append(f"host probe: {len(probe.durations)} samples, median {statistics.median(probe.durations) * 1e3:.4g} ms "
                     f"(reference {hostspeed.PROBE_REF_S * 1e3:.4g} ms)")
        lines.extend(f"{args.workload} {e}" for e in extra)
    else:
        ((t_records, _, t_wall),) = passes
        snap = tracer.snapshot()
        op_time = sum(r[2] for r in t_records) or float("nan")
        for name in tracing.FUNCTIONS:
            calls, self_s = snap[name]
            put(f"{name}.calls", calls, "count")
            put(f"{name}.self_s", self_s, "s")
        for mod, self_s in tracer.module_self().items():
            put(f"{mod}.self_s", self_s, "s")
            put(f"{mod}.share", self_s / op_time, "ratio")
        for mod, self_s in setup_module_self.items():
            put(f"setup.{mod}.self_s", self_s, "s")
        for name, value in tracer.counters(len(t_records)).items():
            put(name, value, "count" if isinstance(value, int) else "ratio")
        t_outcomes = {}
        for record in t_records:
            t_outcomes[record[3]] = t_outcomes.get(record[3], 0) + 1
        for code in tracing.ERROR_CODES:
            put(f"errors.{code}", t_outcomes.get(code, 0), "count")
        t_ok = t_outcomes.get("ok", 0)
        pairs, traced_s, untraced_s = overhead
        put("trace.ops_per_s", t_ok / t_wall, "1/s")
        put("trace.overhead", traced_s / untraced_s, "ratio",
            f"  ({pairs} ops run both ways: untraced {pairs / untraced_s:.6g} ops/s, traced {pairs / traced_s:.6g} ops/s)")
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}-{args.size}.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "ops": per_op}, fh)

    print(f"{args.workload} env: git {git_rev()}, CPython {platform.python_version()}, "
          f"nproc {os.cpu_count()}, ops {attempted}, seed {args.seed}, size {args.size}, trace {args.trace}")
    for line in lines:
        print(line)
    for key, value in sorted(found.items()):
        print(f"{args.workload} digest {key} = {value}")
    for outcome, n in sorted(outcomes.items()):
        if outcome != "ok":
            print(f"{args.workload} errors.{outcome} = {n}")
    for problem in problems[:20]:
        print(f"{args.workload} GATE FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
