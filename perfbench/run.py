"""The repository benchmark: four paper workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload raster --seed 1 --seconds 12 \\
        --trace 0 --tight-budget-fraction 0.9

Workloads (``perfbench/workloads.py``): ``raster``, ``linalg``,
``iterative``, ``iterative_tight``. Each runs on
``ClusterContext(num_executors=2)`` as a closed loop: one client runs the
workload's fixed op sequence (one *round*) back to back until the ops
have taken ``--seconds`` of wall time. The clock pauses while the
benchmark checks an op's output against its numpy oracle. Telemetry is
off.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: generate + ingest + cache + pool warm-up, median of three
  complete set-ups.
- ``round_s``: median wall time of one round (sum of its op times).
- ``op_p50_ms`` / ``op_p90_ms``: op latency percentiles over every op of
  the window; a failed op counts as taking the whole window.
- ``ops_per_s``: successful ops per second of op wall time.
- ``modeled_s``: median modeled cluster seconds per round
  (``ctx.measure()``: wall time plus the count-derived network,
  scheduling and disk time).
- ``peak_rss_mb``: peak RSS of this process plus every worker process
  over the measured set-up, warm-up and window. The driver's peak is
  reset (``/proc/self/clear_refs``) after the untimed oracles and the
  other set-ups, so it starts from the RSS the held oracles and the
  imported modules take.
- ``cache_resident_mb``: block-cache ledger bytes after set-up.

It also prints, by name, ``failed_op_share`` and
``modeled_overhead_s``, which never enter the JSON line: the first is 0
on a healthy workload and the second is a pure function of the inputs,
so neither can carry a relative bound.

``--trace 1`` prints the per-layer metrics: counter deltas per round
from an untraced window, layer probes (``perfbench/layers.py``), and a
traced window on a second ``ClusterContext(trace=True)`` whose spans
are exported with ``export_jsonl``/``export_chrome_trace`` to
``.perfbench_out/``. End-to-end metrics never come from the traced
window; ``trace.overhead`` is its round time over the untraced one.

Every invocation also checks, outside every timed region:

- every op's output against its oracle (a wrong answer is a failed op);
- after each ``ctx.shutdown()``: no shared-memory segment under the
  context's prefix, no spill directory, no surviving worker process or
  context thread (a leak is a failed check, counted as a failed op);
- on ``linalg``, once: every op on the serial and process backends
  against the thread backend's bytes. Every mismatch or error is
  printed and counted in ``failed_op_share``, and every one but the
  known defect below is a failed op in the JSON ``failed`` count. The
  known defect: on the process backend the mouse and mawi M x V, V^T M
  and M^T M tasks fail to pickle a ``_thread.lock``
  (``KNOWN_PROCESS_DEFECT``).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import multiprocessing
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
MB = 1e6

#: linalg ops that fail on the process backend at this commit, with
#: the error they raise: their task closures capture the
#: ClusterContext's locks
KNOWN_PROCESS_DEFECT = (
    {f"{matrix}.{kernel}" for matrix in ("mouse", "mawi")
     for kernel in ("mxv", "vtm", "mtm")},
    "TaskFailure",
    "cannot pickle '_thread.lock'",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "round_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "modeled_s": "s",
    "peak_rss_mb": "MB",
    "cache_resident_mb": "MB",
}

#: per-round counter metrics: name -> (unit, MetricsSnapshot field)
COUNTERS = {
    "plan.kernels_fused": ("count", "kernels_fused"),
    "plan.fused_chunks_avoided": ("count", "fused_chunks_avoided"),
    "optimizer.rules_fired": ("count", "optimizer_rules_fired"),
    "optimizer.chunks_pruned": ("count", "optimizer_chunks_pruned"),
    "shuffle.bytes": ("B", "shuffle_bytes"),
    "shuffle.records": ("count", "shuffle_records"),
    "scheduler.tasks": ("count", "tasks_launched"),
    "scheduler.jobs": ("count", "jobs_run"),
    "scheduler.stages": ("count", "stages_run"),
    "scheduler.task_retries": ("count", "task_retries"),
    "shm.segments_created": ("count", "shm_segments_created"),
    "shm.bytes_mapped": ("B", "shm_bytes_mapped"),
    "storage.evictions": ("count", "cache_evictions"),
    "storage.recomputations": ("count", "recomputations"),
    "storage.spills": ("count", "cache_spills"),
    "storage.reloads": ("count", "cache_reloads"),
    "engine.result_bytes": ("B", "result_bytes"),
    "engine.broadcast_bytes": ("B", "broadcast_bytes"),
}


# ----------------------------------------------------------------------
# one round, one window
# ----------------------------------------------------------------------

class Round:
    """Sums over the ops of one round."""

    def __init__(self):
        self.wall_s = 0.0
        self.modeled_s = 0.0
        self.overhead_s = 0.0
        self.busy_s = 0.0
        self.gather_imbalance = 0.0
        self.counters = {}


class Tally:
    """Everything the window measured; warm-up rounds only count ops."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.rounds = []
        self.latencies = []
        self.by_op = {}
        self.attempted = 0
        self.failed = 0
        self.op_time_s = 0.0
        self.successes = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> None:
        """Count one non-op check (a leak check) as an attempted op."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def run_round(ctx, ops, tally: Tally, timed: bool, on_output=None) -> None:
    record = Round()
    for op in ops:
        ctx.nnz_stats.clear()
        with ctx.tracer.span(op.name, "bench.op"):
            with ctx.measure() as measured:
                try:
                    out = op.fn()
                    error = None
                except Exception as exc:  # an op failure is data here
                    out = None
                    error = f"{type(exc).__name__}: {exc}"
        if error is None:
            try:
                if not op.check(out):
                    error = "wrong answer"
            except Exception as exc:  # a malformed output is wrong too
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is None and on_output is not None:
            on_output(op.name, out)
        tally.attempted += 1
        if error is not None:
            tally.failed += 1
            tally.failures.append(f"{op.name}: {error}"[:300])
        if not timed:
            continue
        wall = measured.wall_s
        report = measured.report
        tally.op_time_s += wall
        latency = wall if error is None else max(wall, tally.seconds)
        tally.latencies.append(latency)
        tally.by_op.setdefault(op.name.rstrip("0123456789"),
                               []).append(latency)
        tally.successes += error is None
        record.wall_s += wall
        record.modeled_s += report.modeled_s
        record.overhead_s += (report.network_s + report.scheduling_s
                              + report.disk_s)
        record.busy_s += measured.busy_task_s
        record.gather_imbalance = max(
            record.gather_imbalance,
            ctx.nnz_stats.gauges().get("imbalance", 0.0))
        for field, value in measured.delta.as_dict().items():
            record.counters[field] = record.counters.get(field, 0) + value
    if timed:
        tally.rounds.append(record)


def warm_up(ctx, workload, state, refs, inputs, tally) -> dict:
    """One untimed, checked round; returns the digest of every op's
    output on linalg (the thread-backend bytes the identity check
    compares against)."""
    digests = {}
    on_output = None
    if workload.name == "linalg":
        def on_output(name, out):
            digests[name] = workload.digest(name, out)
    run_round(ctx, workload.round_ops(state, refs, inputs), tally,
              timed=False, on_output=on_output)
    return digests


def run_window(ctx, workload, state, refs, inputs, tally: Tally) -> None:
    """Rounds back to back until the ops have run ``tally.seconds``."""
    while tally.op_time_s < tally.seconds:
        run_round(ctx, workload.round_ops(state, refs, inputs), tally,
                  timed=True)


# ----------------------------------------------------------------------
# set-up, memory, leaks
# ----------------------------------------------------------------------

def warm_pool(ctx) -> None:
    """One no-op job so every executor (thread or process) is up."""
    tasks = ctx.num_executors
    ctx.parallelize(list(range(tasks)), tasks).count()


def set_up(workload, seed, **ctx_kwargs):
    """One complete set-up; returns ``(seconds, inputs, ctx, state)``."""
    start = time.perf_counter()
    inputs = workload.generate(seed)
    ctx = workload.make_context(inputs, **ctx_kwargs)
    state = workload.build(ctx, inputs)
    warm_pool(ctx)
    return time.perf_counter() - start, inputs, ctx, state


def _vm_hwm_kb(pid) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reset_peak_rss() -> None:
    """Reset this process's VmHWM to its current RSS."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live worker processes."""
    pids = ["self"] + [p.pid for p in multiprocessing.active_children()]
    return sum(_vm_hwm_kb(pid) for pid in pids) * 1024 / MB


def shutdown_and_check(ctx, tally: Tally, threads_before) -> None:
    """``ctx.shutdown()``, then look for anything it left behind."""
    from repro.engine.shm import leaked_segments

    prefix = ctx.shm_registry.prefix
    workers = [p.pid for p in multiprocessing.active_children()]
    ctx.shutdown()
    problems = []
    segments = leaked_segments(prefix)
    if segments:
        problems.append(f"{len(segments)} shm segments")
    spill_dirs = glob.glob(os.path.join(tempfile.gettempdir(),
                                        "spangle-spill-*"))
    if spill_dirs:
        problems.append(f"spill directories {spill_dirs}")
    alive = [pid for pid in workers if os.path.exists(f"/proc/{pid}")]
    if alive or multiprocessing.active_children():
        problems.append(f"worker processes alive: {alive}")
    threads = [t.name for t in threading.enumerate()
               if t not in threads_before]
    if threads:
        problems.append(f"threads alive: {threads}")
    tally.check(not problems,
                "leak after shutdown: " + "; ".join(problems))


# ----------------------------------------------------------------------
# linalg backend identity
# ----------------------------------------------------------------------

def _known_defect(backend, name, exc) -> bool:
    ops, error, message = KNOWN_PROCESS_DEFECT
    return (backend == "process" and name in ops
            and type(exc).__name__ == error and message in str(exc))


def backend_identity(workload, inputs, expected, tally, threads_before):
    """Each linalg op on the serial and process backends, compared with
    the thread backend's output bytes. Every problem but the known
    process-backend defect fails the run. Returns
    ``(checked, problems)``."""
    from repro import ClusterContext

    checked = 0
    problems = []
    for backend, kwargs in (("serial", {}), ("process",
                                             {"backend": "process"})):
        ctx = ClusterContext(num_executors=2, **kwargs)
        try:
            state = workload.build(ctx, inputs)
            for name, fn in workload.op_calls(state, inputs):
                checked += 1
                try:
                    digest = workload.digest(name, fn())
                except Exception as exc:  # the failure is the finding
                    problem = (f"{backend} {name}: "
                               f"{type(exc).__name__}: {exc}"[:300])
                    problems.append(problem)
                    if not _known_defect(backend, name, exc):
                        tally.check(False, f"backend identity: {problem}")
                    continue
                if digest != expected.get(name):
                    problem = (f"{backend} {name}: bytes differ from the "
                               f"thread backend")
                    problems.append(problem)
                    tally.check(False, f"backend identity: {problem}")
        finally:
            shutdown_and_check(ctx, tally, threads_before)
    for line in problems:
        print(f"backend identity: {line}")
    return checked, problems


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------

def _covered(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans) -> dict:
    """Self time (span minus what its children cover) summed by kind:
    ``op`` (the benchmark's op spans), ``job``, ``stage`` (stage-like
    spans), ``task`` and ``other``."""
    from repro.engine.tracing import STAGE_LIKE_KINDS

    children = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    totals = {"op": 0.0, "job": 0.0, "stage": 0.0, "task": 0.0,
              "other": 0.0}
    for span in spans:
        kids = children.get(span.span_id, ())
        covered = _covered((max(k.start_s, span.start_s),
                            min(k.end_s, span.end_s)) for k in kids)
        if span.kind == "bench.op":
            kind = "op"
        elif span.kind in STAGE_LIKE_KINDS:
            kind = "stage"
        elif span.kind in ("job", "task"):
            kind = span.kind
        else:
            kind = "other"
        totals[kind] += max(span.wall_s - covered, 0.0)
    return totals


# ----------------------------------------------------------------------
# the two modes
# ----------------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(workload, args, tally, threads_before, notes) -> dict:
    import numpy as np

    setups = []
    for _ in range(SETUP_REPEATS - 1):
        seconds, inputs, ctx, state = set_up(workload, args.seed)
        setups.append(seconds)
        shutdown_and_check(ctx, tally, threads_before)
        del ctx, state
    refs = workload.references(inputs)
    del inputs
    # the peak covers the measured set-up, warm-up and window only
    gc.collect()
    reset_peak_rss()
    seconds, inputs, ctx, state = set_up(workload, args.seed)
    setups.append(seconds)
    resident = ctx.cache.used_bytes()
    expected = warm_up(ctx, workload, state, refs, inputs, tally)
    run_window(ctx, workload, state, refs, inputs, tally)
    rss = peak_rss_mb()
    shutdown_and_check(ctx, tally, threads_before)
    del ctx, state

    checked, problems = 0, []
    if workload.name == "linalg":
        checked, problems = backend_identity(workload, inputs, expected,
                                             tally, threads_before)

    rounds = tally.rounds
    p50, p90 = np.percentile(tally.latencies, [50, 90])
    metrics = {
        "setup_s": _median(setups),
        "round_s": _median([r.wall_s for r in rounds]),
        "op_p50_ms": float(p50) * 1e3,
        "op_p90_ms": float(p90) * 1e3,
        "ops_per_s": tally.successes / tally.op_time_s,
        "modeled_s": _median([r.modeled_s for r in rounds]),
        "peak_rss_mb": rss,
        "cache_resident_mb": resident / MB,
    }
    notes["samples"] = (f"{len(tally.latencies)} ops in {len(rounds)} "
                        f"rounds")
    notes["op medians"] = ", ".join(
        f"{name} {_median(values) * 1e3:.1f}ms"
        for name, values in tally.by_op.items())
    notes["round times"] = ", ".join(f"{r.wall_s:.3f}s" for r in rounds)
    notes["set-up times"] = ", ".join(f"{s:.3f}s" for s in setups)
    notes["failed_op_share"] = (
        (tally.failed + len(problems)) / (tally.attempted + checked),
        "ratio")
    notes["modeled_overhead_s"] = (
        _median([r.overhead_s for r in rounds]), "s")
    if workload.name == "iterative_tight":
        notes["budget"] = (
            f"cache budget {workload.budget_bytes} B = "
            f"{workload.budget_fraction} x {workload.resident_bytes} B "
            f"resident input bytes")
    if checked:
        notes["backend identity"] = (
            f"{checked - len(problems)}/{checked} serial+process ops "
            f"byte-identical to the thread backend")
    return {name: (value, END_TO_END_UNITS[name])
            for name, value in metrics.items()}


def per_layer(workload, args, tally, threads_before, notes) -> dict:
    from layers import LayerProbes

    from repro.engine.tracing import export_chrome_trace, export_jsonl

    half = args.seconds / 2
    # untraced window: counters per round and the tracing baseline
    _, inputs, ctx, state = set_up(workload, args.seed)
    refs = workload.references(inputs)
    expected = warm_up(ctx, workload, state, refs, inputs, tally)
    untraced = Tally(half)
    run_window(ctx, workload, state, refs, inputs, untraced)
    probes = LayerProbes(args.seed)
    probes.dispatch(ctx)
    shutdown_and_check(ctx, tally, threads_before)
    del ctx, state

    # traced window on a second context; the layer probes run inside it
    # too, each under one benchmark span
    _, inputs, ctx, state = set_up(workload, args.seed, trace=True)
    warm_up(ctx, workload, state, refs, inputs, tally)
    ctx.tracer.clear()
    traced = Tally(half)
    run_window(ctx, workload, state, refs, inputs, traced)
    window_spans = ctx.tracer.spans()
    profiles = ctx.tracer.job_profiles()
    rows = probes.run(tracer=ctx.tracer)
    for leak in probes.leaks:
        tally.check(False, leak)
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}")
    spans = ctx.tracer.spans()
    export_jsonl(spans, stem + ".trace.jsonl",
                 num_executors=ctx.num_executors)
    export_chrome_trace(spans, stem + ".chrome.json")
    notes["trace files"] = f"{stem}.trace.jsonl, {stem}.chrome.json"
    executors = ctx.num_executors
    shutdown_and_check(ctx, tally, threads_before)
    del ctx, state

    if workload.name == "linalg":
        backend_identity(workload, inputs, expected, tally, threads_before)
    for window in (untraced, traced):
        tally.attempted += window.attempted
        tally.failed += window.failed
        tally.failures += window.failures

    metrics = {}
    rounds = untraced.rounds
    for name, (unit, field) in COUNTERS.items():
        metrics[name] = (_median([r.counters.get(field, 0)
                                  for r in rounds]), unit)
    hits = _median([r.counters.get("cache_hits", 0) for r in rounds])
    misses = _median([r.counters.get("cache_misses", 0) for r in rounds])
    records = _median([r.counters.get("shuffle_records", 0)
                       for r in rounds])
    batched = _median([r.counters.get("shuffle_batch_records", 0)
                       for r in rounds])
    metrics.update({
        "shuffle.columnar_share": (batched / records if records else 0.0,
                                   "ratio"),
        "multiply.gather_imbalance": (
            _median([r.gather_imbalance for r in rounds]), "ratio"),
        "scheduler.utilization": (
            sum(r.busy_s for r in rounds)
            / (sum(r.wall_s for r in rounds) * executors), "ratio"),
        "storage.hit_ratio": (hits / (hits + misses) if hits + misses
                              else 0.0, "ratio"),
        "engine.modeled_overhead_s": (
            _median([r.overhead_s for r in rounds]), "s"),
    })
    for name, (value, unit, _nbytes, _seconds) in rows.items():
        metrics[name] = (value, unit)

    untraced_s = _median([r.wall_s for r in untraced.rounds])
    traced_s = _median([r.wall_s for r in traced.rounds])
    per_round = 1.0 / max(len(traced.rounds), 1)
    selfs = self_times(window_spans)
    metrics.update({
        "trace.untraced_round_s": (untraced_s, "s"),
        "trace.traced_round_s": (traced_s, "s"),
        "trace.overhead": (traced_s / untraced_s, "ratio"),
        "trace.spans": (len(window_spans) * per_round, "count"),
        # the plan spans' rank_counts() diffs, taken on whichever thread
        # ran each task
        "bitmask.rank_queries": (
            sum(sum(p.rank_queries.values()) for p in profiles)
            * per_round, "count"),
        "trace.critical_path_ms": (
            sum(p.critical_path_s for p in profiles) * per_round * 1e3,
            "ms"),
        "trace.stage_wall_ms": (
            sum(stage.wall_s for p in profiles for stage in p.stages)
            * per_round * 1e3, "ms"),
    })
    for kind, seconds in selfs.items():
        metrics[f"trace.{kind}_self_ms"] = (seconds * per_round * 1e3, "ms")
    print_layer_table(rows)
    return metrics


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def print_layer_table(rows) -> None:
    """Every timed probe row with its bytes, GB/s, share of memcpy,
    buffer size and the LLC size."""
    memcpy = rows["host.memcpy_gbps"][0]
    llc = rows["host.llc_bytes"][0]
    print(f"\nlayer rows (memcpy {memcpy:.2f} GB/s on a "
          f"{rows['host.memcpy_bytes'][0] >> 20} MiB buffer; "
          f"LLC {llc >> 20} MiB)")
    print(f"{'row':34} {'value':>12} {'unit':6} {'buffer B':>11} "
          f"{'GB/s':>8} {'% memcpy':>9} {'LLC B':>11}")
    for name, (value, unit, nbytes, seconds) in rows.items():
        if seconds is None:
            continue
        if nbytes:
            gbps = nbytes / seconds / 1e9
            extra = (f"{nbytes:>11} {gbps:>8.3f} "
                     f"{100 * gbps / memcpy:>8.2f}% {llc:>11}")
        else:
            extra = f"{'-':>11} {'-':>8} {'-':>9} {llc:>11}"
        print(f"{name:34} {value:>12.4f} {unit:6} {extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tight-budget-fraction", type=float,
                        help="iterative_tight's cache budget as a fraction "
                             "of its inputs' resident bytes")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # spill files and every other temp file stay inside the checkout
    temp_dir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(temp_dir, exist_ok=True)
    tempfile.tempdir = temp_dir
    os.environ["TMPDIR"] = temp_dir
    try:
        return run(args)
    finally:
        shutil.rmtree(temp_dir, ignore_errors=True)


def run(args) -> int:
    from workloads import WORKLOADS, IterativeTight

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if WORKLOADS[args.workload] is IterativeTight:
        if args.tight_budget_fraction is None:
            print("perfbench: iterative_tight needs "
                  "--tight-budget-fraction", file=sys.stderr)
            return 2
        workload = IterativeTight(args.tight_budget_fraction)
    else:
        workload = WORKLOADS[args.workload]()

    threads_before = set(threading.enumerate())
    tally = Tally(args.seconds)
    workload.calibrate(args.seed)
    notes = {}
    started = time.perf_counter()
    try:
        if args.trace:
            metrics = per_layer(workload, args, tally, threads_before, notes)
        else:
            metrics = end_to_end(workload, args, tally, threads_before,
                                 notes)
    except Exception:
        traceback.print_exc()
        return 1

    print(f"\n{workload.name} seed={args.seed} trace={args.trace} "
          f"({time.perf_counter() - started:.1f}s)")
    for name, (value, unit) in {**metrics, **{
            k: v for k, v in notes.items() if isinstance(v, tuple)}}.items():
        print(f"  {name:34} {value:>16.6g} {unit}")
    for key, value in notes.items():
        if not isinstance(value, tuple):
            print(f"  {key}: {value}")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
