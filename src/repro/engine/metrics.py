"""Execution metrics for the mini-Spark engine.

The paper's experimental story is largely about *costs that we can count*:
bytes moved through the shuffle, number of tasks scheduled, bytes spilled
to disk. The engine increments these counters as it runs; benchmarks take
snapshots before/after a job and feed the difference to the cost model.
"""

from __future__ import annotations

import threading

from dataclasses import dataclass, field, fields


@dataclass(frozen=True)
class StageTiming:
    """Wall time of one executed stage (shuffle map or result)."""

    label: str
    kind: str  # "shuffle" | "result" | "checkpoint"
    wall_s: float
    num_tasks: int

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "wall_s": self.wall_s,
            "num_tasks": self.num_tasks,
        }


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable point-in-time copy of every engine counter."""

    tasks_launched: int = 0
    stages_run: int = 0
    jobs_run: int = 0
    shuffle_records: int = 0
    shuffle_bytes: int = 0
    shuffles_performed: int = 0
    shuffle_batches: int = 0
    shuffle_batch_records: int = 0
    disk_read_bytes: int = 0
    disk_write_bytes: int = 0
    result_bytes: int = 0
    broadcast_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_spills: int = 0
    cache_reloads: int = 0
    chunks_repacked: int = 0
    repack_bytes_saved: int = 0
    recomputations: int = 0
    task_retries: int = 0
    kernels_fused: int = 0
    fused_chunks_avoided: int = 0
    optimizer_rules_fired: int = 0
    optimizer_chunks_pruned: int = 0
    shm_segments_created: int = 0
    shm_bytes_mapped: int = 0
    worker_respawns: int = 0

    def __sub__(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        deltas = {
            f.name: getattr(self, f.name) - getattr(other, f.name)
            for f in fields(self)
        }
        return MetricsSnapshot(**deltas)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: the engine's logical counters — the single source of truth shared by
#: MetricsSnapshot (all fields) and MetricsRegistry (reset/snapshot).
#: Adding a counter means adding one field to *each* dataclass; the
#: drift-guard test asserts the two stay identical.
COUNTER_FIELDS = tuple(f.name for f in fields(MetricsSnapshot))


def task_time_histogram(task_times, bins: int = 10) -> list:
    """``(lo_s, hi_s, count)`` buckets over a list of task durations."""
    task_times = list(task_times)
    if not task_times:
        return []
    lo, hi = min(task_times), max(task_times)
    if hi <= lo:
        return [(lo, hi, len(task_times))]
    width = (hi - lo) / bins
    counts = [0] * bins
    for duration in task_times:
        slot = min(int((duration - lo) / width), bins - 1)
        counts[slot] += 1
    return [
        (lo + i * width, lo + (i + 1) * width, count)
        for i, count in enumerate(counts)
    ]


@dataclass
class MetricsRegistry:
    """Mutable counters owned by a :class:`ClusterContext`."""

    tasks_launched: int = 0
    stages_run: int = 0
    jobs_run: int = 0
    shuffle_records: int = 0
    shuffle_bytes: int = 0
    shuffles_performed: int = 0
    # columnar shuffle (repro.engine.batches): packed RecordBatches
    # shipped, and how many records rode in them (vs the tuple path)
    shuffle_batches: int = 0
    shuffle_batch_records: int = 0
    disk_read_bytes: int = 0
    disk_write_bytes: int = 0
    result_bytes: int = 0
    broadcast_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    # the memory tier (repro.engine.storage): victims written to the
    # spill directory, spilled blocks decoded back on access, and chunks
    # re-encoded by the density policy on cache admission (net payload
    # bytes the repacking shed)
    cache_spills: int = 0
    cache_reloads: int = 0
    chunks_repacked: int = 0
    repack_bytes_saved: int = 0
    recomputations: int = 0
    task_retries: int = 0
    # chunk-kernel fusion (repro.core.plan): kernels compiled into fused
    # passes, and intermediate Chunk builds a one-operator-at-a-time
    # evaluation would have done
    kernels_fused: int = 0
    fused_chunks_avoided: int = 0
    # the logical rewrite optimizer (repro.core.optimizer): cost-gated
    # rewrite rules that actually fired at lowering time, and chunks the
    # rewritten plans prune before any task is scheduled (estimated from
    # metadata, deterministic across schedulers)
    optimizer_rules_fired: int = 0
    optimizer_chunks_pruned: int = 0
    # the process backend (repro.engine.worker / repro.engine.shm):
    # shared-memory segments created for shuffle blocks and cached
    # chunks, bytes of those segments mapped into worker/driver address
    # spaces, and worker pools respawned after a process died mid-task
    shm_segments_created: int = 0
    shm_bytes_mapped: int = 0
    worker_respawns: int = 0
    _history: list = field(default_factory=list, repr=False)
    # wall-clock observations (not part of MetricsSnapshot, which holds
    # only logical counters that must be identical between the serial
    # and threaded schedulers)
    stage_timings: list = field(default_factory=list, repr=False)
    task_times: list = field(default_factory=list, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            **{name: getattr(self, name) for name in COUNTER_FIELDS}
        )

    def reset(self) -> None:
        with self._lock:
            for name in COUNTER_FIELDS:
                setattr(self, name, 0)
            self.stage_timings.clear()
            self.task_times.clear()

    def record_task(self, count: int = 1) -> None:
        with self._lock:
            self.tasks_launched += count

    def record_stage(self) -> None:
        with self._lock:
            self.stages_run += 1

    def record_job(self) -> None:
        with self._lock:
            self.jobs_run += 1

    def record_shuffle(self, records: int, size_bytes: int) -> None:
        with self._lock:
            self.shuffles_performed += 1
            self.shuffle_records += records
            self.shuffle_bytes += size_bytes

    def record_shuffle_batches(self, batches: int, records: int) -> None:
        with self._lock:
            self.shuffle_batches += batches
            self.shuffle_batch_records += records

    def record_disk_read(self, size_bytes: int) -> None:
        with self._lock:
            self.disk_read_bytes += size_bytes

    def record_disk_write(self, size_bytes: int) -> None:
        with self._lock:
            self.disk_write_bytes += size_bytes

    def record_result(self, size_bytes: int) -> None:
        with self._lock:
            self.result_bytes += size_bytes

    def record_broadcast(self, size_bytes: int) -> None:
        with self._lock:
            self.broadcast_bytes += size_bytes

    def record_cache_hit(self) -> None:
        with self._lock:
            self.cache_hits += 1

    def record_cache_miss(self) -> None:
        with self._lock:
            self.cache_misses += 1

    def record_eviction(self) -> None:
        with self._lock:
            self.cache_evictions += 1

    def record_spill(self) -> None:
        with self._lock:
            self.cache_spills += 1

    def record_reload(self) -> None:
        with self._lock:
            self.cache_reloads += 1

    def record_repack(self, count: int, bytes_saved: int = 0) -> None:
        """``count`` chunks re-encoded by the density policy; positive
        ``bytes_saved`` means the new encodings are smaller."""
        with self._lock:
            self.chunks_repacked += count
            self.repack_bytes_saved += bytes_saved

    def record_recomputation(self) -> None:
        with self._lock:
            self.recomputations += 1

    def record_task_retry(self) -> None:
        with self._lock:
            self.task_retries += 1

    def record_kernels_fused(self, count: int) -> None:
        """A ChunkPlan of ``count`` stages compiled into one pass."""
        with self._lock:
            self.kernels_fused += count

    def record_fused_chunks_avoided(self, count: int) -> None:
        """Intermediate Chunk builds skipped by a fused pass."""
        with self._lock:
            self.fused_chunks_avoided += count

    def record_optimizer(self, rules_fired: int,
                         chunks_pruned: int = 0) -> None:
        """``rules_fired`` rewrite rules applied while lowering one
        logical plan; ``chunks_pruned`` chunks those rewrites eliminate
        before scheduling."""
        with self._lock:
            self.optimizer_rules_fired += rules_fired
            self.optimizer_chunks_pruned += chunks_pruned

    def record_shm_segment(self) -> None:
        """One shared-memory segment created for block exchange."""
        with self._lock:
            self.shm_segments_created += 1

    def record_shm_mapped(self, size_bytes: int) -> None:
        """A segment of ``size_bytes`` mapped into an address space."""
        with self._lock:
            self.shm_bytes_mapped += size_bytes

    def record_worker_respawn(self) -> None:
        """A worker pool replaced after a process died mid-task."""
        with self._lock:
            self.worker_respawns += 1

    def merge_counters(self, deltas: dict) -> None:
        """Fold a worker task's counter deltas into this registry.

        Only known :data:`COUNTER_FIELDS` keys are applied; a worker
        reply produced by a newer/older build cannot corrupt state.
        """
        with self._lock:
            for name, value in deltas.items():
                if name in COUNTER_FIELDS and value:
                    setattr(self, name, getattr(self, name) + value)

    # ------------------------------------------------------------------
    # wall-clock observations
    # ------------------------------------------------------------------

    def record_stage_timing(self, label: str, kind: str, wall_s: float,
                            num_tasks: int) -> None:
        with self._lock:
            self.stage_timings.append(
                StageTiming(label=label, kind=kind, wall_s=wall_s,
                            num_tasks=num_tasks))

    def record_task_time(self, seconds: float) -> None:
        with self._lock:
            self.task_times.append(seconds)

    def busy_task_seconds(self) -> float:
        """Total task compute time (sums over concurrent executors)."""
        with self._lock:
            return sum(self.task_times)

    def task_time_histogram(self, bins: int = 10, task_times=None) -> list:
        """``(lo_s, hi_s, count)`` buckets over recorded task durations.

        Delegates to the module-level :func:`task_time_histogram`;
        without an explicit ``task_times`` it buckets this registry's
        recorded durations.
        """
        if task_times is None:
            with self._lock:
                task_times = list(self.task_times)
        return task_time_histogram(task_times, bins=bins)
