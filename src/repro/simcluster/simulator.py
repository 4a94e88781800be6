"""Analytic Spark cluster execution simulator.

Maps ``(workload profile, configuration, datasize)`` to the metrics an
online tuning service observes for one periodic execution: wall-clock
runtime, allocated memory GB·h, allocated CPU core·h, and feasibility
(OOM/failure). All mechanisms are *mechanistic* so that parameter
sensitivities emerge from the model rather than being hard-coded:

- **executor.instances** sets slot count → wave count, container
  start-up ramp, and the allocated-resource bill (dominant, cf. paper
  Table 5 #1);
- **executor.memory / memory.fraction / memory.storageFraction** set
  per-task execution memory and cache capacity → spill, GC, recompute
  and OOM behaviour (Table 5 #2/#3/#5);
- **default.parallelism / sql.shuffle.partitions** set reduce-task
  granularity → per-task working set and scheduling overhead (#4);
- **executor.cores** trades slots against per-core memory (#6);
- **codec / buffers / compression flags / serializer** are second-order
  multiplicative I/O-CPU terms (#7–#10);
- remaining parameters contribute small but non-zero effects.

Runtime noise is multiplicative log-normal (σ≈3%), seeded per call, so
BO must be noise-robust as in the paper.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.objective import ExecResult
from repro.simcluster.profile import WorkloadProfile

#: Codec → (compression ratio on shuffle/cache bytes, CPU ms per MB).
CODECS = {"lz4": (0.50, 0.15), "snappy": (0.55, 0.12), "zstd": (0.38, 0.45)}

HDFS_BLOCK_MB = 128.0
DISK_MBPS_PER_CORE = 150.0     # effective sequential disk bandwidth
NET_MBPS_PER_CORE = 250.0      # shuffle-fetch bandwidth
PAGECACHE_MB_PER_EXEC = 3072.0  # IO volume/executor before disk thrash
OOM_RATIO = 8.0                # working-set / execution-memory ratio → OOM
TASK_LAUNCH_S = 0.03
MIN_TASK_S = 0.05
WAVE_OVERHEAD_S = 0.15
NOISE_SIGMA = 0.03             # lognormal sigma of the runtime noise


@dataclass
class ClusterSimulator:
    """Simulated resource group (defaults ≈ the paper's 100-unit group:
    20 cores + 50 GB per unit → 2000 cores / 5000 GB)."""

    capacity_cores: int = 2000
    capacity_mem_gb: float = 5000.0

    # -- public API ----------------------------------------------------

    def run(
        self,
        profile: WorkloadProfile,
        config: dict,
        *,
        datasize_mb: float | None = None,
        seed: int = 0,
    ) -> ExecResult:
        """Execute one job and report the online metrics."""
        ds = float(datasize_mb if datasize_mb is not None else profile.base_datasize_mb)
        runtime, feasible, stage_metrics = self._runtime(profile, config, ds)
        rng = np.random.default_rng(seed)
        runtime *= float(rng.lognormal(0.0, NOISE_SIGMA))
        inst, cores, mem_gb = self._allocation(config)
        hours = runtime / 3600.0
        drv_cores = config["spark.driver.cores"]
        drv_mem = config["spark.driver.memory"]
        return ExecResult(
            runtime_s=runtime,
            mem_gbh=(inst * mem_gb + drv_mem) * hours,
            cpu_coreh=(inst * cores + drv_cores) * hours,
            feasible=feasible,
            datasize_mb=ds,
            metrics={"stages": stage_metrics, "workload": profile.name},
        )

    # -- internals -----------------------------------------------------

    def _allocation(self, config: dict) -> tuple[int, int, float]:
        """Capacity-capped (instances, cores, per-executor memory GB)."""
        cores = config["spark.executor.cores"]
        mem_gb = config["spark.executor.memory"] + config["spark.executor.memoryOverhead"] / 1024.0
        if config["spark.memory.offHeap.enabled"]:
            mem_gb += config["spark.memory.offHeap.size"]
        inst = min(
            config["spark.executor.instances"],
            max(1, int(self.capacity_cores // cores)),
            max(1, int(self.capacity_mem_gb // mem_gb)),
        )
        return inst, cores, mem_gb

    def _runtime(
        self, profile: WorkloadProfile, config: dict, ds: float
    ) -> tuple[float, bool, list[dict]]:
        inst, cores, _ = self._allocation(config)
        slots = inst * cores
        codec_ratio, codec_cpu = CODECS[config["spark.io.compression.codec"]]

        heap_mb = config["spark.executor.memory"] * 1024.0
        unified = heap_mb * config["spark.memory.fraction"]
        exec_mem = unified * (1.0 - config["spark.memory.storageFraction"])
        if config["spark.memory.offHeap.enabled"]:
            exec_mem += config["spark.memory.offHeap.size"] * 1024.0
        exec_mem_per_task = max(exec_mem / cores, 1.0)
        storage_total_mb = unified * config["spark.memory.storageFraction"] * inst

        # serializer: kryo is cheaper per byte unless its buffer is undersized
        ser_cpu = 1.0 if config["spark.serializer"] == "kryo" else 1.18
        if config["spark.serializer"] == "kryo" and config["spark.kryoserializer.buffer.max"] < 32:
            ser_cpu *= 1.08

        # container start-up ramp: more executors take longer to come up
        startup = 6.0 + 0.02 * inst + (1.5 if config["spark.serializer"] == "kryo" else 0.0)

        # cache pressure for iterative jobs
        cache_need = profile.cache_frac * ds
        if config["spark.rdd.compress"]:
            cache_need *= codec_ratio
        recompute = 0.0
        if cache_need > 0 and cache_need > storage_total_mb:
            recompute = 1.0 - storage_total_mb / cache_need  # fraction recomputed

        feasible = True
        total = startup
        stage_metrics: list[dict] = []
        shuffle_carry = 0.0  # shuffle MB produced by the previous stage
        for it in range(profile.iterations):
            for sp in profile.stages:
                if sp.is_shuffle_read:
                    n_tasks = (
                        config["spark.sql.shuffle.partitions"]
                        if profile.sql
                        else config["spark.default.parallelism"]
                    )
                    read_mb = shuffle_carry
                    over_network = True
                else:
                    stage_in = sp.input_frac * ds
                    if it > 0 and profile.cache_frac > 0:
                        # cached portion re-read from memory, miss recomputed
                        stage_in = stage_in * (0.15 + 0.85 * recompute)
                    n_tasks = max(1, math.ceil(max(stage_in, 1.0) / HDFS_BLOCK_MB))
                    read_mb = stage_in
                    over_network = False
                n_tasks = max(1, int(n_tasks))
                per_task_in = read_mb / n_tasks
                write_mb = sp.shuffle_frac * ds
                per_task_out = write_mb / n_tasks

                cpu_ms = sp.cpu_ms_per_mb * profile.cpu_scale * per_task_in * ser_cpu
                # too few executors → each hosts more shuffle data than its
                # page cache holds → disk thrash (read/write amplification);
                # this is what makes extreme down-sizing runtime-expensive
                io_vol = max(write_mb, read_mb)
                thrash = 1.0 + (io_vol / inst) / PAGECACHE_MB_PER_EXEC
                # shuffle write path
                out_bytes = per_task_out * (codec_ratio if config["spark.shuffle.compress"] else 1.0)
                if config["spark.shuffle.compress"]:
                    cpu_ms += codec_cpu * per_task_out
                io_ms = 1000.0 * out_bytes / DISK_MBPS_PER_CORE * thrash
                buf = config["spark.shuffle.file.buffer"]
                if buf < 32:
                    io_ms *= 1.0 + 0.15 * (32.0 / buf - 1.0)
                else:
                    io_ms *= 1.0 - 0.03 * min(math.log2(buf / 32.0), 3.0)
                # read path
                read_bytes = per_task_in * (
                    codec_ratio if (over_network and config["spark.shuffle.compress"]) else 1.0
                )
                bw = NET_MBPS_PER_CORE if over_network else DISK_MBPS_PER_CORE
                read_ms = 1000.0 * read_bytes / bw * thrash
                if over_network:
                    # all-to-all fetch: every reducer opens streams to every
                    # mapper executor — fetch overhead grows with the
                    # executor count (why over-provisioning hurts runtime)
                    read_ms *= 1.0 + inst / 800.0
                    if config["spark.shuffle.compress"]:
                        cpu_ms += codec_cpu * per_task_in
                    msif = config["spark.reducer.maxSizeInFlight"]
                    if msif < 48:
                        read_ms *= 1.0 + 0.10 * math.log2(48.0 / msif)
                    conns = config["spark.shuffle.io.numConnectionsPerPeer"]
                    read_ms *= 1.0 - 0.02 * min(conns - 1, 3)

                # memory pressure: spill / GC / OOM
                need = sp.mem_factor * max(per_task_in, per_task_out)
                ratio = need / exec_mem_per_task
                # baseline GC scales with heap size: over-sized executors
                # pay longer collection pauses
                gc_ms = cpu_ms * (0.03 + 0.008 * config["spark.executor.memory"])
                mult, spill_mb = 1.0, 0.0
                if ratio > OOM_RATIO:
                    feasible = False
                    mult = 1.0 + 0.5 * config["spark.task.maxFailures"]
                elif ratio > 1.0:
                    spill_pen = 0.5 * (ratio - 1.0)
                    if config["spark.shuffle.spill.compress"]:
                        spill_pen *= 0.8
                    mult = 1.0 + min(spill_pen, 3.0)
                    spill_mb = max(0.0, need - exec_mem_per_task) * n_tasks
                    gc_ms += 0.15 * cpu_ms * min(ratio - 1.0, 2.0)

                task_s = max((cpu_ms + io_ms + read_ms + gc_ms) / 1000.0 * mult, MIN_TASK_S)
                task_s += TASK_LAUNCH_S
                waves = math.ceil(n_tasks / slots)
                # straggler tail worsens with fleet size: more executors →
                # higher odds a slow node gates the wave
                skew_tail = (
                    profile.skew
                    * (1.0 + inst / 500.0)
                    * (0.4 if config["spark.speculation"] else 1.0)
                )
                stage_s = waves * task_s * (1.0 + skew_tail) + waves * WAVE_OVERHEAD_S
                if config["spark.speculation"]:
                    stage_s *= 1.02  # speculative duplicates burn a little CPU
                stage_s += 0.05 * config["spark.locality.wait"] * min(waves, 5)
                if config["spark.network.timeout"] < 90 and inst > 300:
                    stage_s *= 1.03  # fetch-retry churn on large clusters
                if config["spark.scheduler.mode"] == "FAIR":
                    stage_s *= 1.01
                # negligible-but-nonzero knobs (keep fANOVA signal ordered)
                stage_s *= 1.0 + 0.002 * abs(config["spark.broadcast.blockSize"] - 4) / 12.0
                stage_s *= 1.0 + 0.002 * abs(config["spark.storage.memoryMapThreshold"] - 2) / 8.0
                if n_tasks <= config["spark.shuffle.sort.bypassMergeThreshold"] and sp.is_shuffle_read:
                    stage_s *= 0.995
                bj = config["spark.sql.autoBroadcastJoinThreshold"]
                if profile.sql and "join" in sp.ops:
                    stage_s *= 1.0 - 0.03 * min(math.log2(max(bj, 1) / 10.0 + 1.0), 1.0)

                total += stage_s
                shuffle_carry = write_mb if write_mb > 0 else shuffle_carry
                stage_metrics.append(
                    {
                        "n_tasks": n_tasks,
                        "duration_ms": task_s * 1000.0,
                        "cpu_ms": cpu_ms,
                        "gc_ms": gc_ms,
                        "input_mb": per_task_in,
                        "shuffle_read_mb": per_task_in if over_network else 0.0,
                        "shuffle_write_mb": per_task_out,
                        "spill_mb": spill_mb / max(n_tasks, 1),
                        "peak_mem_mb": min(need, exec_mem_per_task * min(ratio, OOM_RATIO)),
                        "ops": sp.ops,
                    }
                )
            if not feasible:
                break  # job aborts after task failures exhaust retries
        return total, feasible, stage_metrics
