"""Workload profiles driving the cluster simulator.

A :class:`WorkloadProfile` captures the execution shape of one periodic
Spark job: its stage DAG (input / shuffle volume and CPU cost per
stage), how iterative it is, how much it relies on RDD caching, and its
skew. Constants for the HiBench-lite families are calibrated from
profiling real PySpark runs of :mod:`repro.workloads` (see
``jobs/profile_workloads.py`` which regenerates the ratios); absolute
CPU ms/MB values are scaled so nominal runtimes land in the ranges the
paper reports (minutes for daily production jobs, tens of seconds for
hourly SQL jobs).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

#: Stage-level Spark operations, used by the event-log meta-features.
STAGE_OPS = (
    "map", "filter", "flatMap", "join", "groupBy", "sortBy", "aggregate",
    "distinct", "union", "repartition", "cache",
)


@dataclass(frozen=True)
class StageProfile:
    """One stage of the job DAG.

    ``input_frac``: MB read per MB of the job's dataset size.
    ``shuffle_frac``: shuffle-write MB per MB of the dataset.
    ``cpu_ms_per_mb``: CPU cost per MB processed on one reference core.
    ``mem_factor``: execution-memory working set per MB of per-task input.
    ``ops``: Spark operations executed (subset of :data:`STAGE_OPS`).
    ``is_shuffle_read``: stage is a reduce side — its task count follows
    the shuffle-partition parameters rather than the input block count.
    """

    input_frac: float
    shuffle_frac: float
    cpu_ms_per_mb: float
    mem_factor: float = 1.5
    ops: tuple[str, ...] = ("map",)
    is_shuffle_read: bool = False


@dataclass(frozen=True)
class WorkloadProfile:
    """Execution shape of one periodic Spark job family."""

    name: str
    stages: tuple[StageProfile, ...]
    iterations: int = 1
    base_datasize_mb: float = 10_000.0
    cache_frac: float = 0.0     # fraction of dataset cached across iterations
    skew: float = 0.1           # straggler tail (0 = perfectly balanced)
    sql: bool = False           # Spark SQL job (affects meta-features only)
    cpu_scale: float = 1.0      # absolute CPU-cost calibration (see module doc)


def _wc(name: str, **kw) -> WorkloadProfile:
    return WorkloadProfile(name=name, **kw)


#: Calibrated profiles. Per-family shapes come from profiling the real
#: PySpark implementations at SF<=0.1 (input/shuffle byte ratios, CPU
#: shares); see tests/test_profiles.py and jobs/profile_workloads.py.
PROFILES: dict[str, WorkloadProfile] = {
    "wordcount": _wc(
        "wordcount",
        stages=(
            StageProfile(1.0, 0.12, 3.0, ops=("flatMap", "map")),
            StageProfile(0.0, 0.0, 0.6, mem_factor=2.0,
                         ops=("groupBy", "aggregate"), is_shuffle_read=True),
        ),
        cpu_scale=100,
        base_datasize_mb=30_000,
    ),
    "sort": _wc(
        "sort",
        stages=(
            StageProfile(1.0, 1.0, 1.2, ops=("map", "sortBy")),
            StageProfile(0.0, 0.0, 1.0, mem_factor=2.5,
                         ops=("sortBy",), is_shuffle_read=True),
        ),
        cpu_scale=100,
        base_datasize_mb=30_000,
        skew=0.15,
    ),
    "terasort": _wc(
        "terasort",
        stages=(
            StageProfile(1.0, 1.0, 1.5, ops=("map", "sortBy")),
            StageProfile(0.0, 0.0, 1.3, mem_factor=3.0,
                         ops=("sortBy", "repartition"), is_shuffle_read=True),
        ),
        cpu_scale=100,
        base_datasize_mb=50_000,
        skew=0.2,
    ),
    "pagerank": _wc(
        "pagerank",
        stages=(
            StageProfile(1.0, 0.6, 2.0, ops=("join", "map", "cache")),
            StageProfile(0.0, 0.0, 1.2, mem_factor=2.0,
                         ops=("groupBy", "aggregate"), is_shuffle_read=True),
        ),
        cpu_scale=100,
        iterations=8,
        cache_frac=0.8,
        base_datasize_mb=24_000,
    ),
    "kmeans": _wc(
        "kmeans",
        stages=(
            StageProfile(1.0, 0.02, 6.0, ops=("map", "cache")),
            StageProfile(0.0, 0.0, 0.3, ops=("aggregate",), is_shuffle_read=True),
        ),
        cpu_scale=25,
        iterations=10,
        cache_frac=1.0,
        base_datasize_mb=48_000,
        skew=0.05,
    ),
    "bayes": _wc(
        "bayes",
        stages=(
            StageProfile(1.0, 0.25, 4.0, ops=("flatMap", "map")),
            StageProfile(0.0, 0.0, 0.8, mem_factor=2.0,
                         ops=("groupBy", "aggregate"), is_shuffle_read=True),
        ),
        cpu_scale=50,
        base_datasize_mb=15_000,
    ),
    "nweight": _wc(
        "nweight",
        stages=(
            StageProfile(1.0, 0.9, 2.5, ops=("join", "map", "cache")),
            StageProfile(0.0, 0.0, 1.5, mem_factor=2.5,
                         ops=("groupBy", "aggregate"), is_shuffle_read=True),
        ),
        cpu_scale=100,
        iterations=3,
        cache_frac=0.6,
        base_datasize_mb=6_000,
        skew=0.25,
    ),
    "lr": _wc(
        "lr",
        stages=(
            StageProfile(1.0, 0.01, 7.0, ops=("map", "cache")),
            StageProfile(0.0, 0.0, 0.2, ops=("aggregate",), is_shuffle_read=True),
        ),
        cpu_scale=25,
        iterations=12,
        cache_frac=1.0,
        base_datasize_mb=40_000,
        skew=0.05,
    ),
    "svd": _wc(
        "svd",
        stages=(
            StageProfile(1.0, 0.05, 8.0, ops=("map", "cache")),
            StageProfile(0.0, 0.0, 0.4, ops=("aggregate",), is_shuffle_read=True),
        ),
        cpu_scale=30,
        iterations=6,
        cache_frac=1.0,
        base_datasize_mb=36_000,
        skew=0.05,
    ),
    # --- Spark SQL benchmark-style tasks (hourly, small) --------------
    "sql_data_selection": _wc(
        "sql_data_selection",
        stages=(
            StageProfile(1.0, 0.05, 1.0, ops=("filter", "map")),
            StageProfile(0.0, 0.0, 0.3, ops=("aggregate",), is_shuffle_read=True),
        ),
        cpu_scale=300,
        base_datasize_mb=800,
        sql=True,
    ),
    "sql_skew_detection": _wc(
        "sql_skew_detection",
        stages=(
            StageProfile(1.0, 0.3, 1.5, ops=("map", "groupBy")),
            StageProfile(0.0, 0.0, 0.8, mem_factor=2.5,
                         ops=("groupBy", "aggregate", "sortBy"), is_shuffle_read=True),
        ),
        cpu_scale=300,
        base_datasize_mb=2_500,
        skew=0.5,
        sql=True,
    ),
    "sql_feature_calculation": _wc(
        "sql_feature_calculation",
        stages=(
            StageProfile(1.0, 0.2, 2.5, ops=("join", "map")),
            StageProfile(0.0, 0.0, 1.0, ops=("groupBy", "aggregate"), is_shuffle_read=True),
        ),
        cpu_scale=300,
        base_datasize_mb=1_500,
        sql=True,
    ),
    "sql_data_preprocessing": _wc(
        "sql_data_preprocessing",
        stages=(
            StageProfile(1.0, 0.15, 1.2, ops=("filter", "map", "distinct")),
            StageProfile(0.0, 0.0, 0.5, ops=("distinct", "aggregate"), is_shuffle_read=True),
        ),
        cpu_scale=300,
        base_datasize_mb=600,
        sql=True,
    ),
    # --- production (daily) families used in Table 2/3 ----------------
    "feature_extraction": _wc(
        "feature_extraction",
        stages=(
            StageProfile(1.0, 0.6, 2.0, ops=("flatMap", "map", "join")),
            StageProfile(0.0, 0.35, 2.5, mem_factor=4.0,
                         ops=("join", "groupBy", "aggregate"), is_shuffle_read=True),
            StageProfile(0.0, 0.0, 1.2, mem_factor=3.0,
                         ops=("groupBy", "aggregate"), is_shuffle_read=True),
        ),
        cpu_scale=1000,
        base_datasize_mb=120_000,
        skew=0.2,
    ),
    "user_traffic": _wc(
        "user_traffic",
        stages=(
            StageProfile(1.0, 0.8, 1.8, ops=("map", "join", "groupBy")),
            StageProfile(0.0, 0.4, 2.0, mem_factor=4.0,
                         ops=("join", "groupBy", "aggregate"), is_shuffle_read=True),
            StageProfile(0.0, 0.0, 1.5, mem_factor=3.0,
                         ops=("groupBy", "aggregate", "sortBy"), is_shuffle_read=True),
        ),
        cpu_scale=1000,
        base_datasize_mb=150_000,
        skew=0.3,
    ),
    "dau_analysis": _wc(
        "dau_analysis",
        stages=(
            StageProfile(1.0, 0.5, 1.4, ops=("filter", "map", "distinct")),
            StageProfile(0.0, 0.2, 1.2, mem_factor=3.5,
                         ops=("distinct", "groupBy"), is_shuffle_read=True),
            StageProfile(0.0, 0.0, 0.9, mem_factor=3.0,
                         ops=("distinct", "aggregate"), is_shuffle_read=True),
        ),
        cpu_scale=1000,
        base_datasize_mb=60_000,
    ),
    "log_processing": _wc(
        "log_processing",
        stages=(
            StageProfile(1.0, 0.7, 1.8, ops=("flatMap", "filter", "map")),
            StageProfile(0.0, 0.3, 1.6, mem_factor=4.0,
                         ops=("join", "groupBy"), is_shuffle_read=True),
            StageProfile(0.0, 0.0, 1.1, mem_factor=3.0,
                         ops=("groupBy", "aggregate"), is_shuffle_read=True),
        ),
        cpu_scale=1000,
        base_datasize_mb=200_000,
        skew=0.25,
    ),
}


def get_profile(name: str) -> WorkloadProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown workload profile {name!r}; known: {sorted(PROFILES)}")


def scaled(profile: WorkloadProfile, datasize_mb: float) -> WorkloadProfile:
    """The same job shape at a different dataset size."""
    return replace(profile, base_datasize_mb=datasize_mb)


def production_population(
    n: int, *, seed: int = 0
) -> list[tuple[WorkloadProfile, dict]]:
    """Synthetic "25K in-production tasks" population (Table 3 substrate).

    Each entry is ``(profile, manual_config)``: a workload family with a
    jittered size and an over-provisioned manually-tuned configuration —
    matching the paper's observation that engineers over-allocate
    resources (their Table 2 manual rows use hundreds of 8–16 GB
    executors). Only config keys that differ from defaults are set;
    callers merge over ``ConfigSpace.default_config()``.
    """
    rng = np.random.default_rng(seed)
    fams = [
        "feature_extraction", "user_traffic", "dau_analysis", "log_processing",
        "wordcount", "sort", "bayes", "pagerank",
        "sql_data_selection", "sql_skew_detection",
        "sql_feature_calculation", "sql_data_preprocessing",
    ]
    out = []
    for i in range(n):
        fam = fams[int(rng.integers(len(fams)))]
        p = PROFILES[fam]
        size = p.base_datasize_mb * float(rng.lognormal(0.0, 0.5))
        prof = replace(p, name=f"{fam}#{i}", base_datasize_mb=size)
        # engineers provision ~1.5–4 slots per input block and generous
        # memory — over-provisioned, but proportionate to the data
        blocks = max(size / 128.0, 1.0)
        cores = int(rng.integers(2, 5 if not p.sql else 7))
        over = float(rng.uniform(1.5, 4.0))
        inst = int(np.clip(blocks * over / cores, 2 if p.sql else 20, 700))
        manual = {
            "spark.executor.instances": inst,
            "spark.executor.cores": cores,
            "spark.executor.memory": int(rng.choice([4, 6, 8, 16, 20]))
            if p.sql
            else int(rng.choice([8, 8, 16, 16, 32])),
        }
        out.append((prof, manual))
    return out
