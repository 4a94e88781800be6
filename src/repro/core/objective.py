"""Generalized tuning objective and constraints (Eq. 1).

The paper minimizes ``f(x) = T(x)^beta * R(x)^(1-beta)`` subject to
``T(x) <= T_max`` and ``R(x) <= R_max``:

- ``beta = 1``   → runtime minimization,
- ``beta = 0.5`` → execution-cost minimization (sqrt of runtime×resource;
  "equivalent to optimizing the execution cost by ignoring the square
  root"),
- ``beta = 0``   → resource minimization.

``R(x)`` is white-box: the paper uses
``R(x) = #cpu_vcores(x) + c * #mem(x)`` computed directly from the
resource parameters; AGD (Eq. 9) differences it through the unit mapping.
"""
from __future__ import annotations

from dataclasses import dataclass, field

#: Price of 1 GB of memory relative to 1 vcore (cloud-typical ratio).
MEM_CORE_PRICE_RATIO = 0.25


@dataclass
class ExecResult:
    """What one online job execution reports back to the tuner.

    ``runtime_s`` is wall-clock; ``mem_gbh``/``cpu_coreh`` are the
    allocated-resource usage metrics the paper reports (GB-hour,
    core-hour). ``feasible`` is False when the run violated a hard limit
    (e.g. OOM) — the runtime then reflects the failure/timeout path.
    """

    runtime_s: float
    mem_gbh: float
    cpu_coreh: float
    feasible: bool = True
    datasize_mb: float = 0.0
    metrics: dict = field(default_factory=dict)


def resource(config: dict) -> float:
    """White-box resource function R(x): vcores + c * memory-GB, with
    ``c = MEM_CORE_PRICE_RATIO``.

    Counts executors (instances × cores, instances × memory) plus the
    driver. Off-heap memory is charged when enabled. ``config`` may also
    map each name to an array of values (:meth:`ConfigSpace.columns`),
    giving R of every row at once.
    """
    inst = config["spark.executor.instances"]
    cores = config["spark.executor.cores"]
    mem = config["spark.executor.memory"] + config["spark.executor.memoryOverhead"] / 1024.0
    # size × flag, not a branch on the flag, so columns work too
    off_heap = config.get("spark.memory.offHeap.size", 0) * config.get("spark.memory.offHeap.enabled", False)
    mem = mem + off_heap
    vcores = inst * cores + config["spark.driver.cores"]
    mem_gb = inst * mem + config["spark.driver.memory"]
    return vcores + MEM_CORE_PRICE_RATIO * mem_gb


def objective(runtime_s: float, config: dict, beta: float) -> float:
    """Generalized objective f(x) = T^beta * R^(1-beta)."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must be in [0, 1]")
    r = resource(config)
    return (max(runtime_s, 1e-9) ** beta) * (r ** (1.0 - beta))


def execution_cost(runtime_s: float, config: dict) -> float:
    """Execution cost = runtime × resource (f at beta=0.5, squared)."""
    return max(runtime_s, 1e-9) * resource(config)


@dataclass(frozen=True)
class Constraint:
    """Inequality requirement ``metric(x) <= threshold``.

    ``metric`` is ``"runtime"`` (black-box, surrogate-modelled) or
    ``"resource"`` (white-box, evaluated directly from the config).
    """

    metric: str
    threshold: float

    def satisfied(self, result: ExecResult, config: dict) -> bool:
        if self.metric == "runtime":
            return result.runtime_s <= self.threshold and result.feasible
        if self.metric == "resource":
            return resource(config) <= self.threshold
        raise ValueError(f"unknown constraint metric {self.metric!r}")


@dataclass
class TuningProblem:
    """A tuning task: objective tendency ``beta`` plus constraints."""

    beta: float = 0.5
    constraints: tuple[Constraint, ...] = ()

    def thresholds(self, metric: str) -> list[float]:
        """Thresholds of the constraints on ``metric``, in order."""
        return [c.threshold for c in self.constraints if c.metric == metric]

    def value(self, result: ExecResult, config: dict) -> float:
        return objective(result.runtime_s, config, self.beta)

    def feasible(self, result: ExecResult, config: dict) -> bool:
        return result.feasible and all(
            c.satisfied(result, config) for c in self.constraints
        )
