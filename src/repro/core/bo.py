"""Run history of one tuning task.

:class:`RunHistory` is the repository's per-task view: evaluated
configurations, their execution results, objective values and
feasibility. It vectorizes itself for surrogate fitting (optionally
appending the datasize feature used by the mixed kernel, Eq. 4).
Algorithm 1's suggest → evaluate → observe loop is
:func:`repro.experiments.harness.run_tuning`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.config_space import ConfigSpace
from repro.core.objective import ExecResult, TuningProblem


def datasize_feature(datasize_mb: float) -> float:
    """Log-compressed datasize input for the SE kernel factor (Eq. 4)."""
    return math.log10(max(datasize_mb, 1.0)) / 6.0


def append_datasize(U: np.ndarray, datasize: float) -> np.ndarray:
    """Rows ``U`` with the datasize feature ``datasize`` as a last column."""
    return np.concatenate([U, np.full((len(U), 1), datasize)], axis=1)


@dataclass
class Observation:
    """One online evaluation: a config and what its execution reported.

    ``unit`` is the config's unit row (:meth:`ConfigSpace.to_unit`),
    encoded once when the observation is added.
    """

    config: dict
    unit: np.ndarray
    result: ExecResult
    objective: float
    feasible: bool


@dataclass
class RunHistory:
    """Ordered observations of one tuning task."""

    space: ConfigSpace
    problem: TuningProblem
    observations: list[Observation] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.observations)

    def add(self, config: dict, result: ExecResult) -> Observation:
        obs = Observation(
            config=config,
            unit=self.space.to_unit(config),
            result=result,
            objective=self.problem.value(result, config),
            feasible=self.problem.feasible(result, config),
        )
        self.observations.append(obs)
        return obs

    def best(self) -> Observation | None:
        """Incumbent: lowest objective (feasible preferred)."""
        cands = [o for o in self.observations if o.feasible] or self.observations
        return min(cands, key=lambda o: o.objective) if cands else None

    def X_unit(self, *, with_datasize: bool = False) -> np.ndarray:
        X = np.array([o.unit for o in self.observations])
        if with_datasize:
            ds = np.array([[datasize_feature(o.result.datasize_mb)] for o in self.observations])
            X = np.concatenate([X, ds], axis=1)
        return X

    def objectives(self) -> np.ndarray:
        return np.array([o.objective for o in self.observations])

    def runtimes(self) -> np.ndarray:
        return np.array([o.result.runtime_s for o in self.observations])

    def penalized_objectives(self) -> np.ndarray:
        """Objectives with infeasible runs pushed above the feasible max —
        keeps the objective surrogate away from failure regions."""
        y = self.objectives().copy()
        feas = np.array([o.feasible for o in self.observations])
        if feas.any() and (~feas).any():
            y[~feas] = np.maximum(y[~feas], y[feas].max() * 1.5)
        return y

