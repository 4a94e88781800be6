"""Online-tuning harness: tuners × simulated periodic executions.

``SimEvaluator`` plays the role of the data platform in Figure 1: each
``evaluate`` call is one periodic job execution with the suggested
configuration, returning the metrics the OnlineTune controller stores.
Data sizes drift per iteration (lognormal around the profile's base,
optionally with a periodic daily component), exercising the
datasize-aware surrogate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.base import Tuner
from repro.core.bo import RunHistory
from repro.core.config_space import ConfigSpace
from repro.core.objective import Constraint, ExecResult, resource
from repro.simcluster.profile import WorkloadProfile
from repro.simcluster.simulator import ClusterSimulator


@dataclass
class SimEvaluator:
    """One tuning task's online execution channel."""

    profile: WorkloadProfile
    simulator: ClusterSimulator
    seed: int = 0
    datasize_drift: float = 0.10     # lognormal sigma of per-run size
    periodic_amplitude: float = 0.0  # optional sinusoidal daily component
    n_evals: int = field(default=0, init=False)

    def datasize(self, iteration: int) -> float:
        rng = np.random.default_rng((self.seed, iteration, 7))
        size = self.profile.base_datasize_mb * float(
            rng.lognormal(0.0, self.datasize_drift)
        )
        if self.periodic_amplitude:
            size *= 1.0 + self.periodic_amplitude * math.sin(
                2.0 * math.pi * iteration / 24.0
            )
        return size

    def evaluate(self, config: dict, iteration: int) -> ExecResult:
        self.n_evals += 1
        return self.simulator.run(
            self.profile,
            config,
            datasize_mb=self.datasize(iteration),
            seed=hash((self.seed, iteration)) & 0x7FFFFFFF,
        )


def default_constraints(
    space: ConfigSpace,
    profile: WorkloadProfile,
    simulator: ClusterSimulator,
    reference: dict,
    *,
    factor: float = 2.0,
) -> tuple[Constraint, ...]:
    """The paper's production setting: constraints are ``factor``× the
    metrics of the reference (manual/default) configuration."""
    ref = simulator.run(profile, reference, seed=123)
    return (
        Constraint("runtime", factor * ref.runtime_s),
        Constraint("resource", factor * resource(reference)),
    )


def run_tuning(
    tuner: Tuner, evaluator: SimEvaluator, budget: int
) -> RunHistory:
    """Algorithm 1's outer loop against the simulated platform."""
    for it in range(budget):
        config = tuner.suggest()
        result = evaluator.evaluate(config, it)
        tuner.observe(config, result)
    return tuner.history

