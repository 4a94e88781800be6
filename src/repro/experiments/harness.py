"""Online-tuning harness: tuners × simulated periodic executions.

``SimEvaluator`` plays the role of the data platform in Figure 1: each
``evaluate`` call is one periodic job execution with the suggested
configuration, returning the metrics the OnlineTune controller stores.
Data sizes drift per iteration (lognormal around the profile's base),
exercising the datasize-aware surrogate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import Tuner
from repro.core.bo import RunHistory
from repro.core.config_space import ConfigSpace
from repro.core.objective import Constraint, ExecResult, resource
from repro.simcluster.profile import WorkloadProfile
from repro.simcluster.simulator import ClusterSimulator

DATASIZE_DRIFT = 0.10   # lognormal sigma of the per-run data size
CONSTRAINT_FACTOR = 2.0  # limits are this multiple of the reference's metrics


@dataclass
class SimEvaluator:
    """One tuning task's online execution channel."""

    profile: WorkloadProfile
    simulator: ClusterSimulator
    seed: int = 0

    def datasize(self, iteration: int) -> float:
        rng = np.random.default_rng((self.seed, iteration, 7))
        return self.profile.base_datasize_mb * float(rng.lognormal(0.0, DATASIZE_DRIFT))

    def evaluate(self, config: dict, iteration: int) -> ExecResult:
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
) -> tuple[Constraint, ...]:
    """The paper's production setting: constraints are
    ``CONSTRAINT_FACTOR``× the metrics of the reference (manual/default)
    configuration."""
    ref = simulator.run(profile, reference, seed=123)
    return (
        Constraint("runtime", CONSTRAINT_FACTOR * ref.runtime_s),
        Constraint("resource", CONSTRAINT_FACTOR * resource(reference)),
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

