"""Tuner protocol and capability flags (paper Table 1).

Every tuning method — the baselines here and the paper's framework in
:mod:`repro.core.controller` — implements the same online interface:
``suggest()`` returns the configuration for the next periodic
execution, ``observe(config, result)`` feeds back what that execution
reported. Capability flags are declared per class and printed by the
Table 1 experiment. :class:`OneShotSubspaceTuner` is the BO loop that
Tuneful and LOCAT share.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bo import RunHistory, append_datasize, datasize_feature
from repro.core.config_space import ConfigSpace
from repro.core.generator import propose
from repro.core.gp import GaussianProcess
from repro.core.objective import ExecResult, TuningProblem

YES, NO, PARTIAL = "yes", "no", "partial"


@dataclass(frozen=True)
class Capabilities:
    """One row of Table 1 (values: yes / no / partial)."""

    general_obj: str = NO
    constraints: str = NO
    noer: str = NO          # "No Offline Evaluation Required"
    safety: str = NO
    adaptive_space: str = NO
    meta_learn: str = NO

    def row(self) -> tuple[str, ...]:
        return (
            self.general_obj, self.constraints, self.noer,
            self.safety, self.adaptive_space, self.meta_learn,
        )


class Tuner:
    """Base online tuner: owns a run history over a config space."""

    name: str = "base"
    capabilities = Capabilities()

    def __init__(self, space: ConfigSpace, problem: TuningProblem, *, seed: int = 0):
        self.space = space
        self.problem = problem
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.history = RunHistory(space, problem)

    def suggest(self) -> dict:  # pragma: no cover - interface
        raise NotImplementedError

    def observe(self, config: dict, result: ExecResult) -> None:
        self.history.add(config, result)

    def best_config(self) -> dict:
        best = self.history.best()
        return best.config if best else self.space.default_config()


class OneShotSubspaceTuner(Tuner):
    """BO in a sub-space chosen once (Tuneful, LOCAT): a Sobol design,
    random configs until ``sa_rounds`` runs, then the ``top_k`` dims of
    :meth:`_select_dims` are fixed and each suggest maximizes EI over
    ``n_candidates`` rows that vary only them around the incumbent."""

    n_init = 3
    sa_rounds = 10      # executions before the sub-space is chosen
    top_k = 10          # parameters kept in it
    n_candidates = 1000
    datasize_aware = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._dims: list[int] | None = None  # fixed once chosen

    def _select_dims(self) -> list[int]:  # pragma: no cover - interface
        raise NotImplementedError

    def suggest(self) -> dict:
        it = len(self.history)
        if it < self.n_init:
            return self.space.sample_sobol(self.n_init, seed=self.seed)[it]
        if it < self.sa_rounds:
            return self.space.sample_random(1, self.rng)[0]
        if self._dims is None:
            self._dims = self._select_dims()
        ds = self.datasize_aware
        gp = GaussianProcess(self.space.cat_mask, has_datasize=ds).fit(
            self.history.X_unit(with_datasize=ds), self.history.penalized_objectives()
        )
        best = self.history.best()
        U = self.space.sample_unit(
            self.n_candidates, self.rng, subspace=self._dims, base=best.unit
        )
        X = U
        if ds:
            X = append_datasize(U, datasize_feature(self.history.observations[-1].result.datasize_mb))
        idx, _ = propose(X, gp, best.objective)
        return self.space.from_unit(U[idx])
