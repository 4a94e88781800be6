"""OnlineTune controller (§3.1): the paper's tuner end to end.

Orchestrates one tuning task: initial design (Sobol low-discrepancy
samples, or meta-learned warm-start configs when a fitted
:class:`repro.core.meta.MetaLearner` is supplied), the per-iteration
configuration generator (Algorithm 2), the stopping criterion (EI below
a threshold, or budget exhausted → keep serving the best-found config)
and the restarting criterion (continuous degradation between expected
and actual results → resume tuning).

Ablation flags (``use_subspace`` / ``use_agd`` / ``use_safe``) switch
the §4 techniques individually; the §6.5 experiments use them.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.base import Capabilities, Tuner, YES
from repro.core.bo import append_datasize, datasize_feature
from repro.core.config_space import ConfigSpace
from repro.core.generator import ConfigGenerator
from repro.core.meta import MetaLearner
from repro.core.objective import ExecResult, TuningProblem, resource

#: §3.3 stop: tuning stops once the last EI falls below EI_STOP_REL × 1%
#: of the incumbent's objective, i.e. below 0.1% of it
EI_STOP_REL = 0.10
#: §3.3 restart: this many consecutive runs worse than 1.5× the expected
#: objective resume tuning
DEGRADATION_PATIENCE = 3


class OnlineTuner(Tuner):
    """The paper's framework ("Ours" in every experiment)."""

    name = "Ours"
    capabilities = Capabilities(
        general_obj=YES, constraints=YES, noer=YES,
        safety=YES, adaptive_space=YES, meta_learn=YES,
    )
    n_init = 3  # initial design size

    def __init__(
        self,
        space: ConfigSpace,
        problem: TuningProblem,
        *,
        seed: int = 0,
        use_subspace: bool = True,
        use_agd: bool = True,
        use_safe: bool = True,
        use_meta: bool = True,
        meta_learner: MetaLearner | None = None,
        target_meta: np.ndarray | None = None,
        reference_config: dict | None = None,
    ):
        super().__init__(space, problem, seed=seed)
        self.stopped = False
        self._degradations = 0
        self._expected: dict[int, float] = {}  # iteration → predicted objective
        factory = None
        if use_meta and meta_learner is not None and target_meta is not None:
            factory = meta_learner.ensemble_factory(target_meta)
        self.generator = ConfigGenerator(
            space, problem, seed=seed,
            use_subspace=use_subspace, use_agd=use_agd, use_safe=use_safe,
            meta_surrogate_factory=factory,
        )
        if use_meta and meta_learner is not None and target_meta is not None:
            self._init_configs = meta_learner.warm_start_configs(target_meta, k=self.n_init)
        elif reference_config is not None:
            # online production setting: the pre-tuning (manual/default)
            # configuration is evaluated first — it is the known-safe
            # anchor the safe region grows from, then low-discrepancy
            # samples widen the design
            self._init_configs = [space.clip(reference_config)] + space.sample_sobol(
                self.n_init - 1, seed=seed
            )
        else:
            self._init_configs = space.sample_sobol(self.n_init, seed=seed)
        if use_safe:
            self._init_configs = [self._repair(c) for c in self._init_configs]

    def _repair(self, config: dict) -> dict:
        """White-box resource constraints are checkable *before* running
        a config — never launch an initial design point that provably
        violates them; scale the resource knobs down instead."""
        thresholds = self.problem.thresholds("resource")
        if not thresholds:
            return config
        rmax = min(thresholds)
        config = dict(config)
        for _ in range(64):
            if resource(config) <= rmax:
                break
            inst = config["spark.executor.instances"]
            if inst > 1:
                config["spark.executor.instances"] = max(1, int(inst * 0.7))
            elif config["spark.executor.memory"] > 1:
                config["spark.executor.memory"] = max(
                    1, config["spark.executor.memory"] // 2
                )
            else:
                break
        return self.space.clip(config)

    # -- Tuner protocol -----------------------------------------------

    def suggest(self) -> dict:
        it = len(self.history)
        if self.stopped:
            return self.best_config()
        if it < self.n_init:
            return self._init_configs[it]
        config = self.generator.suggest(self.history)
        # record the surrogate's expectation for degradation detection
        best = self.history.best()
        if best is not None:
            self._expected[it] = min(
                float(best.objective), self._predict_objective(config)
            )
        return config

    def observe(self, config: dict, result: ExecResult) -> None:
        prev_best = self.history.best()
        obs = self.history.add(config, result)
        improved = (
            obs.feasible
            and (prev_best is None or obs.objective < prev_best.objective)
        )
        self.generator.subspace.record(improved)
        self._check_stopping(obs)

    # -- stopping & restarting (§3.3) ----------------------------------

    def _predict_objective(self, config: dict) -> float:
        """``config``'s objective under the surrogate the generator fitted
        for this suggest."""
        u = self.space.to_unit(config)[None, :]
        ds = datasize_feature(self.history.observations[-1].result.datasize_mb)
        mu, _ = self.generator.gp_f.predict(append_datasize(u, ds))
        return float(mu[0])

    def _check_stopping(self, obs) -> None:
        it = len(self.history)
        if it <= self.n_init:
            return
        best = self.history.best()
        if best is None:
            return
        # stop: expected improvement fell below 0.1% of the incumbent
        scale = abs(best.objective) or 1.0
        if np.isfinite(self.generator.last_ei) and self.generator.last_ei < EI_STOP_REL * scale * 0.01:
            self.stopped = True
        # restart: actual results keep degrading vs expectation
        expected = self._expected.get(it - 1)
        if expected is not None and obs.objective > expected * 1.5:
            self._degradations += 1
        else:
            self._degradations = 0
        if self._degradations >= DEGRADATION_PATIENCE:
            self.stopped = False  # resume tuning (meta-knowledge retained)
            self._degradations = 0
