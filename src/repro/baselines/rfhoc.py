"""RFHOC (Bei et al., TPDS 2015): random forests + genetic algorithm.

RFHOC builds a random-forest performance model per application from
sampled executions and then explores the configuration space with a GA
against the model. It is an *offline* method designed for runtime
minimization (paper Table 1: every capability ✗) — run in the online
harness it must spend its early budget on model-building samples, which
is exactly the behaviour the paper observes ("30 iterations are not
sufficient" for the ML-based approaches).
"""
from __future__ import annotations

from repro.baselines.base import Capabilities, Tuner
from repro.baselines.ga import ga_minimize
from repro.ml.forest import RandomForestRegressor


class RFHOCTuner(Tuner):
    """RF performance model + GA search; pure-exploration warm-up."""

    name = "RFHOC"
    capabilities = Capabilities()
    n_warmup = 12  # executions spent purely on training samples

    def suggest(self) -> dict:
        if len(self.history) < self.n_warmup:
            return self.space.sample_random(1, self.rng)[0]
        X = self.history.X_unit()
        y = self.history.objectives()
        forest = RandomForestRegressor(n_estimators=20, max_depth=10, seed=self.seed)
        forest.fit(X, y)
        return ga_minimize(self.space, forest.predict, rng=self.rng)
