"""DAC (Yu et al., ASPLOS 2018): datasize-aware auto-tuning.

DAC builds *hierarchical modelling trees* (boosted regression trees
over configuration + datasize inputs) and searches them with a genetic
algorithm. Like RFHOC it is an offline, runtime-oriented method
(Table 1: all ✗), but it is datasize-aware: the model input includes
the run's input size, so we append the datasize feature exactly as the
paper's mixed-kernel GP does.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.base import Capabilities, Tuner
from repro.baselines.ga import ga_minimize
from repro.core.bo import datasize_feature
from repro.ml.gbm import GradientBoostedRegressor


class DACTuner(Tuner):
    """Hierarchical (boosted) tree model + GA, datasize-aware."""

    name = "DAC"
    capabilities = Capabilities()
    n_warmup = 12

    def suggest(self) -> dict:
        if len(self.history) < self.n_warmup:
            return self.space.sample_random(1, self.rng)[0]
        X = self.history.X_unit(with_datasize=True)
        y = self.history.objectives()
        model = GradientBoostedRegressor(n_estimators=60, max_depth=4, seed=self.seed).fit(X, y)
        ds = datasize_feature(self.history.observations[-1].result.datasize_mb)

        def fitness(U: np.ndarray) -> np.ndarray:
            Xu = np.concatenate([U, np.full((len(U), 1), ds)], axis=1)
            return model.predict(Xu)

        return ga_minimize(self.space, fitness, rng=self.rng)
