"""Tuneful (Fekry et al., KDD 2020): online BO with incremental
sensitivity analysis.

Tuneful tunes in-memory cluster computing systems online (NOER ✓) and
shrinks the search space by identifying influential parameters with
random-forest sensitivity analysis — but only after an initial batch of
executions (10–20), and the chosen sub-space is then *fixed* (Table 1:
Adaptive space △). It also reuses tuning knowledge across similar
workloads (Meta-learn ✓) via workload similarity; in this harness the
similarity store is optional and the HiBench comparisons run it cold,
matching the paper's setup.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.base import PARTIAL, YES, Capabilities, OneShotSubspaceTuner
from repro.ml.fanova import fanova_importance
from repro.ml.forest import RandomForestRegressor


class TunefulTuner(OneShotSubspaceTuner):
    """BO + one-shot RF-based significant-parameter selection."""

    name = "Tuneful"
    capabilities = Capabilities(
        noer=YES, adaptive_space=PARTIAL, meta_learn=YES
    )

    def _select_dims(self) -> list[int]:
        forest = RandomForestRegressor(n_estimators=16, max_depth=5, seed=self.seed)
        forest.fit(self.history.X_unit(), self.history.objectives())
        res = fanova_importance(
            forest, np.zeros(self.space.dim), np.ones(self.space.dim)
        )
        return list(res.ranking()[: self.top_k])
