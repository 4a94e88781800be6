"""LOCAT (Xin et al., SIGMOD 2022): low-overhead online BO for Spark SQL.

LOCAT identifies configuration-sensitive parameters with Spearman
correlation analysis after an initial sample batch (Table 1: Adaptive
space △ — the selection is one-shot) and models performance with a
datasize-aware Gaussian process (DAGP), so changing input sizes are
handled. Objective is runtime (NOER ✓, everything else ✗); the cost
experiments pass a cost objective through ``problem`` exactly as the
paper "modified some modules ... to support cost minimization".
"""
from __future__ import annotations

import numpy as np

from repro.baselines.base import PARTIAL, YES, Capabilities, OneShotSubspaceTuner


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation (Pearson on ranks; ties share ranks)."""
    def rank(v: np.ndarray) -> np.ndarray:
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(len(v), dtype=np.float64)
        # average ranks over ties
        for val in np.unique(v):
            m = v == val
            r[m] = r[m].mean()
        return r

    ra, rb = rank(np.asarray(a, float)), rank(np.asarray(b, float))
    sa, sb = ra.std(), rb.std()
    if sa == 0 or sb == 0:
        return 0.0
    return float(((ra - ra.mean()) * (rb - rb.mean())).mean() / (sa * sb))


class LOCATTuner(OneShotSubspaceTuner):
    """Spearman-selected important parameters + datasize-aware GP."""

    name = "LOCAT"
    capabilities = Capabilities(noer=YES, adaptive_space=PARTIAL)
    datasize_aware = True

    def _select_dims(self) -> list[int]:
        X = self.history.X_unit()
        y = self.history.objectives()
        scores = np.array([abs(spearman(X[:, i], y)) for i in range(self.space.dim)])
        return list(np.argsort(-scores, kind="stable")[: self.top_k])
