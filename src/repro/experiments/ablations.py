"""§6.4–6.5 ablation experiments.

- **safety** — fraction of feasible (constraint-satisfying) configs
  suggested with vs without the safe-region component (paper: 93.00%
  safe with, 69.67% without, averaged over the six HiBench tasks);
- **agd** — final cost with vs without approximate gradient descent
  (paper: AGD reduces cost a further 7.47% on average vs vanilla BO);
- **subspace** — full space vs fixed small space (6 most important
  params) vs the adaptive sub-space (paper Fig. 7);
- **meta ensemble** — tuning with vs without the meta-learning
  surrogate ensemble (paper Fig. 6: ≥3× fewer iterations to reach
  vanilla-BO-at-30 quality).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config_space import hibench_space
from repro.core.controller import OnlineTuner
from repro.core.meta import MetaLearner, SourceTask
from repro.core.objective import TuningProblem
from repro.experiments.harness import SimEvaluator, default_constraints, run_tuning
from repro.simcluster import ClusterSimulator, get_profile
from repro.simcluster.eventlog import meta_features

HIBENCH_TASKS = ("bayes", "kmeans", "nweight", "wordcount", "pagerank", "terasort")

PAPER = {
    "safe_pct_with": 93.00, "safe_pct_without": 69.67,
    "agd_extra_reduction": 7.47,
    "meta_speedup_iters": 3,
}


def _env():
    return hibench_space(), ClusterSimulator(capacity_cores=384, capacity_mem_gb=2048)


def _tune(space, sim, task, *, seed, budget, **tuner_kwargs):
    profile = get_profile(task)
    constraints = default_constraints(space, profile, sim, space.default_config())
    problem = TuningProblem(0.5, constraints)
    tuner = OnlineTuner(space, problem, seed=seed, use_meta=False, reference_config=space.default_config(), **tuner_kwargs)
    history = run_tuning(tuner, SimEvaluator(profile, sim, seed=seed), budget)
    return history


@dataclass
class SafetyResult:
    safe_pct_with: float
    safe_pct_without: float
    per_task: dict[str, tuple[float, float]]


def safety(*, tasks=HIBENCH_TASKS, budget: int = 30, seeds=(0, 1)) -> SafetyResult:
    space, sim = _env()
    per_task = {}
    for task in tasks:
        pct = {}
        for use_safe in (True, False):
            vals = [
                100.0
                * np.mean([o.feasible for o in _tune(
                    space, sim, task, seed=s, budget=budget, use_safe=use_safe
                ).observations])
                for s in seeds
            ]
            pct[use_safe] = float(np.mean(vals))
        per_task[task] = (pct[True], pct[False])
    w = float(np.mean([v[0] for v in per_task.values()]))
    wo = float(np.mean([v[1] for v in per_task.values()]))
    return SafetyResult(w, wo, per_task)


@dataclass
class AGDResult:
    avg_extra_reduction_pct: float        # cost drop from enabling AGD
    per_task: dict[str, tuple[float, float]]  # task → (with, without) best cost


def agd(*, tasks=HIBENCH_TASKS, budget: int = 30, seeds=(0, 1)) -> AGDResult:
    space, sim = _env()
    per_task = {}
    extras = []
    for task in tasks:
        cost = {}
        for use_agd in (True, False):
            vals = [
                _tune(space, sim, task, seed=s, budget=budget, use_agd=use_agd)
                .best().objective
                for s in seeds
            ]
            cost[use_agd] = float(np.mean(vals))
        per_task[task] = (cost[True], cost[False])
        extras.append(100.0 * (cost[False] - cost[True]) / cost[False])
    return AGDResult(float(np.mean(extras)), per_task)


@dataclass
class SubspaceResult:
    # task → {mode: best-cost reduction % vs default config}
    per_task: dict[str, dict[str, float]]


def subspace(*, tasks=("pagerank", "terasort"), budget: int = 30, seeds=(0, 1)) -> SubspaceResult:
    """Full vs fixed-small vs adaptive sub-space (paper Fig. 7)."""
    from repro.core.objective import objective as obj_fn

    space, sim = _env()
    out = {}
    for task in tasks:
        profile = get_profile(task)
        default = space.default_config()
        ref = obj_fn(sim.run(profile, default, seed=99).runtime_s, default, 0.5)
        modes = {}
        for mode in ("full", "small", "adaptive"):
            vals = []
            for s in seeds:
                if mode == "small":
                    h = subspace_fixed_small(space, sim, task, seed=s, budget=budget)
                else:
                    h = _tune(
                        space, sim, task, seed=s, budget=budget,
                        use_subspace=(mode == "adaptive"),
                    )
                vals.append(h.best().objective)
            modes[mode] = 100.0 * (ref - float(np.mean(vals))) / ref
        out[task] = modes
    return SubspaceResult(out)


def subspace_fixed_small(space, sim, task, *, seed, budget):
    """Tuning restricted to a fixed 6-parameter space (no adaptation)."""
    profile = get_profile(task)
    constraints = default_constraints(space, profile, sim, space.default_config())
    problem = TuningProblem(0.5, constraints)
    tuner = OnlineTuner(space, problem, seed=seed, use_meta=False, reference_config=space.default_config())
    mgr = tuner.generator.subspace
    mgr.k = mgr.k_min = mgr.k_max = 6  # freeze the size
    history = run_tuning(tuner, SimEvaluator(profile, sim, seed=seed), budget)
    return history


@dataclass
class MetaResult:
    # task → best-objective-so-far curves (with, without), len=budget
    curves: dict[str, tuple[np.ndarray, np.ndarray]]


def build_meta_learner(space, sim, source_tasks, *, budget: int = 25, seed: int = 0) -> MetaLearner:
    """Tune each source task and fit the similarity meta-learner."""
    sources = []
    for task in source_tasks:
        history = _tune(space, sim, task, seed=seed, budget=budget)
        feats = meta_features(history.observations[0].result)
        sources.append(SourceTask(task, feats, history))
    return MetaLearner(space, seed=seed).fit(sources)


def meta_ensemble(
    *, targets=("kmeans", "terasort"), budget: int = 30, seed: int = 0,
    source_tasks=("sort", "wordcount", "pagerank", "svd", "lr", "bayes"),
) -> MetaResult:
    space, sim = _env()
    learner = build_meta_learner(space, sim, source_tasks, seed=seed)
    curves = {}
    for task in targets:
        profile = get_profile(task)
        constraints = default_constraints(space, profile, sim, space.default_config())
        problem = TuningProblem(0.5, constraints)
        probe = sim.run(profile, space.default_config(), seed=seed)
        target_meta = meta_features(probe)
        per = {}
        for use_meta in (True, False):
            kwargs = dict(use_meta=use_meta)
            if use_meta:
                kwargs.update(meta_learner=learner, target_meta=target_meta)
            tuner = OnlineTuner(space, problem, seed=seed, **kwargs)
            h = run_tuning(tuner, SimEvaluator(profile, sim, seed=seed), budget)
            objs = [o.objective if o.feasible else np.inf for o in h.observations]
            per[use_meta] = np.minimum.accumulate(objs)
        curves[task] = (per[True], per[False])
    return MetaResult(curves)
