"""Table 3 — tuning gains and overheads on the production population.

The paper tunes ~25K in-production tasks for 20 iterations and reports
average cost reduction of (a) *under-tuning* (metrics averaged over the
20 tuning executions) and (b) *post-tuning* (the best-found
configuration applied thereafter), both relative to *pre-tuning*
(manual configuration), for memory usage, CPU usage and runtime.

Substitution (DESIGN.md): the population is synthetic
(:func:`repro.simcluster.profile.production_population`), default
N=40 here (configurable) — the statistics are population averages, so
shape is carried by the family/size/manual-config mixture, not N.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config_space import ConfigSpace
from repro.core.controller import OnlineTuner
from repro.core.objective import TuningProblem
from repro.experiments.harness import SimEvaluator, default_constraints, run_tuning
from repro.simcluster import ClusterSimulator
from repro.simcluster.profile import production_population

#: Paper Table 3 (%, negative = increase).
PAPER_TABLE3 = {
    "memory": {"under": 2.28, "post": 57.00},
    "cpu": {"under": -5.82, "post": 34.93},
    "runtime": {"under": 1.63, "post": 10.72},
}

#: Fig. 2 headline numbers recorded alongside (same experiment).
PAPER_AVG_REDUCTION = {"memory": 57.00, "cpu": 34.93}


@dataclass
class PopulationResult:
    reduction_under: dict[str, float]   # under-tuning vs pre-tuning, %
    reduction_post: dict[str, float]    # post-tuning vs pre-tuning, %
    per_task_post: dict[str, np.ndarray]
    objective_curve: np.ndarray         # mean best-objective reduction/iter


def run(*, n_tasks: int = 40, budget: int = 20, seed: int = 0) -> PopulationResult:
    space = ConfigSpace()
    sim = ClusterSimulator()
    population = production_population(n_tasks, seed=seed)
    under = {"memory": [], "cpu": [], "runtime": []}
    post = {"memory": [], "cpu": [], "runtime": []}
    curves = []
    for ti, (profile, manual_over) in enumerate(population):
        manual = space.clip(space.default_config() | manual_over)
        constraints = default_constraints(space, profile, sim, manual)
        problem = TuningProblem(0.5, constraints)
        pre = sim.run(profile, manual, seed=seed + ti)
        tuner = OnlineTuner(space, problem, seed=seed + ti, use_meta=False, reference_config=manual)
        evaluator = SimEvaluator(profile, sim, seed=seed + ti)
        history = run_tuning(tuner, evaluator, budget)
        best = history.best()
        # post-tuning: best config applied to a fresh periodic execution
        post_run = sim.run(profile, best.config, seed=seed + ti + 10_000)
        for key, get in (
            ("memory", lambda r: r.mem_gbh),
            ("cpu", lambda r: r.cpu_coreh),
            ("runtime", lambda r: r.runtime_s),
        ):
            ref = get(pre)
            during = np.mean([get(o.result) for o in history.observations])
            under[key].append(100.0 * (ref - during) / ref)
            post[key].append(100.0 * (ref - get(post_run)) / ref)
        # best-objective-so-far curve, as reduction vs pre (Fig. 2c shape)
        pre_obj = problem.value(pre, manual)
        objs = [o.objective if o.feasible else np.inf for o in history.observations]
        best_so_far = np.minimum.accumulate(objs)
        best_so_far = np.minimum(best_so_far, pre_obj)
        curves.append(100.0 * (pre_obj - best_so_far) / pre_obj)
    return PopulationResult(
        reduction_under={k: float(np.mean(v)) for k, v in under.items()},
        reduction_post={k: float(np.mean(v)) for k, v in post.items()},
        per_task_post={k: np.array(v) for k, v in post.items()},
        objective_curve=np.mean(curves, axis=0),
    )


def format_table(res: PopulationResult) -> str:
    lines = [
        f"{'Metric':<14}{'under vs pre':>14}{'post vs pre':>14}"
        f"{'paper under':>14}{'paper post':>12}",
    ]
    lines.append("-" * len(lines[0]))
    for key, label in (("memory", "Memory usage"), ("cpu", "CPU usage"), ("runtime", "Runtime")):
        p = PAPER_TABLE3[key]
        lines.append(
            f"{label:<14}{res.reduction_under[key]:>13.2f}%{res.reduction_post[key]:>13.2f}%"
            f"{p['under']:>13.2f}%{p['post']:>11.2f}%"
        )
    # Fig. 2 companions: share of tasks above the paper's thresholds
    mem = res.per_task_post["memory"]
    cpu = res.per_task_post["cpu"]
    lines.append(
        f"tasks with >50% memory reduction: {100.0 * (mem > 50).mean():.2f}% (paper 66.49%); "
        f">25% CPU reduction: {100.0 * (cpu > 25).mean():.2f}% (paper 64.70%)"
    )
    return "\n".join(lines)
