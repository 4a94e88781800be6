"""Table 4 — execution cost of the top-3 warm-started configurations.

For each (target ← source) pair in the paper's Table 4 the source task
is tuned first; the meta-knowledge learner then transfers the source's
three best configurations to the target, where each is evaluated.
Reported: execution cost of the Default and Manual configurations and
of Top1/Top2/Top3 — the paper's observation to check is that the
transferred configs beat Manual in the first three trials and that the
source's best is *not always* the target's best of the three.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.config_space import hibench_space
from repro.core.controller import OnlineTuner
from repro.core.objective import TuningProblem, execution_cost
from repro.experiments.harness import SimEvaluator, default_constraints, run_tuning
from repro.simcluster import ClusterSimulator, get_profile

#: (target, source) pairs as in the paper's Table 4 (LR ← PageRank,
#: KMeans ← SVD, TeraSort ← Sort / WordCount).
PAIRS = (
    ("terasort", "sort"),
    ("terasort", "wordcount"),
    ("lr", "pagerank"),
    ("kmeans", "svd"),
)

#: Paper Table 4 costs, for EXPERIMENTS.md (absolute scales differ).
PAPER_TABLE4 = {
    ("terasort", "sort"): (844.70, 91.3, 54.51, 40.66, 43.77),
    ("terasort", "wordcount"): (835.00, 131.60, 97.48, 113.30, 104.71),
    ("lr", "pagerank"): (1431.21, 245.90, 183.35, 333.39, 214.73),
    ("kmeans", "svd"): (400.92, 232.33, 136.20, 166.41, 171.57),
}

#: "Manually tuned" HiBench settings — per-family expert configs (the
#: paper's manual rows are per-task engineer settings): shuffle-heavy
#: sorts get many mid-memory executors and matched parallelism,
#: CPU-bound iterative tasks get a compact cached deployment.
MANUAL_OVERRIDES = {
    "terasort": {
        "spark.executor.instances": 32,
        "spark.executor.cores": 4,
        "spark.executor.memory": 8,
        "spark.default.parallelism": 256,
        "spark.sql.shuffle.partitions": 256,
    },
    "lr": {
        "spark.executor.instances": 12,
        "spark.executor.cores": 4,
        "spark.executor.memory": 4,
        "spark.default.parallelism": 64,
    },
    "kmeans": {
        "spark.executor.instances": 12,
        "spark.executor.cores": 4,
        "spark.executor.memory": 4,
        "spark.default.parallelism": 64,
    },
}


@dataclass
class WarmStartRow:
    target: str
    source: str
    default: float
    manual: float
    top: tuple[float, float, float]


def _cost(sim, profile, config, seed) -> float:
    r = sim.run(profile, config, seed=seed)
    return execution_cost(r.runtime_s, config)


def run(*, source_budget: int = 30, seed: int = 0) -> list[WarmStartRow]:
    space = hibench_space()
    sim = ClusterSimulator(capacity_cores=384, capacity_mem_gb=2048)
    rows = []
    source_histories: dict[str, list[dict]] = {}
    for target_name, source_name in PAIRS:
        if source_name not in source_histories:
            profile = get_profile(source_name)
            default = space.default_config()
            constraints = default_constraints(space, profile, sim, default)
            problem = TuningProblem(0.5, constraints)
            tuner = OnlineTuner(space, problem, seed=seed, use_meta=False, reference_config=default)
            history = run_tuning(tuner, SimEvaluator(profile, sim, seed=seed), source_budget)
            ranked = sorted(
                history.observations, key=lambda o: (not o.feasible, o.objective)
            )
            source_histories[source_name] = [o.config for o in ranked[:3]]
        target = get_profile(target_name)
        default = space.default_config()
        manual = space.clip(default | MANUAL_OVERRIDES[target_name])
        tops = source_histories[source_name]
        rows.append(
            WarmStartRow(
                target_name,
                source_name,
                default=_cost(sim, target, default, seed + 1),
                manual=_cost(sim, target, manual, seed + 1),
                top=tuple(_cost(sim, target, c, seed + 1) for c in tops),
            )
        )
    return rows


def reduction_vs(rows: list[WarmStartRow]) -> dict[str, tuple[float, float]]:
    """Best-of-top-3 reduction ranges vs default and manual (%) — the
    paper quotes 66.03–95.19% vs default and 25.44–55.93% vs manual."""
    vs_def = [100.0 * (r.default - min(r.top)) / r.default for r in rows]
    vs_man = [100.0 * (r.manual - min(r.top)) / r.manual for r in rows]
    return {"default": (min(vs_def), max(vs_def)), "manual": (min(vs_man), max(vs_man))}


def format_table(rows: list[WarmStartRow]) -> str:
    head = (
        f"{'Target':<10}{'Source':<11}{'Default':>10}{'Manual':>10}"
        f"{'Top1':>10}{'Top2':>10}{'Top3':>10}"
    )
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(
            f"{r.target:<10}{r.source:<11}{r.default:>10.2f}{r.manual:>10.2f}"
            f"{r.top[0]:>10.2f}{r.top[1]:>10.2f}{r.top[2]:>10.2f}"
        )
    red = reduction_vs(rows)
    lines.append(
        f"best-of-top3 reduction: vs default {red['default'][0]:.2f}-{red['default'][1]:.2f}% "
        f"(paper 66.03-95.19%), vs manual {red['manual'][0]:.2f}-{red['manual'][1]:.2f}% "
        f"(paper 25.44-55.93%)"
    )
    return "\n".join(lines)
