"""Table 2 — manual vs tuned configurations on eight production tasks.

Four daily Spark jobs and four hourly Spark SQL jobs (advertisement
business), each with the paper's manual executor settings, tuned for
execution cost (β=0.5) under constraints of 2× the manual metrics with
a 20-iteration budget. Reported per task: memory GB·h, CPU core·h,
runtime, execution cost, the executor parameters, and the iteration at
which the best configuration was found — plus the average-reduction
row the paper prints last.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.config_space import ConfigSpace
from repro.core.controller import OnlineTuner
from repro.core.objective import TuningProblem, execution_cost
from repro.experiments.harness import SimEvaluator, default_constraints, run_tuning
from repro.simcluster import ClusterSimulator, get_profile

#: (display name, profile, manual instances/cores/memory GB) — manual
#: executor settings transcribed from the paper's Table 2.
TASKS = (
    ("Spark: Feature Extraction", "feature_extraction", 300, 2, 8),
    ("Spark: User-Traffic Distrib.", "user_traffic", 256, 2, 8),
    ("Spark: DAU Analysis", "dau_analysis", 500, 4, 16),
    ("Spark: Log Processing", "log_processing", 656, 4, 9),
    ("Spark SQL: Data Selection", "sql_data_selection", 16, 6, 6),
    ("Spark SQL: Skew Detection", "sql_skew_detection", 20, 2, 20),
    ("Spark SQL: Feature Calculation", "sql_feature_calculation", 3, 2, 1),
    ("Spark SQL: Data Preprocessing", "sql_data_preprocessing", 3, 2, 6),
)

#: Paper-reported average reductions over the 8 tasks (for EXPERIMENTS.md).
PAPER_AVG_REDUCTION = {"memory": 76.52, "cpu": 56.29, "runtime": 17.58, "cost": 62.22}


@dataclass
class TaskRow:
    task: str
    method: str
    mem_gbh: float
    cpu_coreh: float
    runtime_s: float
    cost: float
    instances: int
    cores: int
    memory_gb: int
    iteration: int | None


def _manual_config(space: ConfigSpace, inst: int, cores: int, mem: int) -> dict:
    return space.clip(
        space.default_config()
        | {
            "spark.executor.instances": inst,
            "spark.executor.cores": cores,
            "spark.executor.memory": mem,
        }
    )


def run(*, budget: int = 20, seed: int = 0) -> list[TaskRow]:
    space = ConfigSpace()
    sim = ClusterSimulator()
    rows: list[TaskRow] = []
    for display, prof_name, inst, cores, mem in TASKS:
        profile = get_profile(prof_name)
        manual = _manual_config(space, inst, cores, mem)
        constraints = default_constraints(space, profile, sim, manual)
        problem = TuningProblem(0.5, constraints)
        ref = sim.run(profile, manual, seed=seed + 1)
        rows.append(
            TaskRow(
                display, "Manual", ref.mem_gbh, ref.cpu_coreh, ref.runtime_s,
                execution_cost(ref.runtime_s, manual),
                inst, cores, mem, None,
            )
        )
        tuner = OnlineTuner(space, problem, seed=seed, use_meta=False, reference_config=manual)
        evaluator = SimEvaluator(profile, sim, seed=seed)
        history = run_tuning(tuner, evaluator, budget)
        best = history.best()
        best_iter = 1 + next(
            i for i, o in enumerate(history.observations) if o is best
        )
        c = best.config
        rows.append(
            TaskRow(
                display, "Ours", best.result.mem_gbh, best.result.cpu_coreh,
                best.result.runtime_s, execution_cost(best.result.runtime_s, c),
                c["spark.executor.instances"], c["spark.executor.cores"],
                c["spark.executor.memory"], best_iter,
            )
        )
    return rows


def avg_reduction(rows: list[TaskRow]) -> dict[str, float]:
    """Average % reduction (Ours vs Manual) over the tasks; negative
    values mean an increase, as in the paper's sign convention."""
    reds = {"memory": [], "cpu": [], "runtime": [], "cost": [], "iters": []}
    for i in range(0, len(rows), 2):
        man, ours = rows[i], rows[i + 1]
        reds["memory"].append(100.0 * (man.mem_gbh - ours.mem_gbh) / man.mem_gbh)
        reds["cpu"].append(100.0 * (man.cpu_coreh - ours.cpu_coreh) / man.cpu_coreh)
        reds["runtime"].append(100.0 * (man.runtime_s - ours.runtime_s) / man.runtime_s)
        reds["cost"].append(100.0 * (man.cost - ours.cost) / man.cost)
        reds["iters"].append(ours.iteration)
    return {k: sum(v) / len(v) for k, v in reds.items()}


def format_table(rows: list[TaskRow]) -> str:
    head = (
        f"{'Task':<32}{'Method':<8}{'Mem(GBh)':>11}{'CPU(ch)':>10}{'Runtime(s)':>12}"
        f"{'Exec cost':>12}{'Inst':>6}{'Cores':>6}{'Mem(GB)':>8}{'#Iter':>6}"
    )
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(
            f"{r.task:<32}{r.method:<8}{r.mem_gbh:>11.2f}{r.cpu_coreh:>10.2f}"
            f"{r.runtime_s:>12.2f}{r.cost:>12.2f}{r.instances:>6}{r.cores:>6}"
            f"{r.memory_gb:>8}{r.iteration if r.iteration else '-':>6}"
        )
    avg = avg_reduction(rows)
    lines.append(
        f"Avg reduction: memory {avg['memory']:.2f}%, CPU {avg['cpu']:.2f}%, "
        f"runtime {avg['runtime']:.2f}%, cost {avg['cost']:.2f}%, "
        f"avg #iter {avg['iters']:.2f} "
        f"(paper: {PAPER_AVG_REDUCTION['memory']}%, {PAPER_AVG_REDUCTION['cpu']}%, "
        f"{PAPER_AVG_REDUCTION['runtime']}%, {PAPER_AVG_REDUCTION['cost']}%, 9.88)"
    )
    return "\n".join(lines)
