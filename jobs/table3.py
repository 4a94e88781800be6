"""Entrypoint: regenerate paper Table 3 (gains/overheads on the
production population; the paper's 25K tasks are substituted by a
synthetic population — see DESIGN.md).

Usage: ``python jobs/table3.py [--tasks 40] [--budget 20] [--seed 0]``.
"""
import argparse

from repro.experiments import table3

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--tasks", type=int, default=40)
    ap.add_argument("--budget", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    res = table3.run(n_tasks=args.tasks, budget=args.budget, seed=args.seed)
    print(table3.format_table(res))
    curve = ", ".join(f"{v:.1f}" for v in res.objective_curve)
    print(f"mean best-objective reduction per iteration (%): {curve}")
