"""Unit tests for the generalized objective (Eq. 1) and constraints."""
import numpy as np
import pytest

from repro.core.config_space import ConfigSpace
from repro.core.objective import (
    Constraint, ExecResult, TuningProblem, execution_cost, objective, resource,
)


@pytest.fixture(scope="module")
def cfg():
    return ConfigSpace().default_config()


class TestResource:
    def test_formula(self, cfg):
        c = dict(cfg)
        c.update({
            "spark.executor.instances": 10, "spark.executor.cores": 4,
            "spark.executor.memory": 8, "spark.executor.memoryOverhead": 1024,
            "spark.driver.cores": 2, "spark.driver.memory": 4,
            "spark.memory.offHeap.enabled": False,
        })
        expect = (10 * 4 + 2) + 0.25 * (10 * (8 + 1.0) + 4)
        assert resource(c) == pytest.approx(expect)

    def test_offheap_charged_when_enabled(self, cfg):
        on = dict(cfg, **{"spark.memory.offHeap.enabled": True, "spark.memory.offHeap.size": 4})
        off = dict(cfg, **{"spark.memory.offHeap.enabled": False})
        assert resource(on) > resource(off)

    def test_monotone_in_instances(self, cfg):
        small = dict(cfg, **{"spark.executor.instances": 5})
        big = dict(cfg, **{"spark.executor.instances": 50})
        assert resource(big) > resource(small)

    def test_columns_match_scalar(self):
        # R over decoded pool columns equals R of each decoded row, bit for bit
        space = ConfigSpace()
        U = np.random.default_rng(0).random((500, space.dim))
        expect = [resource(space.from_unit(u)) for u in U]
        assert resource(space.columns(U)).tolist() == expect


class TestObjective:
    def test_beta_one_is_runtime(self, cfg):
        assert objective(123.0, cfg, 1.0) == pytest.approx(123.0)

    def test_beta_zero_is_resource(self, cfg):
        assert objective(123.0, cfg, 0.0) == pytest.approx(resource(cfg))

    def test_beta_half_is_sqrt_cost(self, cfg):
        f = objective(100.0, cfg, 0.5)
        assert f**2 == pytest.approx(execution_cost(100.0, cfg))

    def test_invalid_beta(self, cfg):
        with pytest.raises(ValueError):
            objective(1.0, cfg, 1.5)

    def test_execution_cost_product(self, cfg):
        assert execution_cost(10.0, cfg) == pytest.approx(10.0 * resource(cfg))

    def test_beta_tendency(self, cfg):
        # a faster-but-bigger config: wins at beta→1, loses at beta→0
        slow_small = dict(cfg, **{"spark.executor.instances": 2})
        fast_big = dict(cfg, **{"spark.executor.instances": 100})
        assert objective(1000.0, slow_small, 1.0) > objective(100.0, fast_big, 1.0)
        assert objective(1000.0, slow_small, 0.0) < objective(100.0, fast_big, 0.0)


class TestConstraints:
    def test_runtime_constraint(self, cfg):
        c = Constraint("runtime", 100.0)
        ok = ExecResult(runtime_s=90, mem_gbh=1, cpu_coreh=1)
        bad = ExecResult(runtime_s=110, mem_gbh=1, cpu_coreh=1)
        assert c.satisfied(ok, cfg) and not c.satisfied(bad, cfg)

    def test_runtime_constraint_failed_run(self, cfg):
        c = Constraint("runtime", 100.0)
        oom = ExecResult(runtime_s=10, mem_gbh=1, cpu_coreh=1, feasible=False)
        assert not c.satisfied(oom, cfg)

    def test_resource_constraint(self, cfg):
        r = resource(cfg)
        res = ExecResult(runtime_s=1, mem_gbh=1, cpu_coreh=1)
        assert Constraint("resource", r + 1).satisfied(res, cfg)
        assert not Constraint("resource", r - 1).satisfied(res, cfg)

    def test_unknown_metric_raises(self, cfg):
        res = ExecResult(runtime_s=1, mem_gbh=1, cpu_coreh=1)
        with pytest.raises(ValueError):
            Constraint("latency", 1.0).satisfied(res, cfg)

    def test_problem_feasibility(self, cfg):
        prob = TuningProblem(beta=0.5, constraints=(Constraint("runtime", 50.0),))
        ok = ExecResult(runtime_s=40, mem_gbh=1, cpu_coreh=1)
        bad = ExecResult(runtime_s=60, mem_gbh=1, cpu_coreh=1)
        assert prob.feasible(ok, cfg) and not prob.feasible(bad, cfg)

    def test_problem_thresholds(self):
        prob = TuningProblem(constraints=(
            Constraint("runtime", 50.0), Constraint("resource", 9.0), Constraint("runtime", 70.0),
        ))
        assert prob.thresholds("runtime") == [50.0, 70.0]
        assert prob.thresholds("resource") == [9.0]

    def test_problem_value(self, cfg):
        prob = TuningProblem(beta=1.0)
        res = ExecResult(runtime_s=42.0, mem_gbh=1, cpu_coreh=1)
        assert prob.value(res, cfg) == pytest.approx(42.0)
