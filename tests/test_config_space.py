"""Unit tests for the 30-parameter Spark configuration space and the
Sobol' low-discrepancy sampler."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config_space import (
    SPARK_PARAMS, ConfigSpace, Param, hibench_space, sobol,
)


@pytest.fixture(scope="module")
def space():
    return ConfigSpace()


class TestParams:
    def test_thirty_parameters(self, space):
        assert space.dim == 30  # paper §2.1: 30 performance-critical params

    def test_names_unique(self, space):
        assert len(set(space.names)) == 30

    def test_defaults_within_ranges(self):
        for p in SPARK_PARAMS:
            if p.kind == "cat":
                assert p.default in p.choices
            else:
                assert p.low <= p.default <= p.high

    def test_key_params_present(self, space):
        for name in (
            "spark.executor.instances", "spark.executor.cores",
            "spark.executor.memory", "spark.memory.fraction",
            "spark.memory.storageFraction", "spark.default.parallelism",
            "spark.sql.shuffle.partitions", "spark.io.compression.codec",
            "spark.serializer",
        ):
            assert name in space.names

    def test_param_unit_roundtrip_int(self):
        p = Param("x", "int", 1, 800, log=True, default=8)
        for v in (1, 8, 100, 800):
            assert p.from_unit(p.to_unit(v)) == v

    def test_param_unit_roundtrip_cat(self):
        p = Param("c", "cat", choices=("a", "b", "c"), default="a")
        for v in p.choices:
            assert p.from_unit(p.to_unit(v)) == v

    def test_param_unit_clamps(self):
        p = Param("x", "float", 0.4, 0.9)
        assert p.from_unit(-3.0) == pytest.approx(0.4)
        assert p.from_unit(7.0) == pytest.approx(0.9)


class TestSpace:
    def test_unit_roundtrip_default(self, space):
        d = space.default_config()
        assert space.from_unit(space.to_unit(d)) == space.clip(d)

    def test_unit_vector_in_cube(self, space):
        rng = np.random.default_rng(0)
        for c in space.sample_random(20, rng):
            u = space.to_unit(c)
            assert np.all(u >= -1e-9) and np.all(u <= 1 + 1e-9)

    def test_cat_mask(self, space):
        mask = space.cat_mask
        assert mask.sum() == sum(1 for p in space.params if p.kind == "cat")
        assert mask[space.index_of("spark.serializer")]
        assert not mask[space.index_of("spark.executor.instances")]

    def test_sample_unit_respects_subspace(self, space):
        rng = np.random.default_rng(0)
        base = space.to_unit(space.clip(space.default_config() | {"spark.executor.instances": 42}))
        dims = [0, 2]
        U = space.sample_unit(10, rng, subspace=dims, base=base)
        rest = [i for i in range(space.dim) if i not in dims]
        assert np.array_equal(U[:, rest], np.tile(base[rest], (10, 1)))

    def test_sample_unit_base_defaults_to_default_config(self, space):
        U = space.sample_unit(5, np.random.default_rng(0), subspace=[1, 3])
        default = space.to_unit(space.default_config())
        assert np.array_equal(U[:, 0], np.full(5, default[0]))

    def test_sample_unit_varies_subspace(self, space):
        rng = np.random.default_rng(0)
        U = space.sample_unit(20, rng, subspace=[0])
        assert len(set(U[:, 0])) > 3

    def test_clip_snaps_to_grid(self, space):
        cfg = space.default_config() | {"spark.executor.instances": 12345}
        assert space.clip(cfg)["spark.executor.instances"] == 800

    def test_index_of(self, space):
        assert space.names[space.index_of("spark.serializer")] == "spark.serializer"

    def test_hibench_space_smaller(self):
        hb = hibench_space()
        assert hb.dim == 30
        p = hb.params[hb.index_of("spark.executor.instances")]
        assert p.high == 96

    def test_sample_sobol_configs_valid(self, space):
        for c in space.sample_sobol(8, seed=1):
            u = space.to_unit(c)
            assert np.all((u >= 0) & (u <= 1))


@pytest.mark.parametrize("make_space", [ConfigSpace, hibench_space])
class TestVectorCodec:
    """snap/columns/sample_unit against the scalar Param codec, bit for bit."""

    def test_every_grid_value(self, make_space):
        # includes the log ints whose np.log unit value differs from math.log
        sp = make_space()
        for i, p in enumerate(sp.params):
            if p.kind == "float":
                continue
            values = list(p.choices) if p.kind == "cat" else list(range(p.low, p.high + 1))
            units = [p.to_unit(v) for v in values]
            U = np.tile(sp.to_unit(sp.default_config()), (len(values), 1))
            U[:, i] = units
            assert sp.snap(U)[:, i].tolist() == units, p.name
            assert sp.columns(U)[p.name].tolist() == values, p.name

    def test_rounding_ties(self, make_space):
        # rows a few ulps around each .5 tie in value space, where np.exp
        # and math.exp can round to different grid values
        sp = make_space()
        for i, p in enumerate(sp.params):
            if p.kind == "float":
                continue
            if p.kind == "cat":
                t = (np.arange(p.n_choices - 1) + 0.5) / (p.n_choices - 1)
            else:
                f = np.log if p.log else (lambda v: v)
                t = (f(np.arange(p.low, p.high) + 0.5) - f(p.low)) / (f(p.high) - f(p.low))
            t = np.concatenate([t + d * np.spacing(t) for d in range(-8, 9)])
            U = np.tile(sp.to_unit(sp.default_config()), (len(t), 1))
            U[:, i] = t
            assert sp.columns(U)[p.name].tolist() == [p.from_unit(u) for u in t], p.name

    def test_random_rows(self, make_space):
        sp = make_space()
        U = np.random.default_rng(0).uniform(-0.1, 1.1, (2000, sp.dim))
        assert np.array_equal(sp.snap(U), [sp.to_unit(sp.from_unit(u)) for u in U])
        cols = sp.columns(U)
        for k, u in enumerate(U[:200]):
            assert {n: cols[n][k] for n in sp.names} == sp.from_unit(u)

    def test_sample_unit_is_snapped_sample_random(self, make_space):
        sp = make_space()
        S = sp.sample_unit(50, np.random.default_rng(4))
        assert np.array_equal(sp.snap(S), S)
        configs = sp.sample_random(50, np.random.default_rng(4))
        assert configs == [sp.from_unit(u) for u in S]
        base = sp.to_unit(sp.default_config())
        S = sp.sample_unit(50, np.random.default_rng(4), subspace=[0, 7, 14], base=base)
        assert np.array_equal(sp.snap(S), S)


class TestSobol:
    def test_shape_and_range(self):
        pts = sobol(64, 31)
        assert pts.shape == (64, 31)
        assert pts.min() >= 0.0 and pts.max() < 1.0

    def test_deterministic(self):
        assert np.array_equal(sobol(16, 5, seed=2), sobol(16, 5, seed=2))

    def test_seed_shifts(self):
        assert not np.array_equal(sobol(16, 5, seed=1), sobol(16, 5, seed=2))

    def test_no_duplicate_points(self):
        pts = sobol(128, 8)
        assert len(np.unique(pts, axis=0)) == 128

    def test_stratification_beats_iid_worst_case(self):
        # first dimension of a digitally-shifted Sobol' fills [0,1)
        # evenly: each of 8 bins gets exactly 16 of 128 points
        pts = sobol(128, 3, seed=0)
        counts, _ = np.histogram(pts[:, 0], bins=8, range=(0, 1))
        assert np.all(counts == 16)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=5))
    def test_any_dim_in_unit_cube(self, d, seed):
        pts = sobol(32, d, seed=seed)
        assert pts.shape == (32, d)
        assert pts.min() >= 0.0 and pts.max() < 1.0
