import inspect
import json
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from selfnorm import experiments, mixture, processes
from selfnorm.bounds import SelfNormSample
from selfnorm.constants import DomainError
from selfnorm.experiments import (_SCREEN_SLACK, INPUT_RULES, BoundReport, ExperimentConfig,
                                  _boundary_interpolant, _chunk_layout, _hit_cells,
                                  check_supermartingale_mean,
                                  cluster_set_diagnostic, config_echo,
                                  config_from_json, crossing_frequency,
                                  growth_rate_diagnostic, lil_track,
                                  report_rows, resolve_workers,
                                  sup_moment_estimate, validate_moment_bound,
                                  validate_tail_bound)
from selfnorm.mixture import (Density, GaussianMixture, PointMasses,
                              RobbinsSiegmund, boundary, measure_from_json)
from selfnorm.processes import (Bernstein, BoundedAbove, BoundedBelow, BrownianGrid,
                                Counterexample56, Counterexample65, MvBrownianGrid,
                                Rademacher, ScaledSymmetric, TruncatedCentering,
                                WeightedIID)


def rad_cfg(**kw):
    base = dict(spec=Rademacher(), seed=123, paths=2000, horizon=200,
                checkpoints=(100, 200))
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_checkpoint_validation(self):
        with pytest.raises(DomainError):
            rad_cfg(checkpoints=(200, 100))
        with pytest.raises(DomainError):
            rad_cfg(checkpoints=(100, 300))

    def test_positive_counts(self):
        with pytest.raises(DomainError):
            rad_cfg(paths=0)

    @pytest.mark.parametrize("field, value", [
        ("paths", 10.9), ("horizon", 200.5), ("seed", 1.5), ("seed", None),
        ("paths", "2000"), ("horizon", math.inf), ("checkpoints", (2.5, 100)),
    ])
    def test_non_integral_steps_refused(self, field, value):
        # int() used to turn paths=10.9 into 10 and checkpoint 2.5 into 2
        with pytest.raises(DomainError, match=field):
            rad_cfg(**{field: value})

    @pytest.mark.parametrize("spec", ["rademacher", {"type": "rademacher"}, None,
                                      GaussianMixture(np.eye(2))],
                             ids=["str", "dict", "none", "gaussian_mixture"])
    def test_spec_not_a_variant_refused(self, spec):
        # a string used to build, and die later on `spec.steps` in the scan
        with pytest.raises(DomainError, match="spec"):
            ExperimentConfig(spec=spec, seed=1, paths=10, horizon=10)

    def test_integral_floats_are_ints(self):
        # JSON's 1e5 is a float
        cfg = rad_cfg(seed=123.0, paths=2e3, horizon=2e2, checkpoints=[1e2, 2e2])
        assert cfg == rad_cfg()
        assert all(type(v) is int for v in (cfg.seed, cfg.paths, cfg.horizon, *cfg.checkpoints))

    @pytest.mark.parametrize("key", ["checkpionts", "lambda_gird", "margin"])
    def test_unknown_key_refused(self, key):
        obj = {**config_echo(rad_cfg()), key: [100]}
        with pytest.raises(DomainError, match=key):
            config_from_json(obj)

    def test_missing_key_refused(self):
        obj = config_echo(rad_cfg())
        del obj["paths"]
        with pytest.raises(DomainError, match="paths"):
            config_from_json(obj)

    def test_chunk_layout_partitions(self):
        for paths, horizon in ((1, 1), (1000, 100), (100000, 10**6), (12345, 7)):
            layout = _chunk_layout(paths, horizon)
            assert sum(layout) == paths
            assert all(s > 0 for s in layout)

    def test_chunk_layout_is_scheduling_independent(self):
        # pure function of (paths, horizon): repeated calls agree
        assert _chunk_layout(54321, 999) == _chunk_layout(54321, 999)

    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.setenv("SELFNORM_WORKERS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(2) == 2
        with pytest.raises(DomainError):
            resolve_workers(0)

    @pytest.mark.parametrize("value", ["abc", "2.5", "0", "-1", ""])
    def test_resolve_workers_env_refused(self, monkeypatch, value):
        # abc and 2.5 raised int()'s ValueError, which named no input
        monkeypatch.setenv("SELFNORM_WORKERS", value)
        with pytest.raises(DomainError, match="SELFNORM_WORKERS must be an integer >= 1"):
            resolve_workers(None)


SPECS = (Rademacher(), ScaledSymmetric(law="pareto", shape=3.0, xm=2.0),
         BoundedBelow(m_bound=1.0, gamma=0.4, r=1.5), BrownianGrid(times=(0.5, 1.0, 2.0)),
         TruncatedCentering(base="heavy", alpha=0.5, d1=1.0, d2=2.0))
# finite: an infinite grid value is refused (see test_config_field_refused)
GRID_VALUES = st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10, 10),
                       max_size=4)


@st.composite
def configs(draw):
    horizon = draw(st.integers(1, 10**6))
    spec = draw(st.sampled_from(SPECS + (MvBrownianGrid(dim=2, t0=0.5, rho=2.0, horizon=8.0),)))
    if isinstance(spec, MvBrownianGrid):  # checkpoints are times on its grid
        points = st.floats(spec.times[0], spec.times[-1])
    else:
        points = st.integers(1, horizon)
    return ExperimentConfig(
        spec=spec, seed=draw(st.integers(0, 2**64)), paths=draw(st.integers(1, 10**7)),
        horizon=horizon, checkpoints=sorted(draw(st.sets(points, max_size=4))),
        lambda_grid=draw(GRID_VALUES), x_grid=draw(GRID_VALUES), p_list=draw(GRID_VALUES),
        statistic=draw(st.sampled_from(["auto", "lil", "uncentered", "universal"])),
        se_slack=draw(st.floats(0.0, 10.0) | st.integers(0, 5)))


@given(cfg=configs())
def test_config_json_round_trip(cfg):
    echo = config_echo(cfg)
    assert sorted(echo) == sorted(f.name for f in fields(ExperimentConfig))
    assert config_from_json(json.loads(json.dumps(echo))) == cfg


class TestSupermartingaleMean:
    def test_lambda_zero_exact(self):
        reps = check_supermartingale_mean(rad_cfg(lambda_grid=(0.0,)))
        for r in reps:
            assert (r.estimate, r.std_error) == (1.0, 0.0)
            assert r.passed

    def test_certified_grid_passes(self):
        reps = check_supermartingale_mean(rad_cfg(lambda_grid=(0.5, 1.0)))
        assert len(reps) == 4
        assert all(r.passed for r in reps)
        assert all(r.estimate - 3.0 * r.std_error <= 1.0 for r in reps)

    def test_bernstein_uses_variant_weight(self):
        cfg = ExperimentConfig(spec=Bernstein(m_bound=1.0), seed=5, paths=4000,
                               horizon=50, lambda_grid=(0.5,))
        reps = check_supermartingale_mean(cfg)
        assert all(r.passed for r in reps)

    def test_uncertified_lambda_rejected(self):
        cfg = ExperimentConfig(spec=BoundedAbove(m_bound=1.0, lambda0=0.5),
                               seed=5, paths=100, horizon=10, lambda_grid=(0.6,))
        from selfnorm.processes import CertificationError
        with pytest.raises(CertificationError):
            check_supermartingale_mean(cfg)

    def test_worker_count_does_not_change_reports(self):
        cfg = rad_cfg(paths=30000, horizon=150, checkpoints=(150,),
                      lambda_grid=(0.3, 0.8))
        a = check_supermartingale_mean(cfg, workers=1)
        b = check_supermartingale_mean(cfg, workers=4)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


class TestSection2Bounds:
    def test_tail_bound_passes(self):
        reps = validate_tail_bound(rad_cfg(paths=20000, horizon=100,
                                           checkpoints=()), y=100.0)
        assert len(reps) == 4
        assert all(r.passed for r in reps)

    def test_tail_requires_full_certification(self):
        cfg = ExperimentConfig(spec=BoundedAbove(), seed=5, paths=100, horizon=10)
        with pytest.raises(DomainError):
            validate_tail_bound(cfg, y=1.0)

    def test_tail_grid_below_validity_rejected(self):
        with pytest.raises(DomainError):
            validate_tail_bound(rad_cfg(x_grid=(1.0,)), y=1.0)

    def test_moment_bound_passes_and_reports_plugin(self):
        reps = validate_moment_bound(rad_cfg(paths=20000, horizon=100,
                                             checkpoints=()), p_list=(2.0,))
        assert len(reps) == 2
        assert all(r.passed for r in reps)
        # B = sqrt(n) = 10 deterministically, so the plug-in mean is exact
        assert all("EB=10" in r.label for r in reps)


class TestCrossing:
    def test_atom_mixture_bound_holds(self):
        F = PointMasses(atoms=((0.2, 1.0),))
        reps = crossing_frequency(rad_cfg(paths=4000, horizon=500,
                                          checkpoints=(500,)), mixture=F, c=5.0)
        assert len(reps) == 1
        assert reps[0].analytic_bound == pytest.approx(0.2)
        assert reps[0].passed

    def test_frequency_monotone_in_checkpoint(self):
        F = PointMasses(atoms=((0.2, 1.0),))
        reps = crossing_frequency(rad_cfg(paths=4000, horizon=500,
                                          checkpoints=(100, 500)), mixture=F, c=3.0)
        assert reps[0].estimate <= reps[1].estimate

    def test_large_c_small_frequency(self):
        F = PointMasses(atoms=((0.2, 1.0),))
        lo = crossing_frequency(rad_cfg(paths=2000, horizon=300,
                                        checkpoints=(300,)), mixture=F, c=3.0)
        hi = crossing_frequency(rad_cfg(paths=2000, horizon=300,
                                        checkpoints=(300,)), mixture=F, c=300.0)
        assert hi[0].estimate <= lo[0].estimate

    def test_uncertified_spec_rejected(self):
        F = PointMasses(atoms=((0.2, 1.0),))
        cfg = ExperimentConfig(spec=Counterexample56(), seed=5, paths=10, horizon=10)
        with pytest.raises(DomainError):
            crossing_frequency(cfg, mixture=F, c=2.0)

    def test_mixture_support_must_fit_certification(self):
        cfg = ExperimentConfig(spec=BoundedAbove(m_bound=1.0, lambda0=0.1),
                               seed=5, paths=10, horizon=10)
        with pytest.raises(DomainError):
            crossing_frequency(cfg, mixture=RobbinsSiegmund(1.0), c=2.0)

    def test_gaussian_crossing_small_grid(self):
        spec = MvBrownianGrid(dim=2, t0=0.01, rho=1.2, horizon=100.0)
        cfg = ExperimentConfig(spec=spec, seed=5, paths=4000, horizon=100,
                               checkpoints=(10, 100))
        reps = crossing_frequency(cfg, mixture=GaussianMixture(np.eye(2)), c=2.0)
        assert len(reps) == 2
        assert reps[0].estimate <= reps[1].estimate <= 0.5
        assert all(r.analytic_bound == 0.5 for r in reps)

    def test_gaussian_checkpoints_are_grid_times(self):
        # each checkpoint counts crossings up to the last grid time at or
        # below it, whatever the scalar horizon; integers keep their labels
        spec = MvBrownianGrid(dim=2, t0=0.01, rho=1.1, horizon=100.0)
        G = GaussianMixture(np.eye(2))
        cfg = ExperimentConfig(spec=spec, seed=5, paths=400, horizon=100,
                               checkpoints=(1.5, 2.9, 50.0))
        assert cfg.checkpoints == (1.5, 2.9, 50.0)
        reps = crossing_frequency(cfg, mixture=G, c=2.0)
        assert [r.label for r in reps] == [f"mv_crossing t<={t} c=2" for t in ("1.5", "2.9", "50")]
        times = np.asarray(spec.times)
        on_grid = tuple(float(times[times <= t][-1]) for t in cfg.checkpoints)
        exact = crossing_frequency(ExperimentConfig(spec=spec, seed=5, paths=400, horizon=100,
                                                    checkpoints=on_grid), mixture=G, c=2.0)
        assert [r.estimate for r in reps] == [r.estimate for r in exact]
        assert exact[0].estimate < exact[1].estimate  # the two first checkpoints differ
        far = ExperimentConfig(spec=spec, seed=5, paths=400, horizon=10, checkpoints=(50.0,))
        assert [r.to_dict() for r in crossing_frequency(far, mixture=G, c=2.0)] == \
            [r.to_dict() for r in reps[2:]]
        ints = ExperimentConfig(spec=spec, seed=5, paths=10, horizon=100, checkpoints=(1, 50))
        assert [r.label for r in crossing_frequency(ints, mixture=G, c=2.0)] == \
            ["mv_crossing t<=1 c=2", "mv_crossing t<=50 c=2"]
        for outside in ((0.005, 1.0), (1.0, 100.5)):
            with pytest.raises(DomainError):
                ExperimentConfig(spec=spec, seed=5, paths=10, horizon=1000, checkpoints=outside)

    def test_gaussian_checkpoints_on_one_grid_step(self):
        # 1.45 and 1.5 both count up to t_52 = 1.420 (step 53); the scan
        # cuts a step once, so the two must share that step's count
        spec = MvBrownianGrid(dim=2, t0=0.01, rho=1.1, horizon=100.0)
        cfg = ExperimentConfig(spec=spec, seed=5, paths=400, horizon=100,
                               checkpoints=(1.45, 1.5, 50.0))
        assert np.searchsorted(spec.times, cfg.checkpoints, "right").tolist() == [53, 53, 90]
        reps = crossing_frequency(cfg, mixture=GaussianMixture(np.eye(2)), c=2.0)
        assert [r.estimate for r in reps] == [0.18, 0.18, 0.365]

    @pytest.mark.parametrize("precision", [
        np.eye(2), np.array([[2.0, 0.8], [0.8, 1.0]]), np.eye(3),
        np.array([[1.5, 0.4, -0.3], [0.4, 1.0, 0.2], [-0.3, 0.2, 0.8]])],
        ids=["dim2-identity", "dim2-coupled", "dim3-identity", "dim3-coupled"])
    def test_gaussian_rule_decides_as_mv_statistic(self, precision):
        # the scan's rule works in V's eigenbasis, mv_statistic by Cholesky:
        # on one-step pieces of drawn walks, each cell's decision is
        # mv_statistic(A, t I, G) >= log c, away from ties
        dim, paths, c = len(precision), 60, 2.0
        spec = MvBrownianGrid(dim=dim, t0=0.01, rho=1.2, horizon=100.0)
        G = GaussianMixture(precision)
        cfg = ExperimentConfig(spec=spec, seed=5, paths=paths, horizon=spec.steps)
        rule, of_t = experiments._gaussian_rule(cfg, G, c)
        d = spec.draw(np.random.default_rng(17), 0, spec.steps, paths,
                      np.empty((paths, spec.steps, dim)), None)
        a = np.cumsum(d, axis=1)
        decided = []
        for j, t in enumerate(spec.times):
            got = rule(a[:, j:j + 1], of_t(np.array([t])), np.zeros(paths, dtype=bool))
            stat = np.array([mixture.mv_statistic(a[p, j], t * np.eye(dim), G)
                             for p in range(paths)])
            clear = np.abs(stat - math.log(c)) > 1e-12
            assert (got[clear] == (stat >= math.log(c))[clear]).all()
            decided.append(got[clear])
        decided = np.concatenate(decided)
        assert decided.size > 0.99 * paths * spec.steps and 0 < decided.mean() < 1

    def test_gaussian_needs_matching_dim(self):
        spec = MvBrownianGrid(dim=2, t0=0.01, rho=1.2, horizon=100.0)
        cfg = ExperimentConfig(spec=spec, seed=5, paths=10, horizon=100)
        with pytest.raises(DomainError):
            crossing_frequency(cfg, mixture=GaussianMixture(np.eye(3)), c=2.0)

    def test_c_validation(self):
        with pytest.raises(DomainError):
            crossing_frequency(rad_cfg(), mixture=RobbinsSiegmund(1.0), c=-1.0)


def count_boundary_calls(monkeypatch):
    calls = []
    real = experiments.boundary

    def counted(v, *args):
        calls.append(np.shape(v))
        return real(v, *args)

    monkeypatch.setattr(experiments, "boundary", counted)
    return calls


class TestBoundaryTable:
    TWO_ATOMS = PointMasses(atoms=((0.3, 0.5), (1.0, 0.5)))

    def test_one_boundary_call_per_crossing_call(self, monkeypatch):
        # the whole 160-node table is one array call, not one call per node
        calls = count_boundary_calls(monkeypatch)
        crossing_frequency(rad_cfg(paths=50, horizon=100, checkpoints=(100,)),
                           mixture=RobbinsSiegmund(1.0), c=10.0)
        assert calls == [(160,)]

    def test_cells_outside_the_table_are_solved_exactly(self):
        F, c = self.TWO_ATOMS, 5.0
        beta = _boundary_interpolant(F, c, 2.0, 1e-4, 100.0)
        v = np.array([[0.5, 150.0], [1e3, 99.0]])
        out = beta(v)
        assert out[0, 1] == boundary(150.0, c, F)
        assert out[1, 0] == boundary(1e3, c, F)
        # cells inside the table keep their interpolated values
        assert np.array_equal(beta(np.array([0.5, 99.0])), out[[0, 1], [0, 1]])
        assert out[0, 0] == pytest.approx(boundary(0.5, c, F), rel=1e-6)

    @pytest.mark.parametrize("horizon", [1, 2, 5, 20])
    def test_lognormal_normalizer_past_the_table(self, horizon, monkeypatch):
        # one lognormal step has d^2 > 16 with probability about 0.08, so B^r
        # leaves the table, which ends at 16 x horizon, on some paths
        calls = count_boundary_calls(monkeypatch)
        cfg = ExperimentConfig(spec=ScaledSymmetric(), seed=7, paths=200,
                               horizon=horizon, checkpoints=(horizon,))
        w1 = crossing_frequency(cfg, mixture=self.TWO_ATOMS, c=5.0, workers=1)
        assert len(calls) > 1
        w2 = crossing_frequency(cfg, mixture=self.TWO_ATOMS, c=5.0, workers=2)
        assert [r.to_dict() for r in w1] == [r.to_dict() for r in w2]

    def test_pareto_normalizer_past_the_table(self, monkeypatch):
        calls = count_boundary_calls(monkeypatch)
        F = RobbinsSiegmund(1.0)
        cfg = ExperimentConfig(spec=ScaledSymmetric(law="pareto", shape=2.0),
                               seed=11, paths=200, horizon=200,
                               checkpoints=(20, 200))
        w1 = crossing_frequency(cfg, mixture=F, c=10.0 * F.total_mass, workers=1)
        assert len(calls) > 1
        assert all(r.passed for r in w1)
        w2 = crossing_frequency(cfg, mixture=F, c=10.0 * F.total_mass, workers=2)
        assert [r.to_dict() for r in w1] == [r.to_dict() for r in w2]


class EveryCellCrossings:
    """A reducer that looks beta up on every cell of whole blocks (it is given
    no stops) and counts the paths crossed by each checkpoint itself, adding
    each tile's rows."""

    def __init__(self, P, beta, checkpoints):
        self.beta, self.checkpoints = beta, checkpoints
        self.crossed = np.zeros(P, dtype=bool)
        self.counts = np.zeros(len(checkpoints), dtype=np.int64)

    def segment(self, rows, n_idx, ca, cb, cv, k):
        assert k is None
        hit = ca >= self.beta(np.maximum(cb, 1e-4))
        for j, n in enumerate(self.checkpoints):
            if n_idx[0] <= n <= n_idx[-1]:
                ever = hit[:, :n - n_idx[0] + 1].any(axis=1)
                self.counts[j] += np.count_nonzero(self.crossed[rows] | ever)
        self.crossed[rows] |= hit.any(axis=1)


def unscreened_counts(cfg, F, c):
    """Crossing counts at each checkpoint with beta looked up on every cell:
    the reference the screened counts must equal."""
    beta = _boundary_interpolant(F, c, cfg.spec.r, 1e-4, 16.0 * cfg.horizon)
    parts = experiments._Scan(cfg, 1)(lambda P: EveryCellCrossings(P, beta, cfg.checkpoints))
    assert [len(p.crossed) for p in parts] == _chunk_layout(cfg.paths, cfg.horizon)
    return np.sum([p.counts for p in parts], axis=0)


class ScreenedBlocks:
    """A reducer that checks `_hit_cells` against every-cell lookup on each
    whole block (it is given no stops) and keeps the hit count of each."""

    def __init__(self, beta):
        self.beta, self.hits = beta, []

    def segment(self, rows, n_idx, ca, cb, cv, k):
        want = np.nonzero(ca >= self.beta(np.maximum(cb, 1e-4)))
        rows, cols = _hit_cells(ca, cb, self.beta, np.zeros(len(ca), dtype=bool))
        order = np.lexsort((cols, rows))
        assert np.array_equal(rows[order], want[0])
        assert np.array_equal(cols[order], want[1])
        self.hits.append(len(rows))


# beta lookup cells of TestCrossingScreen's long lognormal cases: with the
# row screen, and with the segment screen alone (the same cases run on the
# code before the row screen, which had no node lookups)
LONG_LOOKUPS = {"late_atom": (5079, 6361), "robbins_siegmund": (1557, 3639)}

HEAVY_LAWS = {
    "lognormal_sigma2": ScaledSymmetric(law="lognormal", sigma=2.0),
    "pareto_1.5": ScaledSymmetric(law="pareto", shape=1.5),
}


class TestCrossingScreen:
    """On a random normalizer beta is looked up only on cells that can reach
    it (see `_SCREEN_STEPS`); the hits must be those of every-cell lookup."""
    TWO_ATOMS = PointMasses(atoms=((0.3, 0.5), (1.0, 0.5)))
    DENSITY = Density(f=lambda lam: np.ones_like(lam), lambda0=1.0)

    @pytest.mark.parametrize("F, c, horizon", [
        (TWO_ATOMS, 5.0, 10**5),
        (RobbinsSiegmund(1.0), 10.0, 10**5),
        (DENSITY, 5.0, 100),
    ], ids=["point_masses", "robbins_siegmund", "density"])
    def test_table_is_increasing(self, F, c, horizon):
        beta = _boundary_interpolant(F, c, 2.0, 1e-4, 16.0 * horizon)
        nodes = beta(np.geomspace(1e-4, 16.0 * horizon, 160))  # the table itself
        assert np.all(nodes > 0.0) and np.all(np.diff(nodes) > 0.0)
        # PCHIP between the nodes and exact solves past them stay above any
        # earlier value, up to the screen's slack
        v = np.concatenate([np.geomspace(1e-4, 16.0 * horizon, 4001),
                            16.0 * horizon * np.geomspace(1.001, 50.0, 12)])
        b = beta(v)
        assert np.all(b >= np.maximum.accumulate(b) * (1.0 - _SCREEN_SLACK))

    @pytest.mark.parametrize("law", sorted(HEAVY_LAWS))
    @pytest.mark.parametrize("block", [1, 50, 64, 77, 200])
    def test_hit_cells_equal_every_cell_lookup(self, law, block, monkeypatch):
        # odd blocks leave a short last segment; a block of 1 or 50 is one
        # short segment
        monkeypatch.setattr(experiments, "_BLOCK", block)
        F, c = self.TWO_ATOMS, 1.5
        cfg = ExperimentConfig(spec=HEAVY_LAWS[law], seed=17, paths=40, horizon=300)
        beta = _boundary_interpolant(F, c, 2.0, 1e-4, 16.0 * cfg.horizon)
        [chunk] = experiments._Scan(cfg, 1)(lambda P: ScreenedBlocks(beta))
        assert sum(chunk.hits) > 0 and len(chunk.hits) == -(-cfg.horizon // block)

    @pytest.mark.parametrize("law, F, c", [
        ("lognormal_sigma2", TWO_ATOMS, 1.5),
        ("pareto_1.5", TWO_ATOMS, 1.5),
        ("pareto_1.5", RobbinsSiegmund(1.0), 3.0),
    ], ids=["lognormal-point_masses", "pareto-point_masses", "pareto-robbins_siegmund"])
    def test_counts_equal_every_cell_lookup(self, law, F, c, monkeypatch):
        # checkpoints inside segments, on both sides of block edges
        monkeypatch.setattr(experiments, "_BLOCK", 77)
        monkeypatch.setattr(experiments, "_TARGET_CELLS", 9 * 250)
        cfg = ExperimentConfig(spec=HEAVY_LAWS[law], seed=5, paths=40, horizon=250,
                               checkpoints=(1, 30, 64, 65, 77, 78, 140, 250))
        want = unscreened_counts(cfg, F, c)
        got = crossing_frequency(cfg, mixture=F, c=c)
        assert [r.estimate for r in got] == [k / cfg.paths for k in want]
        assert want[-1] > 0

    # (mixture, c, seed) of each long case below: an atom at lambda = 0.01,
    # whose boundary paths cross at every checkpoint from 64 on, and the
    # benchmark's mixture, whose crossings come early
    LONG = {"late_atom": (PointMasses(atoms=((0.01, 1.0),)), 1.5, 6),
            "robbins_siegmund": (RobbinsSiegmund(1.0), 3.0, 7)}

    @pytest.mark.parametrize("case", sorted(LONG))
    def test_row_screen_on_a_long_lognormal_walk(self, case, monkeypatch):
        # five blocks of 700 steps and checkpoints inside them: B^r grows by
        # about e^2 a step, far past the table's first nodes, and a piece's
        # rows whose A stays below beta at the node under their first B^r
        # are dropped before any lookup; the counts are those of every-cell
        # lookup, from fewer lookups than the segment screen alone makes
        monkeypatch.setattr(experiments, "_BLOCK", 700)
        F, c, seed = self.LONG[case]
        cfg = ExperimentConfig(spec=ScaledSymmetric(), seed=seed, paths=60, horizon=3000,
                               checkpoints=(1, 30, 64, 100, 650, 701, 1000, 1401, 1500,
                                            2222, 2900, 3000))
        want = unscreened_counts(cfg, F, c)
        looked_up = []
        real = _boundary_interpolant

        def counted(*args):
            beta = real(*args)
            return lambda v: looked_up.append(np.size(v)) or beta(v)

        monkeypatch.setattr(experiments, "_boundary_interpolant", counted)
        got = crossing_frequency(cfg, mixture=F, c=c)
        assert [r.estimate for r in got] == [k / cfg.paths for k in want]
        assert 0 < want[3] < want[-1]
        # the 160 node values once, then each piece's lookups
        assert looked_up[0] == experiments._TABLE_NODES
        pinned, segment_screen_alone = LONG_LOOKUPS[case]
        assert sum(looked_up) == pinned < segment_screen_alone

    def test_row_screen_bound(self):
        # beta(v) = v on nodes 1, 2, 4, ..., 64 and rows of 70 cells: a row
        # is dropped iff its greatest A is below beta at the greatest node at
        # or below its first B^r, less the slack
        nodes = 2.0 ** np.arange(7)
        floor = nodes, np.concatenate(([-np.inf], nodes - _SCREEN_SLACK * nodes))
        looked_up = []

        def beta(v):
            looked_up.append(np.size(v))
            return v.copy()

        L = 70
        cb = np.full((5, L), 2.5)  # between nodes 2 and 4
        cb[1] = np.linspace(2.5, 9.0, L)  # rising past nodes 4 and 8
        ca = np.zeros((5, L))
        ca[0, 40] = 2.6  # crosses beta = 2.5 past the node at 2, below the node at 4
        ca[1, 0] = 2.6  # crosses at its first cell, below its last cell's node
        ca[2, 3] = floor[1][2]  # exactly the bound: kept, no hit
        ca[3, 5] = np.nextafter(floor[1][2], 0.0)  # a ulp below it: dropped
        ca[4, :] = 2.0  # the node's own value, above the bound, no hit
        rows, cols = experiments._hit_cells(ca, cb, beta, np.zeros(5, bool), floor)
        assert sorted(zip(rows.tolist(), cols.tolist())) == [(0, 40), (1, 0)]
        # the segment starts of rows 0, 1, 2 and 4 (two segments each), then
        # the two cells at their segment's bound, (0, 40) and (1, 0)
        assert looked_up == [8, 2]
        looked_up.clear()
        rows, cols = experiments._hit_cells(ca[3:4], cb[3:4], beta, np.zeros(1, bool), floor)
        assert rows.size == 0 and looked_up == []  # no row left: no lookup

    def test_most_cells_are_not_looked_up(self, monkeypatch):
        looked_up = []
        real = _boundary_interpolant

        def counted(*args):
            beta = real(*args)

            def lookup(v):
                looked_up.append(np.size(v))
                return beta(v)
            return lookup

        monkeypatch.setattr(experiments, "_boundary_interpolant", counted)
        cfg = ExperimentConfig(spec=ScaledSymmetric(), seed=3, paths=50, horizon=2000)
        crossing_frequency(cfg, mixture=self.TWO_ATOMS, c=5.0)
        assert 0 < sum(looked_up) < 0.05 * cfg.paths * cfg.horizon


class TestLilTrack:
    def test_statistic_autoselection(self):
        cases = [(Rademacher(), "lil"),
                 (Counterexample56(), "uncentered"),
                 (Counterexample65(), "conditional_variance"),
                 (TruncatedCentering(base="normal", lam=1.0), "universal")]
        for spec, want in cases:
            cfg = ExperimentConfig(spec=spec, seed=5, paths=50, horizon=2000,
                                   checkpoints=(1000, 2000))
            out = lil_track(cfg)
            assert out["statistic"] == want

    def test_running_max_monotone(self):
        out = lil_track(rad_cfg(paths=200, horizon=5000,
                                checkpoints=(1000, 3000, 5000)))
        rm = out["running_max"]
        assert rm.shape == (200, 3)
        assert np.all(np.diff(rm, axis=1) >= 0.0)
        assert np.all(np.isfinite(rm[:, -1]))

    def test_limsup_bound_order_r(self):
        from selfnorm.processes import BoundedBelow
        cfg = ExperimentConfig(spec=BoundedBelow(m_bound=1.0, gamma=0.5, r=1.5),
                               seed=5, paths=20, horizon=500)
        out = lil_track(cfg)
        assert out["limsup_bound"] == pytest.approx(3.0 ** (1.0 / 3.0), rel=1e-14)

    def test_worker_invariance(self):
        cfg = rad_cfg(paths=40000, horizon=100, checkpoints=(100,))
        a = lil_track(cfg, workers=1)
        b = lil_track(cfg, workers=4)
        assert np.array_equal(a["running_max"], b["running_max"])
        assert a["median_value"] == b["median_value"]


class TestDiagnostics:
    def test_cluster_histogram_structure(self):
        out = cluster_set_diagnostic(rad_cfg(paths=50, horizon=20000), bins=21)
        assert len(out["counts"]) == 21
        assert len(out["edges"]) == 22
        assert sum(out["late_counts"]) <= sum(out["counts"])

    def test_sup_moment_stability(self):
        cfg = rad_cfg(paths=400, horizon=20000, checkpoints=())
        rep = sup_moment_estimate(cfg, p=2.0)
        assert rep.passed
        assert rep.extra["relative_change"] < 0.10

    def test_sup_exponential_monotone_in_alpha(self):
        cfg = rad_cfg(paths=400, horizon=20000, checkpoints=())
        lo = sup_moment_estimate(cfg, alpha=0.25)
        hi = sup_moment_estimate(cfg, alpha=0.49)
        assert hi.estimate > lo.estimate

    def test_sup_moment_argument_check(self):
        with pytest.raises(DomainError):
            sup_moment_estimate(rad_cfg(), p=2.0, alpha=0.3)
        with pytest.raises(DomainError):
            sup_moment_estimate(rad_cfg(), alpha=0.6)

    def test_growth_rates_requires_heavy_counterexample(self):
        with pytest.raises(DomainError):
            growth_rate_diagnostic(rad_cfg())

    def test_growth_rate_directions(self):
        cfg = ExperimentConfig(spec=Counterexample65(), seed=7, paths=100,
                               horizon=10**5, checkpoints=(10**3, 10**4, 10**5))
        out = growth_rate_diagnostic(cfg)
        med_s = out["median_s_normalized"]
        assert med_s[0] > med_s[1] > med_s[2]
        assert all(r > 1.0 for r in out["median_ratio"])


class TestReports:
    def test_pass_rule_is_exact(self):
        r = BoundReport(label="x", analytic_bound=1.0, estimate=1.1,
                        std_error=0.05, paths=10, passed=False)
        d = r.to_dict()
        assert d["pass"] is False and "passed" not in d

    def test_report_rows_columns(self):
        reps = check_supermartingale_mean(rad_cfg(paths=100, horizon=10,
                                                  checkpoints=(10,),
                                                  lambda_grid=(0.0,)))
        rows = report_rows(reps)
        assert all({"label", "analytic_bound", "estimate", "std_error",
                    "paths", "pass"} <= set(rows[0]) for _ in rows)


MV_GRID = MvBrownianGrid(dim=2, t0=0.01, rho=1.2, horizon=100.0)

# every experiment on the scalar state (A, B^r, V^2)
SCALAR_ENTRY_POINTS = {
    "supermartingale_mean": check_supermartingale_mean,
    "tail_bound": lambda cfg: validate_tail_bound(cfg, 1.0),
    "moment_bound": validate_moment_bound,
    "crossing": lambda cfg: crossing_frequency(cfg, mixture=RobbinsSiegmund(1.0), c=10.0),
    "lil_track": lil_track,
    "cluster_set": cluster_set_diagnostic,
    "sup_moment": lambda cfg: sup_moment_estimate(cfg, p=2.0),
    "growth_rate": growth_rate_diagnostic,
}


# a bad value of each ExperimentConfig field's rule, as rad_cfg keywords
CONFIG_REFUSED = [
    ("seed", {"seed": -1}), ("seed", {"seed": True}), ("paths", {"paths": True}),
    ("horizon", {"horizon": True, "checkpoints": ()}),
    ("checkpoints", {"checkpoints": (True, 100)}),
    ("checkpoints", {"spec": MV_GRID, "checkpoints": (math.nan,)}),
    ("checkpoints", {"spec": MV_GRID, "checkpoints": ("1.0",)}),
    ("lambda_grid", {"lambda_grid": (math.nan,)}), ("lambda_grid", {"lambda_grid": (math.inf,)}),
    ("lambda_grid", {"lambda_grid": (True,)}), ("lambda_grid", {"lambda_grid": 0.5}),
    ("x_grid", {"x_grid": ("2",)}), ("x_grid", {"x_grid": (math.nan,)}),
    ("x_grid", {"x_grid": (math.inf,)}), ("x_grid", {"x_grid": (-math.inf,)}),
    ("p_list", {"p_list": (math.nan,)}), ("p_list", {"p_list": ("2",)}),
    ("statistic", {"statistic": "foo"}), ("statistic", {"statistic": None}),
    ("se_slack", {"se_slack": "nan"}), ("se_slack", {"se_slack": math.nan}),
    ("se_slack", {"se_slack": math.inf}), ("se_slack", {"se_slack": True}),
]

# each entry point's own keyword, applied to a config
ENTRY_KEYWORDS = {
    "y": lambda cfg, y: validate_tail_bound(cfg, y),
    "c": lambda cfg, c: crossing_frequency(cfg, mixture=RobbinsSiegmund(1.0), c=c),
    "p_list": lambda cfg, p_list: validate_moment_bound(cfg, p_list=p_list),
    "margin": lambda cfg, margin: lil_track(cfg, margin=margin),
    "p": lambda cfg, p: sup_moment_estimate(cfg, p=p),
    "alpha": lambda cfg, alpha: sup_moment_estimate(cfg, alpha=alpha),
    "bins": lambda cfg, bins: cluster_set_diagnostic(cfg, bins=bins),
}
KEYWORD_REFUSED = [
    ("y", True), ("c", "10"), ("c", [10.0]), ("p_list", ("2",)), ("p_list", (True,)),
    ("p_list", 2.0), ("margin", True), ("p", math.inf), ("p", "2"), ("p", True),
    ("alpha", "0.2"), ("alpha", [0.2]), ("bins", True), ("bins", 2.5), ("bins", "3"),
]


def test_every_input_has_a_rule():
    # a config field or an entry point keyword added later cannot slip by
    # unchecked, and each rule has a refusal case (c_over_mass and the
    # boundary command's --v-points, --v-min and --v-max have theirs in
    # test_cli)
    from selfnorm import cli
    inputs = {f.name for f in fields(ExperimentConfig)} - {"spec"}
    entry_points = [getattr(cli, name) for name in cli._VERIFY_OPS.values()] + [
        lil_track, cluster_set_diagnostic, sup_moment_estimate, growth_rate_diagnostic]
    for fn in entry_points:
        inputs |= set(inspect.signature(fn).parameters) - {"cfg", "workers", "mixture"}
    assert inputs <= set(INPUT_RULES)
    refused = {f for f, _ in CONFIG_REFUSED} | {k for k, _ in KEYWORD_REFUSED}
    assert set(INPUT_RULES) - refused == {"c_over_mass", "v_points", "v_min", "v_max"}


# a value each spec field's rule refuses; all but those of law, base,
# weights and scaled_symmetric's mu, sigma, shape and xm were once accepted.
# Each variant's r is tried with every value in R_REFUSED.
R_REFUSED = [1, 5, 0.5, math.nan, "2", True]
FIELD_REFUSED = {
    "law": "cauchy", "mu": "0", "sigma": True, "shape": "3", "xm": math.inf,
    "m_bound": True, "lambda0": True, "gamma": "0.5", "times": ["0.5", "1"], "dim": 2.5,
    "t0": True, "rho": "1.05", "horizon": True, "base": "cauchy", "lam": True,
    "alpha": "0.5", "d1": math.nan, "d2": math.inf, "weights": "unit",
}
SPEC_BASE = {"brownian_grid": {"times": [0.5, 1.0]}}
SPEC_REFUSED = [(name, f.name, value) for name, cls in processes._VARIANTS.items()
                for f in fields(cls)
                for value in (R_REFUSED if f.name == "r" else [FIELD_REFUSED[f.name]])]
# a string and a bool field value, an unknown key and a missing key on each
# measure type
MEASURE_REFUSED = [
    ({"type": "point_masses", "atoms": [["0.1", 1.0]]}, "atoms must be"),
    ({"type": "point_masses", "atoms": [[0.1, True]]}, "atoms must be"),
    ({"type": "point_masses", "atoms": [[0.1, 1.0]], "nope": 1}, "nope"),
    ({"type": "point_masses"}, "atoms"),
    ({"type": "density_rs", "delta": "1"}, "delta must be"),
    ({"type": "density_rs", "delta": True}, "delta must be"),
    ({"type": "density_rs", "delta": 1.0, "nope": 1}, "nope"),
    ({"type": "density_rs"}, "delta"),
    ({"type": "gaussian", "precision": [["1", 0.0], [0.0, 1.0]]}, "precision must be"),
    ({"type": "gaussian", "precision": [[True, 0.0], [0.0, True]]}, "precision must be"),
    ({"type": "gaussian", "precision": [[1.0, 0.0], [0.0, 1.0]], "nope": 1}, "nope"),
    ({"type": "gaussian"}, "precision"),
]


def test_every_field_has_a_rule():
    # a field of a spec, a mixture or a sample added later cannot slip by
    # unchecked, and each spec field and measure type has refusal cases
    classes = [*processes._VARIANTS.values(), *mixture._MEASURES.values(), Density,
               SelfNormSample]
    for cls in classes:
        assert set(cls.rules) == {f.name for f in fields(cls) if f.init}, cls.__name__
    assert {f for cls in processes._VARIANTS.values() for f in cls.rules} == \
        set(FIELD_REFUSED) | {"r"}
    assert {obj["type"] for obj, _ in MEASURE_REFUSED} == set(mixture._MEASURES)


class TestFieldRefusal:
    """Each refused spec or mixture field is a DomainError naming it before
    any chunk stream opens. r = 5 on Rademacher once ran to a passing
    supermartingale mean, r = nan to NaN rows and r = 1 to a
    ZeroDivisionError in lil_track."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a chunk stream was opened")
        monkeypatch.setattr(experiments, "chunk_rng", refuse)

    @pytest.mark.parametrize("name, field, value", SPEC_REFUSED,
                             ids=[f"{n}.{f}={v!r}" for n, f, v in SPEC_REFUSED])
    def test_spec_field(self, name, field, value):
        spec = {"variant": name, **SPEC_BASE.get(name, {}), field: value}
        obj = {"spec": spec, "seed": 1, "paths": 10, "horizon": 2, "lambda_grid": [0.5]}
        with pytest.raises(DomainError, match=f"^{field} must be"):
            check_supermartingale_mean(config_from_json(obj))
        with pytest.raises(DomainError, match=f"^{field} must be"):
            lil_track(config_from_json(obj))

    @pytest.mark.parametrize("obj, named", MEASURE_REFUSED,
                             ids=[json.dumps(obj) for obj, _ in MEASURE_REFUSED])
    def test_measure_field(self, obj, named):
        gaussian = obj["type"] == "gaussian"
        cfg = ExperimentConfig(spec=MV_GRID if gaussian else Rademacher(), seed=1, paths=10,
                               horizon=40)
        with pytest.raises(DomainError, match=named):
            crossing_frequency(cfg, mixture=measure_from_json(obj), c=10.0)


class TestScalarSpecRejection:
    """Specs and arguments the scan cannot run are refused before any draw:
    a vector spec on every scalar entry point, and anything but a matching
    MvBrownianGrid and c > 1 on the Gaussian crossing."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a chunk stream was opened")
        monkeypatch.setattr("selfnorm.experiments.chunk_rng", refuse)

    @pytest.mark.parametrize("entry", sorted(SCALAR_ENTRY_POINTS))
    def test_mv_brownian_grid(self, entry):
        cfg = ExperimentConfig(spec=MV_GRID, seed=1, paths=10, horizon=40)
        with pytest.raises(DomainError):
            SCALAR_ENTRY_POINTS[entry](cfg)

    @pytest.mark.parametrize("entry", sorted(SCALAR_ENTRY_POINTS))
    def test_factorial_weights(self, entry):
        # the engine would run them as unit weights; only ProcessHandle
        # applies the factorial rescaling
        cfg = ExperimentConfig(spec=WeightedIID(weights="factorial"), seed=1,
                               paths=10, horizon=40)
        with pytest.raises(DomainError):
            SCALAR_ENTRY_POINTS[entry](cfg)

    @pytest.mark.parametrize("entry", sorted(SCALAR_ENTRY_POINTS))
    def test_grid_shorter_than_horizon(self, entry):
        # 300 grid times cannot carry a 2000-step horizon
        grid = BrownianGrid(times=tuple(0.01 * k for k in range(1, 301)))
        cfg = ExperimentConfig(spec=grid, seed=1, paths=50, horizon=2000)
        with pytest.raises(DomainError):
            SCALAR_ENTRY_POINTS[entry](cfg)

    @pytest.mark.parametrize("spec, G, c", [
        (Rademacher(), GaussianMixture(np.eye(2)), 2.0),
        (MV_GRID, GaussianMixture(np.eye(3)), 2.0),
        (MV_GRID, GaussianMixture(np.eye(2)), 1.0),
    ], ids=["scalar_spec", "dim_mismatch", "c_not_above_1"])
    def test_gaussian_crossing(self, spec, G, c):
        cfg = ExperimentConfig(spec=spec, seed=1, paths=10, horizon=40)
        with pytest.raises(DomainError):
            crossing_frequency(cfg, mixture=G, c=c)

    def test_bernstein_open_end(self):
        # 0 <= lambda < 1/M: at lambda = 1/M the weight's denominator is 0
        from selfnorm.processes import CertificationError
        for m in (1.0, 0.5):
            cfg = ExperimentConfig(spec=Bernstein(m_bound=m), seed=5, paths=100,
                                   horizon=10, lambda_grid=(0.5, 1.0 / m))
            with pytest.raises(CertificationError):
                check_supermartingale_mean(cfg)

    @pytest.mark.parametrize("spec", [
        Bernstein(m_bound=1.0),
        type("Tilted", (Rademacher,), {"log_weight": lambda self, lam, a, b: lam * a})(),
    ], ids=["bernstein", "custom_weight"])
    def test_crossing_needs_the_canonical_weight(self, spec):
        # Bernstein's certified weight is not exp(lam*A - lam^2 B^2/2):
        # E exp(lam*d - lam^2 M^2/2) = 1.07 at lam*M = 0.5
        cfg = ExperimentConfig(spec=spec, seed=5, paths=100, horizon=10)
        with pytest.raises(DomainError, match="weight"):
            crossing_frequency(cfg, mixture=RobbinsSiegmund(1.0), c=10.0)

    @pytest.mark.parametrize("call", [
        lambda: validate_tail_bound(rad_cfg(x_grid=(2.0, 1.0)), 1.0),
        lambda: validate_moment_bound(rad_cfg(), p_list=(1.0, 0.0)),
        lambda: validate_moment_bound(rad_cfg(p_list=(-1.0,))),
        lambda: sup_moment_estimate(rad_cfg(), p=0.0),
        lambda: sup_moment_estimate(rad_cfg(), p=-1.0),
        lambda: cluster_set_diagnostic(rad_cfg(), bins=0),
        lambda: crossing_frequency(rad_cfg(), mixture=None, c=10.0),
    ], ids=["tail_x_below_sqrt2", "moment_p_zero", "moment_cfg_p_negative",
            "sup_moment_p_zero", "sup_moment_p_negative", "cluster_no_bins",
            "crossing_no_mixture"])
    def test_bad_argument(self, call):
        # sup_moment_estimate at p = 0 reported 1.0 and passed; with no
        # mixture crossing_frequency raised AttributeError
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    @pytest.mark.parametrize("gaussian", [False, True], ids=["scalar", "gaussian"])
    def test_crossing_c_not_finite(self, c, gaussian, monkeypatch):
        # c = inf ran every draw of the Gaussian crossing and passed with
        # bound 0; the scalar table solve raised BracketError
        def refuse(*args, **kwargs):
            raise AssertionError("the boundary table was built")
        monkeypatch.setattr(experiments, "boundary", refuse)
        monkeypatch.setattr(experiments, "PchipInterpolator", refuse)
        cfg = (ExperimentConfig(spec=MV_GRID, seed=1, paths=10, horizon=40) if gaussian
               else rad_cfg())
        mixture = GaussianMixture(np.eye(2)) if gaussian else RobbinsSiegmund(1.0)
        with pytest.raises(DomainError, match="finite"):
            crossing_frequency(cfg, mixture=mixture, c=c)

    @pytest.mark.parametrize("y", [math.nan, math.inf, 0.0, -1.0, "1.0"])
    def test_tail_y_not_positive_and_finite(self, y, monkeypatch):
        # nan and inf ran every draw and passed vacuously: the statistic was
        # nan or 0 on every path, so the estimate was 0
        def refuse(*args):
            raise AssertionError("a chunk stream was opened")
        monkeypatch.setattr(experiments, "chunk_rng", refuse)
        with pytest.raises(DomainError, match="y must be positive and finite"):
            validate_tail_bound(rad_cfg(), y)

    @pytest.mark.parametrize("margin", ["0.2", math.nan, math.inf, -1.0, -2.0, None])
    def test_lil_margin(self, margin):
        # "0.2" ran the whole experiment, then raised TypeError; nan reported
        # frac_exceeding 0.0
        with pytest.raises(DomainError, match="margin"):
            lil_track(rad_cfg(), margin=margin)

    @pytest.mark.parametrize("statistic", ["foo", "universal", "conditional_variance"])
    def test_unsupported_lil_statistic(self, statistic):
        with pytest.raises(DomainError, match=repr(statistic)):
            lil_track(rad_cfg(statistic=statistic))

    def test_lil_statistic_choices_named_once(self):
        # Rademacher's own statistic is lil, which the message listed twice
        with pytest.raises(DomainError) as info:
            lil_track(rad_cfg(statistic="universal"))
        assert "'auto', 'lil', 'uncentered'" in str(info.value)
        assert str(info.value).count("'lil'") == 1

    @pytest.mark.parametrize("field, kw", CONFIG_REFUSED,
                             ids=[f"{f}={kw[f]!r}" for f, kw in CONFIG_REFUSED])
    def test_config_field_refused(self, field, kw):
        # each value was taken by ExperimentConfig: a NaN or inf grid value
        # gave NaN or vacuous rows, a bool counted as 1, a negative seed ended
        # in numpy's ValueError at the first chunk stream
        with pytest.raises(DomainError, match=field):
            rad_cfg(**kw)

    @pytest.mark.parametrize("keyword, value", KEYWORD_REFUSED,
                             ids=[f"{k}={v!r}" for k, v in KEYWORD_REFUSED])
    def test_entry_keyword_refused(self, keyword, value):
        # each value ran into the draws, or a TypeError, before the rule
        with pytest.raises(DomainError, match=keyword):
            ENTRY_KEYWORDS[keyword](rad_cfg(), value)

    def test_factorial_weights_never_deterministic(self):
        assert WeightedIID(weights="ones").b_deterministic
        assert not WeightedIID(weights="factorial").b_deterministic


# ---------------------------------------------------------------------------
# counts refused before the arrays they size
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bins", [experiments._MAX_POINTS + 1, 10**9, 2**62])
def test_oversized_histogram_refused_before_any_array(bins, monkeypatch):
    # sized in closed form, a float64 a bin: no edge, no chunk stream and no
    # reducer is made, and the huge case never runs
    def opened(*args):
        raise AssertionError("a chunk stream was opened")
    monkeypatch.setattr(experiments, "chunk_rng", opened)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=rf"^bins {bins} asks for {8 * bins} bytes"):
            cluster_set_diagnostic(rad_cfg(), bins=bins)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# each entry point, by the stops at which it keeps a value per path: the
# supermartingale mean, lil_track and the growth-rate diagnostic keep one at
# every checkpoint, the rest at most one a path (the carries)
KEPT = {
    "supermartingale_mean": (True, check_supermartingale_mean),
    "lil_track": (True, lil_track),
    "growth_rate": (True, growth_rate_diagnostic),
    "tail_bound": (False, lambda cfg: validate_tail_bound(cfg, 1.0)),
    "moment_bound": (False, validate_moment_bound),
    "sup_moment": (False, lambda cfg: sup_moment_estimate(cfg, p=2.0)),
    "cluster_set": (False, cluster_set_diagnostic),
    "crossing": (False, lambda cfg: crossing_frequency(cfg, mixture=RobbinsSiegmund(1.0), c=2.0)),
}


def kept_cfg(entry, paths, checkpoints):
    spec = Counterexample65() if entry == "growth_rate" else Rademacher()
    return ExperimentConfig(spec=spec, seed=123, paths=paths, horizon=max(checkpoints),
                            checkpoints=checkpoints)


# paths and checkpoint counts above the limit: paths alone, or paths x
# checkpoints on the entries that keep a value per path and stop
RECORDS_REFUSED = [(e, paths, n) for e in sorted(KEPT) for paths, n in (
    [(experiments._MAX_RECORDS + 1, 1), (10**12, 1)]
    + ([(experiments._MAX_RECORDS // 3 + 1, 3), (10**5, 10**5)] if KEPT[e][0] else []))]


@pytest.mark.parametrize("entry, paths, n_checkpoints", RECORDS_REFUSED)
def test_oversized_records_refused_before_any_array(entry, paths, n_checkpoints, monkeypatch):
    # sized in closed form: no chunk is laid out, no stream opened and no
    # reducer made. 1e5 paths x 1e5 checkpoints asked _StateAtStops for 240
    # GB; none of these cases runs
    per_stop, run = KEPT[entry]
    checkpoints = tuple(range(1, n_checkpoints + 1))
    kept = n_checkpoints if per_stop else 1

    def opened(*args):
        raise AssertionError("a chunk stream was opened")
    monkeypatch.setattr(experiments, "chunk_rng", opened)
    monkeypatch.setattr(experiments, "_chunk_layout", opened)
    cfg = kept_cfg(entry, paths, checkpoints)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=rf"^paths {paths} x checkpoints {kept} asks "
                                              rf"for {8 * paths * kept} bytes"):
            run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("entry", sorted(KEPT))
def test_record_limit_is_inclusive(entry, monkeypatch):
    # at a limit of 60 values, 20 paths x 3 checkpoints run and 21 do not
    # where the entry keeps a value per path and stop; elsewhere 60 paths
    # run at any checkpoint count, and 61 do not
    monkeypatch.setattr(experiments, "_MAX_RECORDS", 60)
    per_stop, run = KEPT[entry]
    top = 20 if per_stop else 60
    run(kept_cfg(entry, top, (10, 20, 30)))
    with pytest.raises(DomainError, match=rf"^paths {top + 1} x checkpoints "):
        run(kept_cfg(entry, top + 1, (10, 20, 30)))


@pytest.mark.parametrize("entry", sorted(KEPT))
def test_chunk_count_refused_before_any_stream(entry, monkeypatch):
    # 10^6 paths of 10^7 cells are 10^6 one-path chunks, each opening a
    # stream before the first draw; sized in closed form, no chunk is laid
    # out, no stream opened and no reducer made
    def opened(*args):
        raise AssertionError("a chunk stream was opened")
    monkeypatch.setattr(experiments, "chunk_rng", opened)
    monkeypatch.setattr(experiments, "_chunk_layout", opened)
    cfg = kept_cfg(entry, 10**6, (10**7,))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=rf"^paths {10**6} of {10**7} cells each take "
                                              rf"{10**6} chunks, above the limit of 65536$"):
            KEPT[entry][1](cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("entry", sorted(KEPT))
def test_chunk_limit_is_inclusive(entry, monkeypatch):
    # chunks of 10 paths at a limit of 3 chunks: 30 paths run, 31 do not
    monkeypatch.setattr(experiments, "_MAX_CHUNKS", 3)
    monkeypatch.setattr(experiments, "_TARGET_CELLS", 10 * 30)
    run = KEPT[entry][1]
    run(kept_cfg(entry, 30, (10, 20, 30)))
    with pytest.raises(DomainError, match=r"^paths 31 of 30 cells each take 4 chunks"):
        run(kept_cfg(entry, 31, (10, 20, 30)))


def test_point_limit_is_inclusive():
    top = experiments._MAX_POINTS
    for name in ("bins", "v_points"):
        assert INPUT_RULES[name](top, name) == top
        assert INPUT_RULES[name](float(top), name) == top
        with pytest.raises(DomainError, match=rf"{8 * (top + 1)} bytes"):
            INPUT_RULES[name](top + 1, name)
    for name in ("lambda_grid", "x_grid", "p_list"):
        assert INPUT_RULES[name]([2.0] * top, name) == (2.0,) * top
        with pytest.raises(DomainError, match=rf"^{name} of {top + 1} items asks for "
                                              rf"{8 * (top + 1)} bytes"):
            INPUT_RULES[name]([2.0] * (top + 1), name)


# each list input, on the entry point that reads it: a config field or, for
# p_list, validate_moment_bound's keyword too
LISTS_REFUSED = {
    "lambda_grid": lambda items: check_supermartingale_mean(rad_cfg(lambda_grid=items)),
    "x_grid": lambda items: validate_tail_bound(rad_cfg(x_grid=items), 1.0),
    "p_list": lambda items: validate_moment_bound(rad_cfg(p_list=items)),
    "p_list keyword": lambda items: validate_moment_bound(rad_cfg(), p_list=items),
}


@pytest.mark.parametrize("entry", sorted(LISTS_REFUSED))
def test_oversized_list_refused_before_any_draw(entry, monkeypatch):
    # a lambda, x or p list of 2^16 + 1 items is refused by its length, with
    # its name, before a chunk stream is opened
    def opened(*args):
        raise AssertionError("a chunk stream was opened")
    monkeypatch.setattr(experiments, "chunk_rng", opened)
    n = experiments._MAX_POINTS + 1
    with pytest.raises(DomainError, match=rf"^{entry.split()[0]} of {n} items asks for "
                                          rf"{8 * n} bytes"):
        LISTS_REFUSED[entry]([2.0] * n)
