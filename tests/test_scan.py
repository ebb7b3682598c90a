"""The block scan behind every scalar experiment: the one-row B^r path of
draw-independent normalizers against the per-cell path, worker-count
invariance with B^r, V^2 and the running statistics carried across many
small blocks and chunks, and the per-worker workspace: it holds one row
tile per role, reused buffers give the reports of fresh ones, and no result
keeps a view of them."""
import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import test_golden
from selfnorm import cli, experiments, processes
from selfnorm.constants import DomainError
from selfnorm.experiments import (ExperimentConfig, check_supermartingale_mean,
                                  cluster_set_diagnostic, crossing_frequency,
                                  growth_rate_diagnostic, lil_track,
                                  sup_moment_estimate, validate_moment_bound,
                                  validate_tail_bound)
from selfnorm.mixture import GaussianMixture, PointMasses, RobbinsSiegmund
from selfnorm.processes import (Bernstein, BoundedAbove, BoundedBelow, BrownianGrid,
                                Counterexample56, Counterexample65, MvBrownianGrid,
                                Rademacher, ScaledSymmetric, TruncatedCentering,
                                WeightedIID, CertificationError)

# lambda0 = 1 fits every certification below; its table is cheap to build
MIXTURE = PointMasses(atoms=((0.3, 0.5), (1.0, 0.5)))
C = 5.0
HORIZON = 60

DETERMINISTIC = {
    "rademacher": Rademacher(),
    "bounded_above": BoundedAbove(m_bound=0.5, lambda0=1.0),
    "bernstein": Bernstein(m_bound=0.5),
    "brownian_grid": BrownianGrid(times=tuple(0.25 * k * k for k in range(1, HORIZON + 1))),
    "weighted_iid_ones": WeightedIID(weights="ones"),
}


def per_cell(spec):
    """The same spec with its B^r increments declared draw-dependent, which
    sends the scan down the general per-cell path. The subclass keeps the
    name, which report labels carry."""
    cls = type(type(spec).__name__, (type(spec),), {"b_deterministic": False})
    return cls(**{f: getattr(spec, f) for f in spec.__dataclass_fields__})


def canonical(out):
    """Reports and lil dictionaries as values comparable with ==, arrays by
    their bytes."""
    if isinstance(out, list):
        return [canonical(o) for o in out]
    if isinstance(out, dict):
        return {k: canonical(v) for k, v in out.items()}
    if isinstance(out, np.ndarray):
        return (out.dtype.str, out.shape, out.tobytes())
    if hasattr(out, "to_dict"):
        return out.to_dict()
    return out


def outcome(fn, *args, **kwargs):
    try:
        return canonical(fn(*args, **kwargs))
    except Exception as exc:  # an error must be the same error on every path
        return type(exc).__name__, str(exc)


EXPERIMENTS = {
    "crossing": lambda cfg, w=1: crossing_frequency(cfg, mixture=MIXTURE, c=C, workers=w),
    "lil_track": lambda cfg, w=1: lil_track(cfg, workers=w),
    "supermartingale_mean": lambda cfg, w=1: check_supermartingale_mean(cfg, workers=w),
    "cluster_set": lambda cfg, w=1: cluster_set_diagnostic(cfg, workers=w),
    "tail_bound": lambda cfg, w=1: validate_tail_bound(cfg, 1.0, workers=w),
}


# the tail bound needs a certification over all real lambda, and the
# crossing test the canonical weight, which Bernstein replaces
CASES = [(v, e) for v in sorted(DETERMINISTIC) for e in sorted(EXPERIMENTS)
         if (e != "tail_bound" or DETERMINISTIC[v].certification[0] == "all")
         and (e != "crossing" or v != "bernstein")]


@pytest.mark.parametrize("variant, experiment", CASES)
def test_one_row_matches_per_cell(variant, experiment, monkeypatch):
    # blocks of 7 steps and chunks of 11 paths: B^r is carried across
    # blocks, and the row is shared by chunks of unequal size
    monkeypatch.setattr(experiments, "_BLOCK", 7)
    monkeypatch.setattr(experiments, "_TARGET_CELLS", 11 * HORIZON)
    spec = DETERMINISTIC[variant]
    assert spec.b_deterministic
    kw = dict(seed=3, paths=25, horizon=HORIZON, checkpoints=(1, 20, 33, HORIZON),
              lambda_grid=(0.0, 0.4, 1.0))
    fn = EXPERIMENTS[experiment]
    fast = outcome(fn, ExperimentConfig(spec=spec, **kw))
    general = outcome(fn, ExperimentConfig(spec=per_cell(spec), **kw))
    assert not isinstance(fast, tuple), fast  # the experiment ran to the end
    assert fast == general


# every experiment, and the variants it runs on in the property below; the
# Gaussian crossing runs on a 12-step grid
RUNS = {
    **EXPERIMENTS,
    "moment_bound": lambda cfg, w=1: validate_moment_bound(cfg, workers=w),
    "sup_moment": lambda cfg, w=1: sup_moment_estimate(cfg, p=2.0, workers=w),
    "growth_rate": lambda cfg, w=1: growth_rate_diagnostic(cfg, workers=w),
    "gaussian_crossing": lambda cfg, w=1: crossing_frequency(
        cfg, mixture=GaussianMixture(np.eye(2)), c=2.0, workers=w),
}
ON_SCALAR = sorted(set(RUNS) - {"growth_rate", "gaussian_crossing"})
MV = MvBrownianGrid(dim=2, t0=0.5, rho=1.5, horizon=40.0)
ON_VARIANT = {
    "rademacher": (Rademacher(), ON_SCALAR),
    "scaled_symmetric": (ScaledSymmetric(), ON_SCALAR),
    "counterexample65": (Counterexample65(), ["growth_rate"]),
    "mv_brownian_grid": (MV, ["gaussian_crossing"]),
}


@settings(max_examples=60)
@given(paths=st.integers(1, 30), horizon=st.integers(1, 50),
       block=st.integers(1, 12), chunk_paths=st.integers(1, 12), tile=st.integers(1, 60),
       variant=st.sampled_from(sorted(ON_VARIANT)))
def test_reports_do_not_depend_on_workers(paths, horizon, block, chunk_paths, tile, variant):
    spec, experiments_run = ON_VARIANT[variant]
    cks = tuple(sorted({1, (horizon + 1) // 2, horizon}))
    if spec is MV:
        # checkpoints are times on its grid, and two of them may share a
        # step; _BLOCK does not split a vector spec's grid, and
        # _TARGET_CELLS counts the cells of both components of its 12 steps
        cks = tuple(sorted({0.5, min(horizon / 2.0, 40.0), min(horizon, 40.0)}))
    cfg = ExperimentConfig(spec=spec, seed=paths * 1000 + horizon, paths=paths,
                           horizon=horizon, checkpoints=cks)
    with mock.patch.multiple(experiments, _BLOCK=block, _TILE=tile,
                             _TARGET_CELLS=chunk_paths * horizon):
        for experiment in experiments_run:
            one = outcome(RUNS[experiment], cfg, 1)
            assert not isinstance(one, tuple), one  # the experiment ran to the end
            assert one == outcome(RUNS[experiment], cfg, 2)
            assert one == outcome(RUNS[experiment], cfg, 3)
            # nor on the row tiles: one tile per chunk-block gives them too
            with mock.patch.object(experiments, "_TILE", 10**9):
                assert one == outcome(RUNS[experiment], cfg, 1)


@pytest.mark.parametrize("variant", sorted(set(ON_VARIANT) - {"mv_brownian_grid"})
                         + ["brownian_grid"])
def test_three_workers_on_more_chunks(variant, monkeypatch):
    # 8 chunks of at most 4 paths on 3 workers, over 8 blocks of 7 steps
    # with stops inside and on block edges
    monkeypatch.setattr(experiments, "_BLOCK", 7)
    monkeypatch.setattr(experiments, "_TARGET_CELLS", 4 * HORIZON)
    spec, experiments_run = ON_VARIANT.get(variant) or (DETERMINISTIC[variant], sorted(EXPERIMENTS))
    cfg = ExperimentConfig(spec=spec, seed=8, paths=29, horizon=HORIZON,
                           checkpoints=(1, 14, 20, 33, HORIZON))
    assert len(experiments._chunk_layout(cfg.paths, cfg.horizon)) == 8
    for experiment in experiments_run:
        one = outcome(RUNS[experiment], cfg, 1)
        assert not isinstance(one, tuple), one
        assert one == outcome(RUNS[experiment], cfg, 3), experiment


def pieces(horizon, block, stops):
    """How many pieces the scan cuts a run into: one per block, plus one
    for each stop inside a block."""
    return len(set(range(block, horizon, block)) | {horizon} | set(stops))


ROW_WORK = {  # an experiment's stops, and the function of B^r alone it calls
    "lil_track": (lambda cfg: cfg.checkpoints, "lil_denominator"),
    "cluster_set": (lambda cfg: (cfg.horizon // 2,), "lil_denominator"),
    "crossing": (lambda cfg: cfg.checkpoints, "beta"),
}


@pytest.mark.parametrize("experiment", sorted(ROW_WORK))
@pytest.mark.parametrize("workers", [1, 2])
def test_row_work_once_per_piece(experiment, workers, monkeypatch):
    # 3 chunks, 9 blocks of 7 steps, stops inside blocks: the statistic's
    # work on a deterministic B^r row runs once per piece for all chunks,
    # on a per-cell B^r once per piece of each chunk
    monkeypatch.setattr(experiments, "_BLOCK", 7)
    monkeypatch.setattr(experiments, "_TARGET_CELLS", 11 * HORIZON)
    stops, fn = ROW_WORK[experiment]
    calls = []
    if fn == "beta":
        interpolant = experiments._boundary_interpolant

        def counted_interpolant(*args):
            beta = interpolant(*args)
            return lambda v: calls.append(np.shape(v)) or beta(v)
        monkeypatch.setattr(experiments, "_boundary_interpolant", counted_interpolant)
    else:
        inner = getattr(experiments, fn)
        monkeypatch.setattr(experiments, fn, lambda *a: calls.append(np.shape(a[0])) or inner(*a))
    kw = dict(seed=3, paths=25, horizon=HORIZON, checkpoints=(1, 20, 33, 35, HORIZON))
    n_pieces = pieces(HORIZON, 7, stops(ExperimentConfig(spec=Rademacher(), **kw)))
    assert n_pieces > 9
    # on a per-cell B^r, the crossing screen looks beta up only on the cells
    # it lets through (see test_experiments.TestCrossingScreen)
    cases = [(Rademacher(), 1)] + ([(per_cell(Rademacher()), 3)] if fn != "beta" else [])
    for spec, per_chunk in cases:
        cfg = ExperimentConfig(spec=spec, **kw)
        assert len(experiments._chunk_layout(cfg.paths, cfg.horizon)) == 3
        calls.clear()
        EXPERIMENTS[experiment](cfg, workers)
        assert len(calls) == n_pieces * per_chunk, spec
        assert all(len(shape) == (1 if per_chunk == 1 else 2) for shape in calls)


def arrays(value):
    """Every ndarray in value, through lists, tuples, sets, dicts and the
    attributes of the engine's reports and reducers."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (list, tuple, set, frozenset)):
        return [a for v in value for a in arrays(v)]
    if isinstance(value, dict):
        return [a for v in value.values() for a in arrays(v)]
    if type(value).__module__ == experiments.__name__:
        return arrays(vars(value))
    return []


# every scalar variant, among them those with a per-cell B^r
# (ScaledSymmetric, BoundedBelow) or V^2 (TruncatedCentering, the
# counterexamples): the workspace tests run them, the outlives test with
# MV's Gaussian crossing
SCALAR = {
    "rademacher": Rademacher(),
    "scaled_lognormal": ScaledSymmetric(mu=0.1, sigma=0.7),
    "scaled_pareto": ScaledSymmetric(law="pareto", shape=2.5, xm=1.0),
    "bounded_above": BoundedAbove(m_bound=0.5, lambda0=1.0),
    "bernstein": Bernstein(m_bound=0.5),
    "bounded_below_r15": BoundedBelow(m_bound=0.5, gamma=0.5, r=1.5),
    "brownian_grid": DETERMINISTIC["brownian_grid"],
    "counterexample56": Counterexample56(),
    "counterexample65": Counterexample65(),
    "truncated_normal": TruncatedCentering(base="normal", lam=1.0),
    "truncated_heavy": TruncatedCentering(base="heavy", alpha=0.6, d1=1.0, d2=2.0),
    "weighted_iid_ones": WeightedIID(weights="ones"),
}


def entry_points(spec):
    return ["gaussian_crossing"] if spec is MV else sorted(set(RUNS) - {"gaussian_crossing"})


@pytest.fixture
def small_blocks(monkeypatch):
    # 6 chunks of at most 2 paths, more than the 1-3 workers, over 9 blocks
    # of 7 steps
    monkeypatch.setattr(experiments, "_BLOCK", 7)
    monkeypatch.setattr(experiments, "_TARGET_CELLS", 2 * HORIZON)
    return dict(seed=2, paths=11, horizon=HORIZON, checkpoints=(20, 33, HORIZON))


def recorded_workspaces(monkeypatch):
    """Every `_Workspace` the scan makes, appended to the returned list."""
    made = []

    class Recorded(experiments._Workspace):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(experiments, "_Workspace", Recorded)
    return made


def test_no_block_array_outlives_a_call(small_blocks, monkeypatch):
    # what the scan shares between chunks lives in the call: after it, no
    # module attribute of `experiments` holds an array, and no reducer
    # attribute or returned array is a view of a worker's workspace
    reducers = []
    scan = experiments._Scan.__call__

    def recorded_scan(self, *args, **kwargs):
        reds = scan(self, *args, **kwargs)
        reducers.extend(reds)
        return reds

    before = dict(vars(experiments))
    made = recorded_workspaces(monkeypatch)
    monkeypatch.setattr(experiments._Scan, "__call__", recorded_scan)
    ran = 0
    for spec in [*SCALAR.values(), MV]:
        cfg = ExperimentConfig(spec=spec, **{**small_blocks, "checkpoints": (
            (0.5, 10.0) if spec is MV else small_blocks["checkpoints"])})
        for experiment in entry_points(spec):
            for workers in (1, 2, 3):
                made.clear()
                reducers.clear()
                try:
                    out = RUNS[experiment](cfg, workers)
                except (DomainError, CertificationError):
                    break  # refused before any draw, at every worker count
                buffers = [buf for ws in made for buf in ws.bufs.values()]
                assert buffers and len(made) <= workers, (experiment, spec)
                for kept in arrays(reducers) + arrays(out):
                    assert not any(np.shares_memory(kept, buf) for buf in buffers), (
                        experiment, spec, workers)
                ran += 1
    assert ran == 3 * 67  # (variant, entry point) pairs that run, at three worker counts
    after = vars(experiments)
    assert set(after) == set(before)
    assert not any(arrays(v) for v in after.values())


@pytest.mark.parametrize("variant", sorted(SCALAR))
def test_reused_workspace_gives_the_reports_of_fresh_buffers(variant, small_blocks,
                                                             monkeypatch):
    # each worker reuses its buffers for every tile it runs, whose shapes
    # differ (chunks of 2 and 1 paths, a last block of 4 steps): the reports
    # equal those of a run whose every buffer is fresh and NaN-filled (a
    # code buffer filled with 99), at 1, 2 and 3 workers
    spec = SCALAR[variant]
    cfg = ExperimentConfig(spec=spec, **small_blocks)
    assert len(experiments._chunk_layout(cfg.paths, cfg.horizon)) == 6
    ran = 0
    for experiment in entry_points(spec):
        with mock.patch.object(experiments._Workspace, "view",
                               lambda self, role, shape, dtype=np.float64: np.full(
                                   shape, np.nan if dtype == np.float64 else 99, dtype)):
            fresh = outcome(RUNS[experiment], cfg, 1)
        if isinstance(fresh, tuple):  # refused before any draw
            assert fresh[0] in ("DomainError", "CertificationError"), fresh
            continue
        ran += 1
        for workers in (1, 2, 3):
            assert outcome(RUNS[experiment], cfg, workers) == fresh, (experiment, workers)
    assert ran >= 3  # lil_track, cluster_set and sup_moment run on every variant


@pytest.mark.parametrize("budget, widest", [(20, 14), (5, 7)], ids=["two_rows", "one_row"])
def test_workspace_holds_one_tile_per_role(budget, widest, small_blocks, monkeypatch):
    # a chunk of 11 paths of 7-step blocks is 77 cells, and the grid's rows
    # are wider than either budget: every buffer holds at most the bytes of
    # one float64 tile of at most the budget's cells, or of one row where a
    # row is wider, whatever the variant and entry point; the unit-step
    # screen's int8 draws take more rows in those bytes
    monkeypatch.setattr(experiments, "_TARGET_CELLS", 11 * HORIZON)
    monkeypatch.setattr(experiments, "_TILE", budget)
    made = recorded_workspaces(monkeypatch)
    for spec in [*SCALAR.values(), MV]:
        cfg = ExperimentConfig(spec=spec, **{**small_blocks, "checkpoints": (
            (0.5, 10.0) if spec is MV else small_blocks["checkpoints"])})
        limit = MV.steps * MV.dim if spec is MV else widest
        for experiment in entry_points(spec):
            for workers in (1, 2):
                made.clear()
                try:
                    RUNS[experiment](cfg, workers)
                except (DomainError, CertificationError):
                    break
                sizes = [buf.nbytes for ws in made for role, buf in ws.bufs.items() if role != 3]
                assert sizes and max(sizes) <= 8 * limit, (experiment, spec)


def test_workspace_stays_at_the_budget_on_a_large_chunk(monkeypatch):
    # a chunk of 40 paths of 32768-step blocks is ten times the default
    # budget: on the paired per-cell path the draws hold half a float tile
    # and the complex pair of A and B^r one, and the codes one block
    assert experiments._BLOCK * 40 >= 10 * experiments._TILE
    made = recorded_workspaces(monkeypatch)
    cfg = ExperimentConfig(spec=ScaledSymmetric(), seed=1, paths=40,
                           horizon=experiments._BLOCK + 5, checkpoints=(100,))
    assert experiments._chunk_layout(cfg.paths, cfg.horizon) == [40]
    lil_track(cfg, workers=1)
    [ws] = made
    assert {role: buf.size for role, buf in ws.bufs.items()} == {
        0: experiments._TILE // 2, 1: experiments._TILE, 3: 40 * experiments._BLOCK}


# ---------------------------------------------------------------------------
# the ends path: a stop-only reducer gets the sums at its pieces' ends
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rows", [2, 3, 17])
def test_piece_ends_are_sequential_float_sums(rows):
    # each lane's steps added one by one in step order from the first, the
    # carry added at each stop, as cumsum then `+= carry` gives: across
    # stops inside the run and a one-step first piece, on terms of 16
    # decades, where the order of the adds shows in the bits
    rng = np.random.default_rng(rows)
    L, stops = 40, [1, 9, 10, 27, 40]
    x = rng.standard_normal((rows, L)) * 10.0 ** rng.integers(-8, 8, (rows, L))
    end = rng.standard_normal(rows)
    start, drawn = end.copy(), x.copy()
    got = experiments._piece_ends(x, end, stops, np.full((L, rows), np.nan))
    want = np.empty((rows, len(stops)))
    for p in range(rows):
        s = None
        for n, term in enumerate(drawn[p].tolist(), 1):
            s = term if s is None else s + term
            if n in stops:
                want[p, stops.index(n)] = s + start[p]
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == (np.cumsum(drawn, axis=1) + start[:, None])[:, np.subtract(stops, 1)].tobytes()
    assert end.tobytes() == got[:, -1].tobytes()  # the carry advanced to the last sum
    assert x.tobytes() == drawn.tobytes()


# each engine variant (every `_VARIANTS` class the scalar scan runs), and a
# deterministic one's per-cell twin, whose B^r the chunks sum
STOP_ONLY = {**SCALAR, **{f"{k}_per_cell": per_cell(v) for k, v in DETERMINISTIC.items()}}
STOP_ONLY_RUNS = ("supermartingale_mean", "tail_bound", "moment_bound", "growth_rate")


@pytest.fixture
def tiles_with_one_row_last(monkeypatch):
    """Tiles of `_ENDS_ROWS` rows, and chunks one path wider, so that each
    chunk's last tile has one row, and a last chunk of one path; blocks of
    25 steps with stops inside and on their edges."""
    wide = experiments._ENDS_ROWS
    monkeypatch.setattr(experiments, "_BLOCK", 25)
    monkeypatch.setattr(experiments, "_TILE", 25 * wide)
    monkeypatch.setattr(experiments, "_TARGET_CELLS", (wide + 1) * HORIZON)
    return dict(seed=4, paths=2 * wide + 3, horizon=HORIZON, checkpoints=(1, 20, 33, 50, HORIZON))


def ends_calls(monkeypatch):
    """The rows of every tile the scan reduces time-major."""
    rows, inner = [], experiments._piece_ends
    monkeypatch.setattr(experiments, "_piece_ends",
                        lambda x, *a: rows.append(x.shape[0]) or inner(x, *a))
    return rows


def test_ends_rows_threshold_keeps_one_lane_off_the_ends_path():
    assert experiments._ENDS_ROWS >= 2
    assert experiments._StateAtStops.ends_only
    assert not any(getattr(cls, "ends_only", False) for cls in (
        experiments._Crossings, experiments._RunningMax, experiments._Histograms))


def test_stop_only_cases_cover_every_scalar_variant():
    assert {type(s) for s in SCALAR.values()} == set(processes._VARIANTS.values()) - {MvBrownianGrid}


@pytest.mark.parametrize("variant", sorted(STOP_ONLY))
def test_ends_path_gives_the_bits_of_the_running_sums(variant, tiles_with_one_row_last,
                                                      monkeypatch):
    # every chunk's A, B^r and V^2 at each stop, and each stop-only report,
    # on the ends path equal those of the per-cell path bit for bit; the
    # one-row tiles stay per cell
    spec = STOP_ONLY[variant]
    cfg = ExperimentConfig(spec=spec, **tiles_with_one_row_last)
    layout = experiments._chunk_layout(cfg.paths, cfg.horizon)
    assert layout[-1] == 1 and layout[0] % experiments._ENDS_ROWS == 1

    def run():
        reds = experiments._Scan(cfg, 1)(
            lambda P: experiments._StateAtStops(P, len(cfg.checkpoints)), cfg.checkpoints, v=True)
        state = [(r.a.tobytes(), r.b.tobytes(), r.v.tobytes()) for r in reds]
        return state, [outcome(RUNS[e], cfg, w) for e in STOP_ONLY_RUNS for w in (1, 2)]

    rows = ends_calls(monkeypatch)
    ends = run()
    assert rows and min(rows) == experiments._ENDS_ROWS, rows
    rows.clear()
    with mock.patch.object(experiments, "_ENDS_ROWS", 10**9):
        assert run() == ends
    assert not rows


@pytest.mark.parametrize("variant", ["scaled_lognormal", "brownian_grid", "counterexample65"])
def test_ends_path_at_two_rows(variant, tiles_with_one_row_last, monkeypatch):
    # the fewest rows the ends path may take, on tiles of two rows and one
    spec = SCALAR[variant]
    monkeypatch.setattr(experiments, "_ENDS_ROWS", 2)
    monkeypatch.setattr(experiments, "_TILE", 25 * 2)
    cfg = ExperimentConfig(spec=spec, **{**tiles_with_one_row_last, "paths": 9})
    rows = ends_calls(monkeypatch)
    ends = [outcome(RUNS[e], cfg) for e in STOP_ONLY_RUNS]
    assert rows and set(rows) == {2}
    assert any(not isinstance(o, tuple) for o in ends)  # some report ran to the end
    with mock.patch.object(experiments, "_ENDS_ROWS", 10**9):
        assert [outcome(RUNS[e], cfg) for e in STOP_ONLY_RUNS] == ends


# ---------------------------------------------------------------------------
# the per-cell path: A and B^r (else V^2) as one complex running sum, over
# tiles half as tall
# ---------------------------------------------------------------------------

class EverySum:
    """A reducer that copies every cell's A, B^r and V^2 of its chunk (NaN
    where the scan sums none), from whole blocks (it is given no stops)."""

    def __init__(self, P, horizon):
        self.sums = np.full((3, P, horizon), np.nan)

    def segment(self, rows, n_idx, ca, cb, cv, k):
        assert k is None
        for x, out in zip((ca, cb, cv), self.sums):
            if x is not None:
                out[rows, n_idx[0] - 1:n_idx[-1]] = x


def plain_chunk_sums(spec, seed, P, horizon, block, b, v):
    """EverySum's sums of chunk 0 of P paths: each block drawn in one call on
    the chunk's stream, and A, B^r and V^2 summed by separate float cumsums
    plus the carry."""
    rng, sums = processes.chunk_rng(seed, 0), np.full((3, P, horizon), np.nan)
    carry = [np.zeros(P) for _ in range(3)]
    rule = spec.b_increments if b is True else b
    for lo in range(0, horizon, block):
        hi = min(lo + block, horizon)
        n_idx, shape = np.arange(lo + 1, hi + 1), (P, hi - lo)
        codes = spec.codes(rng, np.empty(shape, np.int8)) if spec.coded else None
        d = spec.draw(rng, lo, hi, P, np.empty(shape), codes)
        terms = (d, rule(d, n_idx, np.empty_like(d)) if b else None, d * d if v else None)
        for j, x in enumerate(terms):
            if x is not None:
                sums[j, :, lo:hi] = np.cumsum(x, axis=1) + carry[j][:, None]
                carry[j] = sums[j, :, hi - 1].copy()
    return sums


def abs_pow(d, n_idx, out):
    """sup_moment_estimate's plain |d|^r rule at r = 1.5."""
    return processes._abs_pow(d, 1.5, out)


PAIRED = {"scaled_lognormal": ScaledSymmetric(),
          "bounded_below_r15": BoundedBelow(m_bound=1.0, gamma=0.5, r=1.5),
          "truncated_heavy": TruncatedCentering(base="heavy", alpha=0.5, d1=1.0, d2=1.0)}


@pytest.mark.parametrize("tile_rows, groups", [(5, [2, 2, 2, 2, 2, 1] * 4),
                                               (4, [2, 2, 2, 2, 2, 1] * 4),
                                               (1, [None] * 33 + [1] * 11)])
@pytest.mark.parametrize("b, v", [(True, False), (False, True), (True, True), (abs_pow, False)],
                         ids=["b", "v", "bv", "abs_pow"])
@pytest.mark.parametrize("variant", sorted(PAIRED))
def test_per_cell_sums_one_pair_a_tile(variant, b, v, tile_rows, groups, monkeypatch):
    # 11 paths of four blocks, the last short, at a float tile of tile_rows
    # rows: a float tile's bytes hold half its rows complex, so the per-cell
    # tiles are tile_rows // 2 rows tall and each `accumulate` call gets a
    # pair covering its whole tile (the chunk's last tile has one row); at a
    # float tile of one row, the pair cannot hold a 40-step row, which keeps
    # float sums, but holds the last block's 10 steps; every cell's sums are
    # those of separate float cumsums
    monkeypatch.setattr(experiments, "_BLOCK", 40)
    monkeypatch.setattr(experiments, "_TILE", 40 * tile_rows)
    spec = PAIRED[variant]
    cfg = ExperimentConfig(spec=spec, seed=6, paths=11, horizon=130)
    assert experiments._chunk_layout(cfg.paths, cfg.horizon) == [11]
    pairs, accumulate = [], processes._Variant.accumulate

    def spied(self, d, n_idx, carry, b, v, out, pair=None):
        assert pair is None or pair.shape == d.shape  # the pair covers the whole tile
        pairs.append(None if pair is None else pair.shape[0])
        return accumulate(self, d, n_idx, carry, b, v, out, pair)

    monkeypatch.setattr(processes._Variant, "accumulate", spied)
    [chunk] = experiments._Scan(cfg, 1)(lambda P: EverySum(P, cfg.horizon), b=b, v=v)
    assert pairs == groups
    want = plain_chunk_sums(spec, cfg.seed, cfg.paths, cfg.horizon, 40, b, v)
    assert chunk.sums.tobytes() == want.tobytes()
    assert np.isnan(chunk.sums[1]).all() != bool(b) and np.isnan(chunk.sums[2]).all() != v


def stops_and_pairs(spec, paths, horizon, stops, monkeypatch):
    """A one-chunk `_StateAtStops` scan at the production `_TILE` and
    `_BLOCK`, with B^r and V^2: its state, the rows of each tile the chunk's
    `accumulate` gets and each one's pair rows (None for float sums), after
    checking that each is one whole tile drawn, and the rows of each tile
    `_piece_ends` reduces; and the state's want, from separate float cumsums
    of each block drawn whole."""
    cfg = ExperimentConfig(spec=spec, seed=8, paths=paths, horizon=horizon, checkpoints=stops)
    assert experiments._chunk_layout(cfg.paths, cfg.horizon) == [paths]
    calls, accumulate, drawn, draw = [], processes._Variant.accumulate, [], type(spec).draw

    def spied(self, d, n_idx, carry, b, v, out, pair=None):
        assert pair is None or pair.shape == d.shape
        calls.append((d.shape[0], None if pair is None else pair.shape[0]))
        return accumulate(self, d, n_idx, carry, b, v, out, pair)

    monkeypatch.setattr(processes._Variant, "accumulate", spied)
    monkeypatch.setattr(type(spec), "draw", lambda self, rng, lo, hi, rows, *a:
                        drawn.append(rows) or draw(self, rng, lo, hi, rows, *a))
    ends = ends_calls(monkeypatch)
    [red] = experiments._Scan(cfg, 1)(lambda P: experiments._StateAtStops(P, len(stops)),
                                      stops, v=True)
    assert [rows for rows, _ in calls] == [rows for rows in drawn if rows < experiments._ENDS_ROWS]
    sums = plain_chunk_sums(spec, cfg.seed, paths, horizon, experiments._BLOCK, True, True)
    at = np.subtract(stops, 1)
    got = [x.tobytes() for x in (red.a, red.b, red.v)]
    return got, [x[:, at].tobytes() for x in sums], calls, ends


def test_ends_scan_below_the_ends_rows_sums_one_pair_a_tile(monkeypatch):
    # a supermartingale-mean scan over 6000 steps: a float tile holds 10 rows,
    # under `_ENDS_ROWS`, so every tile goes per cell, and the tiles are half
    # as tall, 5 rows, each summed as one complex pair of A and B^r; the
    # state at each stop is the bits of separate float cumsums
    assert experiments._TILE // 6000 < experiments._ENDS_ROWS
    got, want, calls, ends = stops_and_pairs(ScaledSymmetric(), 7, 6000, (1, 3000, 6000),
                                             monkeypatch)
    assert calls == [(5, 5), (2, 2)] and not ends
    assert got == want


@pytest.mark.parametrize("paths, last", [(25, (9, None)), (23, (7, 7))])
def test_ends_path_last_tile_keeps_float_sums_the_pair_cannot_hold(paths, last, monkeypatch):
    # over 4096 steps a float tile holds 16 rows, which go the ends path
    # whole; the chunk's short last tile goes per cell, as a pair where its
    # two floats a cell fit a float tile (7 rows) and as float sums where
    # they do not (9 rows); both give the bits of separate float cumsums
    assert experiments._TILE // 4096 == 16 >= experiments._ENDS_ROWS
    got, want, calls, ends = stops_and_pairs(ScaledSymmetric(), paths, 4096, (100, 4096),
                                             monkeypatch)
    assert calls == [last] and ends == [16] * 3  # A, B^r and V^2
    assert got == want


# ---------------------------------------------------------------------------
# the unit-step screen: lil and crossing scans on a +-1 walk decide 64-step
# segments from their exact A at the segment edges
# ---------------------------------------------------------------------------

def int8_tile(rows, width):
    """The least `_TILE` whose byte budget gives the unit-step screen int8
    tiles of at least `rows` rows of `width` steps; exactly `rows` where
    width >= 8, and the callers check the rows they get."""
    return -(-rows * width // 8)


UNIT = {
    "rademacher": Rademacher(),
    "rademacher_r15": Rademacher(r=1.5),
    "weighted_iid_ones": WeightedIID(weights="ones"),
}
# a low boundary, which most uncrossed segments may reach and most paths
# cross (a crossed path's segments are skipped), and the Robbins-Siegmund
# one, which fewer reach and cross
SCREENED = {
    "lil_track": lambda cfg: lil_track(cfg),
    "crossing_low": lambda cfg: crossing_frequency(cfg, mixture=MIXTURE, c=1.2),
    "crossing_rs": lambda cfg: crossing_frequency(
        cfg, mixture=RobbinsSiegmund(1.0), c=2.0),
}


@pytest.mark.parametrize("skip", ["default", "never"])
@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("experiment", sorted(SCREENED))
@pytest.mark.parametrize("variant", sorted(UNIT))
def test_unit_step_screen_gives_the_per_cell_bits(variant, experiment, rows, skip,
                                                  monkeypatch):
    # blocks of 100 steps in int8 tiles of 1 or 2 rows, chunks of 5 paths; stops
    # at the first step, at B_n >= e^2 (n = 55 at r = 2), on both sides of
    # and on a segment edge, in the second block and at the horizon: each
    # report equals the per-cell path's, which `unit_steps` off selects. The
    # open segments are summed by `_segment_runs`, here a segment a group (a
    # float tile holds fewer than 64 cells). With the reducers' own bounds
    # some segments are never summed; with bounds that rule none out
    # ("never": beta's least -inf, den's least and greatest +-1e-300, so
    # only a crossed path, or a lil segment that stays at or below 0 against
    # a running max >= 0, is skipped), whole pieces of open segments go
    # through `_segment_runs`
    horizon = 260
    monkeypatch.setattr(experiments, "_BLOCK", 100)
    monkeypatch.setattr(experiments, "_TILE", int8_tile(rows, 100))
    monkeypatch.setattr(experiments, "_TARGET_CELLS", 5 * horizon)
    if skip == "never":
        for cls, opened in ((experiments._Crossings,
                             lambda seg, least: (seg, np.full_like(least, -np.inf))),
                            (experiments._RunningMax,
                             lambda den, guard, seg, least, most: (
                                 den, guard, seg, np.full_like(least, 1e-300),
                                 np.full_like(most, -1e-300)))):
            monkeypatch.setattr(cls, "screen", staticmethod(
                lambda cb, bounds=cls.screen, opened=opened: opened(*bounds(cb))))
    spec = UNIT[variant]
    cfg = ExperimentConfig(spec=spec, seed=11, paths=23, horizon=horizon,
                           checkpoints=(1, 55, 63, 64, 65, 130, horizon))
    counted = {"segments": 0, "alone": 0}
    tiles = set()

    def count(name, key, cells):
        inner = getattr(experiments, name)

        def spy(*args):
            counted[key] += cells(*args)
            return inner(*args)
        monkeypatch.setattr(experiments, name, spy)

    count("_segment_edges", "segments",
          lambda d, end: tiles.add(d.shape[0]) or d.shape[0] * -(-d.shape[1] // 64))
    count("_segment_runs", "alone", lambda d, a, p, s: p.size)
    screened = outcome(SCREENED[experiment], cfg)
    assert not isinstance(screened, tuple), screened
    assert max(tiles) == rows, tiles
    assert 0 < counted["alone"] <= counted["segments"], counted
    if skip == "default":  # some segments were never summed
        assert counted["alone"] < counted["segments"], counted
    counted.update(segments=0)
    monkeypatch.setattr(type(spec), "unit_steps", False)
    assert outcome(SCREENED[experiment], cfg) == screened
    assert counted["segments"] == 0


@pytest.mark.parametrize("statistic", ["crossing", "lil"])
def test_only_the_default_statistics_take_the_screen(statistic, monkeypatch):
    # a _Crossings given a rule and a _RunningMax given a stat declare no
    # screen, even where the rule or stat is the default's own formula: on a
    # Rademacher walk with a shared B^r row they run per cell (no
    # `_segment_edges` call), and their reports are the bits of the
    # defaults', which the screen runs. So the Gaussian rule, `_hit_cells`
    # and the non-lil statistics never meet a bound made for A >= beta or
    # the lil quotient
    horizon = 260
    monkeypatch.setattr(experiments, "_BLOCK", 100)
    monkeypatch.setattr(experiments, "_TILE", int8_tile(2, 100))
    monkeypatch.setattr(experiments, "_TARGET_CELLS", 5 * horizon)
    cfg = ExperimentConfig(spec=Rademacher(), seed=11, paths=23, horizon=horizon,
                           checkpoints=(1, 55, 64, 130, horizon))
    stops = len(cfg.checkpoints)
    if statistic == "crossing":
        beta = experiments._boundary_interpolant(MIXTURE, 1.2, 2.0, 1e-4, 16.0 * horizon)
        of_b = lambda cb: beta(np.maximum(cb, 1e-4))
        make = lambda given: lambda P: experiments._Crossings(P, stops, given)
        given, kept = lambda ca, cb, crossed: (ca >= cb).any(axis=1), ("crossed", "counts")
    else:
        of_b = lambda cb: experiments._lil_normalizer(cb, 2.0)
        make = lambda given: lambda P: experiments._RunningMax(P, stops, given)
        given, kept = experiments._RunningMax.quotient, ("run", "maxima", "values")
    edges, inner = [], experiments._segment_edges
    monkeypatch.setattr(experiments, "_segment_edges",
                        lambda d, end: edges.append(d.shape) or inner(d, end))
    scan = experiments._Scan(cfg, 1)

    def reports(rule_or_stat):
        edges.clear()
        reds = scan(make(rule_or_stat), list(cfg.checkpoints), of_b=of_b)
        assert all((red.screen is None) == (rule_or_stat is not None) for red in reds)
        return [getattr(red, key).tobytes() for red in reds for key in kept], len(edges)

    default, screened = reports(None)
    own, per_cell = reports(given)
    assert screened > 0 and per_cell == 0, (screened, per_cell)
    assert own == default


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32), rows=st.integers(1, 4), steps=st.integers(1, 200),
       start=st.integers(-250, 250))
def test_screened_reducers_match_segment_on_any_row(seed, rows, steps, start):
    # one piece of +-1 walks from scattered starts against rows that are neither monotone nor
    # smooth: den, the guard and beta (with NaN and infinities) drawn per
    # step, and running maxima and crossing flags from before the piece
    # drawn too. The screen assumes nothing of the row, so it gives
    # segment's bits. Path 0 walks straight up, so at a segment's last step,
    # j, it meets the segment's bound: there den is least and beta equals
    # A (and is least unless a -inf falls in), and the path's running max
    # is a ulp below its lil maximum.
    rng = np.random.default_rng(seed)
    d = rng.choice([-1.0, 1.0], (rows, steps))
    d[0] = 1.0
    end = start + rng.integers(-60, 60, rows).astype(float)
    end[0] = start
    n_idx = np.arange(1, steps + 1)
    ca = np.cumsum(d, axis=1) + end[:, None]
    j = min(steps, 64 * int(rng.integers(1, 4))) - 1
    den = rng.uniform(0.5, 40.0, steps)
    guard = rng.random(steps) < 0.8
    den[j], guard[j] = den.min() / 4.0, True
    beta = ca[0, -1] + rng.uniform(0.5, 30.0, steps)
    odd = rng.random(steps) < 0.1
    beta[odd] = rng.choice([np.nan, np.inf], np.count_nonzero(odd))
    if rng.random() < 0.2:
        beta[rng.integers(steps)] = -np.inf
    beta[j] = ca[0, j]
    run = np.where(rng.random(rows) < 0.2, -np.inf, rng.uniform(-6.0, 6.0, rows))
    run[0] = np.nextafter(np.max(np.where(guard, ca[0] / den, -np.inf)), -np.inf)
    crossed = rng.random(rows) < 0.3
    crossed[0] = False
    reducers = []
    for screen in (False, True):
        lil, cross = experiments._RunningMax(rows, 1), experiments._Crossings(rows, 1)
        lil.run[:], cross.crossed[:] = run, crossed
        if screen:
            a = experiments._segment_edges(d, end.copy())
            assert a[:, -1].tobytes() == ca[:, -1].tobytes()
            steps_before = d.copy()
            lil.screened(slice(0, rows), n_idx, d, a, lil.screen((den, guard)), 0)
            cross.screened(slice(0, rows), n_idx, d, a, cross.screen(beta), 0)
            assert np.array_equal(d, steps_before)  # the steps are only read
        else:
            lil.segment(slice(0, rows), n_idx, ca.copy(), (den, guard), None, 0)
            cross.segment(slice(0, rows), n_idx, ca.copy(), beta, None, 0)
        reducers.append([x.tobytes() for x in (lil.run, lil.maxima, lil.values,
                                                cross.crossed, cross.counts)])
    assert reducers[0] == reducers[1]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("experiment", sorted(SCREENED))
@pytest.mark.parametrize("variant", sorted(UNIT))
def test_screen_draws_and_sums_one_byte_signs(variant, experiment, workers, monkeypatch):
    # blocks of 99 steps in int8 tiles of 3 rows, 297 cells: each tile leaves
    # half a word held for the next, in the same block and across blocks;
    # chunks of 7 paths end on a tile of 1 row, and 23 paths on a chunk of
    # 2. Stops at 60 and 130 cut pieces of 60, 39, 31 and 68 steps, and the
    # last block has 52, so pieces end on segments shorter than 64. The
    # screen draws into int8 and sums int8, and the running sums of its open
    # segments are float64; with `unit_steps` off every draw is float64 and
    # nothing is summed by segment, and the reports are the same bits. The
    # experiments take their worker count from SELFNORM_WORKERS
    horizon = 250
    monkeypatch.setenv("SELFNORM_WORKERS", str(workers))
    monkeypatch.setattr(experiments, "_BLOCK", 99)
    monkeypatch.setattr(experiments, "_TILE", int8_tile(3, 99))
    monkeypatch.setattr(experiments, "_TARGET_CELLS", 7 * horizon)
    spec = UNIT[variant]
    cfg = ExperimentConfig(spec=spec, seed=5, paths=23, horizon=horizon,
                           checkpoints=(1, 60, 99, 130, horizon))
    seen = {"draw": set(), "edges": set(), "runs": set()}
    cls = type(spec)
    draw = cls.draw
    tiles = set()

    def spy_draw(self, rng, n_lo, n_hi, n_paths, out, codes):
        seen["draw"].add(out.dtype.name)
        tiles.add(n_paths)
        return draw(self, rng, n_lo, n_hi, n_paths, out, codes)

    def spy(name, key):
        inner = getattr(experiments, name)

        def spied(d, *args):
            seen[key].add(d.dtype.name)
            return inner(d, *args)
        monkeypatch.setattr(experiments, name, spied)

    def spy_runs(*args, runs=experiments._segment_runs):
        for g, x in runs(*args):
            seen["runs"].add(x.dtype.name)
            yield g, x

    monkeypatch.setattr(cls, "draw", spy_draw)
    spy("_segment_edges", "edges")
    monkeypatch.setattr(experiments, "_segment_runs", spy_runs)
    screened = outcome(SCREENED[experiment], cfg)
    assert not isinstance(screened, tuple), screened
    assert seen == {"draw": {"int8"}, "edges": {"int8"}, "runs": {"float64"}}, seen
    assert tiles == {3, 2, 1}, tiles
    for key in seen:
        seen[key].clear()
    monkeypatch.setattr(cls, "unit_steps", False)
    assert outcome(SCREENED[experiment], cfg) == screened
    assert seen == {"draw": {"float64"}, "edges": set(), "runs": set()}, seen


# the test_golden cases on which the unit-step screen runs
GOLDEN_SCREEN = ["crossing-rademacher", "crossing-weighted_iid_ones", "lil_track-rademacher",
                 "lil_track-weighted_iid_ones"]


@pytest.mark.parametrize("case", GOLDEN_SCREEN)
def test_seeded_screen_digest_in_two_row_int8_tiles(case, monkeypatch):
    # test_golden's two-row budget gives the screen's int8 draws a whole
    # chunk of 5 paths a tile; here they take tiles of 2, 2 and 1 rows, and
    # the digests are the same
    block, run = test_golden.CASES[case]
    monkeypatch.setattr(experiments, "_BLOCK", block)
    monkeypatch.setattr(experiments, "_TARGET_CELLS", 5 * test_golden.HORIZON)
    monkeypatch.setattr(experiments, "_TILE", int8_tile(2, block))
    tiles, edges = set(), experiments._segment_edges
    monkeypatch.setattr(experiments, "_segment_edges",
                        lambda d, end: tiles.add((d.dtype.name, d.shape[0])) or edges(d, end))
    assert test_golden.digest(run()) == test_golden.DIGESTS[case]
    assert tiles == {("int8", 2), ("int8", 1)}, tiles


@pytest.mark.parametrize("experiment", ["lil_track", "crossing_rs"])
def test_screen_stays_at_the_budget_on_a_large_chunk(experiment, monkeypatch):
    # a chunk of 40 paths of 32768-step blocks: the screen's int8 draws take
    # 16 rows, the bytes of one float tile, its workspace holds nothing
    # else, and `_segment_runs` sums a piece's open segments in groups of a
    # float tile, _TILE // 64 segments, the last group taking the rest (on
    # lil_track, whose running max starts at -inf, some piece has more
    # open segments than one group holds); the reports equal those of the
    # per-cell path
    made = recorded_workspaces(monkeypatch)
    groups = []

    def spy_runs(d, a, p, s, runs=experiments._segment_runs):
        groups.append((p.size, []))
        for g, x in runs(d, a, p, s):
            assert x.shape[1] == experiments._SCREEN_STEPS
            groups[-1][1].append(x.shape[0])
            yield g, x
    monkeypatch.setattr(experiments, "_segment_runs", spy_runs)
    cfg = ExperimentConfig(spec=Rademacher(), seed=1, paths=40,
                           horizon=experiments._BLOCK + 5, checkpoints=(100,))
    assert experiments._chunk_layout(cfg.paths, cfg.horizon) == [40]
    screened = outcome(SCREENED[experiment], cfg)
    assert not isinstance(screened, tuple), screened
    [ws] = made
    tile = experiments._TILE
    assert {role: (buf.dtype.name, buf.size) for role, buf in ws.bufs.items()} == {
        0: ("int8", 8 * tile)}
    most = tile // experiments._SCREEN_STEPS
    assert groups and all(sizes == [min(most, n - lo) for lo in range(0, n, most)]
                          for n, sizes in groups), groups
    assert experiment != "lil_track" or any(n > most for n, _ in groups), groups
    groups.clear()
    with mock.patch.object(Rademacher, "unit_steps", False):
        assert outcome(SCREENED[experiment], cfg) == screened
    assert not groups


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32), rows=st.integers(1, 4), steps=st.integers(64, 260),
       start=st.integers(-250, 250))
def test_screened_reducers_match_segment_on_int8_steps(seed, rows, steps, start):
    # the sibling above on the scan's own input: int8 steps, summed in int8
    # a segment at a time, and the open segments' running sums cast to
    # float64 by `_segment_runs`. Path 0 rises its first 64 steps straight,
    # so its first segment sums to +64, and path 1 falls them, to -64: the
    # int8 reduce holds both. At j, path 0's first segment end, den is least
    # and beta equals A, and path 0's running max is a ulp below its lil
    # maximum.
    rng = np.random.default_rng(seed)
    d = rng.choice(np.array([-1, 1], np.int8), (rows, steps))
    d[0, :64] = 1
    d[1:2, :64] = -1
    end = start + rng.integers(-60, 60, rows).astype(float)
    end[0] = start
    n_idx = np.arange(1, steps + 1)
    ca = np.cumsum(d.astype(float), axis=1) + end[:, None]
    j = 63
    den = rng.uniform(0.5, 40.0, steps)
    guard = rng.random(steps) < 0.8
    den[j], guard[j] = den.min() / 4.0, True
    beta = ca[0, -1] + rng.uniform(0.5, 30.0, steps)
    odd = rng.random(steps) < 0.1
    beta[odd] = rng.choice([np.nan, np.inf], np.count_nonzero(odd))
    beta[j] = ca[0, j]
    run = np.where(rng.random(rows) < 0.2, -np.inf, rng.uniform(-6.0, 6.0, rows))
    run[0] = np.nextafter(np.max(np.where(guard, ca[0] / den, -np.inf)), -np.inf)
    crossed = rng.random(rows) < 0.3
    crossed[0] = False
    a = experiments._segment_edges(d, end.copy())
    assert a[0, 1] - a[0, 0] == 64.0 and (rows == 1 or a[1, 1] - a[1, 0] == -64.0)
    assert a.tobytes() == experiments._segment_edges(d.astype(float), end.copy()).tobytes()
    assert a[:, -1].tobytes() == ca[:, -1].tobytes()
    steps_before = d.copy()
    reducers = []
    for screen in (False, True):
        lil, cross = experiments._RunningMax(rows, 1), experiments._Crossings(rows, 1)
        lil.run[:], cross.crossed[:] = run, crossed
        if screen:
            lil.screened(slice(0, rows), n_idx, d, a, lil.screen((den, guard)), 0)
            cross.screened(slice(0, rows), n_idx, d, a, cross.screen(beta), 0)
        else:
            lil.segment(slice(0, rows), n_idx, ca.copy(), (den, guard), None, 0)
            cross.segment(slice(0, rows), n_idx, ca.copy(), beta, None, 0)
        reducers.append([x.tobytes() for x in (lil.run, lil.maxima, lil.values,
                                                cross.crossed, cross.counts)])
    assert reducers[0] == reducers[1]
    assert np.array_equal(d, steps_before)  # the int8 steps are only read


@pytest.mark.parametrize("dtype", [np.int8, np.float64])
def test_screens_count_a_segment_peak_at_their_bound(dtype):
    # one 64-step segment of 32 up-steps then 32 down-steps from A = 5 ends
    # where it began and peaks at 37, which is `_segment_top`'s bound (5 + 5
    # + 64) / 2: a beta that A meets only at the peak is a crossing, and a
    # running max a ulp below the peak's quotient rises to it. A bound a
    # step lower would skip the segment, and so miss both
    d = np.array([[1] * 32 + [-1] * 32], dtype)
    a = experiments._segment_edges(d, np.array([5.0]))
    assert a.tolist() == [[5.0, 5.0]] and experiments._segment_top(a).tolist() == [[37.0]]
    n_idx = np.arange(1, 65)
    beta = np.full(64, 40.0)
    beta[31] = 37.0  # A after the 32nd step
    cross = experiments._Crossings(1, 1)
    cross.screened(slice(0, 1), n_idx, d, a, cross.screen(beta), 0)
    assert cross.crossed.tolist() == [True] and cross.counts.tolist() == [1]
    lil = experiments._RunningMax(1, 1)
    lil.run[:] = np.nextafter(37.0 / 2.0, -np.inf)
    lil.screened(slice(0, 1), n_idx, d, a, lil.screen((np.full(64, 2.0), np.ones(64, bool))), 0)
    assert lil.run.tolist() == [18.5] and lil.maxima.tolist() == [[18.5]]


# ---------------------------------------------------------------------------
# the tile path each benchmark-shaped input takes at the production `_TILE`
# and `_BLOCK`: a path change moves no digest, so it is pinned here
# ---------------------------------------------------------------------------

SUITE = os.path.join(os.path.dirname(__file__), "..", "src", "selfnorm", "suites",
                     "suite_supermartingales.json")
RS_C = 10.0  # times the mixture's mass, as in the benchmark's crossings


def suite_rows(paths):
    """The bundled suite's supermartingale rows, each run at `paths` paths,
    and the classes of their specs."""
    with open(SUITE) as f:
        suite = json.load(f)
    for entry in suite["experiments"]:
        entry["config"]["paths"] = paths
    classes = {type(processes.spec_from_json(e["config"]["spec"])) for e in suite["experiments"]}
    return classes, lambda: cli.run_suite(suite, None, 1)


def long_walk(spec, paths):
    """A config of `paths` paths over one block and 5 steps."""
    return ExperimentConfig(spec=spec, seed=3, paths=paths, horizon=experiments._BLOCK + 5)


def rs_crossing(spec, paths):
    F = RobbinsSiegmund(1.0)
    return lambda: crossing_frequency(long_walk(spec, paths), mixture=F, c=RS_C * F.total_mass)


LOGNORMAL = ScaledSymmetric(law="lognormal", mu=0.0, sigma=1.0)
BENCHMARK_SHAPED = {
    "crossing_rademacher": ({Rademacher}, rs_crossing(Rademacher(), 40)),
    "lil_rademacher": ({Rademacher}, lambda: lil_track(long_walk(Rademacher(), 40))),
    "crossing_lognormal": ({ScaledSymmetric}, rs_crossing(LOGNORMAL, 20)),
    "verify_suite": suite_rows(40),
}


@pytest.mark.parametrize("case", sorted(BENCHMARK_SHAPED))
def test_benchmark_shaped_inputs_take_their_tile_paths(case, monkeypatch):
    # the unit-step screen runs every tile of a Rademacher crossing and lil
    # scan (one piece a block, so one `_segment_edges` call a draw, in int8);
    # a lognormal crossing sums A and B^r as a complex pair over tiles of
    # half a float tile's rows, one row here, one paired call a tile, and
    # gives `_hit_cells` the row screen's floor;
    # the suite's supermartingale rows, one tile of every path, are reduced
    # at the piece ends. Only the shared B^r row is summed apart from these
    classes, run = BENCHMARK_SHAPED[case]
    seen = {"draws": 0, "edges": [], "ends": [], "pairs": [], "floors": []}

    def spy(obj, name, record):
        inner = getattr(obj, name)

        def spied(*args):
            record(*args)
            return inner(*args)
        monkeypatch.setattr(obj, name, spied)

    spy(experiments, "_segment_edges", lambda d, end: seen["edges"].append(d.dtype.name))
    spy(experiments, "_piece_ends", lambda x, *a: seen["ends"].append(x.shape[0]))
    spy(experiments, "_hit_cells",
        lambda ca, cb, beta, skip, floor=None, slack=None: seen["floors"].append(
            floor is not None))
    for c in classes:
        spy(c, "draw", lambda *a: seen.update(draws=seen["draws"] + 1))
        # the chunks' sums, whose carry is a tuple of arrays; the shared
        # row's carry is one array
        spy(c, "accumulate", lambda self, d, n_idx, carry, b, v, out, pair=None:
            isinstance(carry, tuple) and seen["pairs"].append(0 if pair is None else len(pair)))
    run()
    draws, edges, ends, pairs, floors = seen.values()
    assert draws > 0 and not any(issubclass(a, b) for a in classes for b in classes - {a})
    if case in ("crossing_rademacher", "lil_rademacher"):
        assert edges == ["int8"] * draws and not ends and not pairs, seen
    elif case == "crossing_lognormal":
        half = experiments._TILE // experiments._BLOCK // 2
        assert half == 1 and pairs == [half] * draws, seen
        assert floors and all(floors) and not edges and not ends, seen
    else:
        assert ends and set(ends) == {40} and not edges and not pairs, seen
