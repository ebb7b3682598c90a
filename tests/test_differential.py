"""Engine against single-path handle on identical increments.

Each variant is replaced by a same-named subclass whose `draw` returns
slices of one fixed array, so `ProcessHandle` and the block engine see the
same increments. They must then agree on the state (A, B^r, V^2), on every
lil statistic the variant supports against the public scalar statistics of
the handle's state, and on the certified weight."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from selfnorm import experiments, processes
from selfnorm.bounds import DEFAULT_LOG_FLOOR, lil_statistic, universal_statistic
from selfnorm.experiments import ExperimentConfig, check_supermartingale_mean, lil_track
from selfnorm.processes import (Bernstein, BoundedAbove, BoundedBelow,
                                BrownianGrid, CertificationError,
                                Counterexample56, Counterexample65, Rademacher,
                                ScaledSymmetric, TruncatedCentering, WeightedIID,
                                chunk_rng, exp_supermartingale_value, make_process)

HORIZON = 3000
CHECKPOINTS = (1, 2, 17, 500, 2048, HORIZON)
REL = 1e-12

VARIANTS = {
    "rademacher": Rademacher(),
    "scaled_lognormal": ScaledSymmetric(law="lognormal", mu=0.1, sigma=0.7),
    "scaled_pareto": ScaledSymmetric(law="pareto", shape=2.5, xm=1.0),
    "bounded_above": BoundedAbove(m_bound=0.5, lambda0=1.5),
    "bernstein": Bernstein(m_bound=0.5),
    "bounded_below_r15": BoundedBelow(m_bound=1.0, gamma=0.5, r=1.5),
    "brownian_grid": BrownianGrid(times=tuple(0.05 * k for k in range(1, HORIZON + 1))),
    "counterexample56": Counterexample56(),
    "counterexample65": Counterexample65(),
    "truncated_normal": TruncatedCentering(base="normal", lam=1.0),
    "truncated_heavy": TruncatedCentering(base="heavy", alpha=0.5, d1=1.0, d2=1.0),
    "truncated_heavy_asym": TruncatedCentering(base="heavy", alpha=0.6, d1=1.0, d2=2.0),
    "weighted_iid_ones": WeightedIID(weights="ones"),
}


def drawn(spec, rng, steps, paths):
    """Steps 1..steps of `paths` paths as one block: a coded variant's codes,
    then the draw."""
    shape = (paths, steps)
    codes = spec.codes(rng, np.empty(shape, np.int8)) if spec.coded else None
    return spec.draw(rng, 0, steps, paths, np.empty(shape), codes)


def replayed(spec, seed=2024):
    """`spec` with draws replaced by slices of one fixed (1, L) array, drawn
    once from the variant's own law; L covers the handle's whole `_BUFFER`
    refills up to HORIZON, capped at `spec.steps`."""
    steps = min(-(-HORIZON // processes._BUFFER) * processes._BUFFER, spec.steps)
    fixed = drawn(spec, np.random.default_rng(seed), steps, 1)

    def draw(self, rng, n_lo, n_hi, n_paths, out, codes):
        assert n_paths == 1 and n_hi <= steps
        out[...] = fixed[:, n_lo:n_hi]
        return out

    cls = type(type(spec).__name__, (type(spec),), {"draw": draw})
    return cls(**{f: getattr(spec, f) for f in spec.__dataclass_fields__})


def handle_at(spec, n):
    h = make_process(spec, seed=0)
    for _ in range(n):
        h.step()
    return h


class StopStates:
    """A reducer that keeps, for each stop, the last step of the piece tagged
    with it and path 0's (A, B^r, V^2) there."""

    def __init__(self, P):
        self.states = {}

    def segment(self, rows, n_idx, ca, cb, cv, k):
        if k is not None:
            self.states[k] = (int(n_idx[-1]), ca[0, -1], np.ravel(cb[..., -1])[0], cv[0, -1])


def engine_states(spec, checkpoints=CHECKPOINTS, horizon=HORIZON):
    cfg = ExperimentConfig(spec=spec, seed=0, paths=1, horizon=horizon)
    [chunk] = experiments._Scan(cfg, 1)(StopStates, tuple(checkpoints), b=True, v=True)
    # each stop's tag lands on the piece that ends at its step
    assert [chunk.states[k][0] for k in sorted(chunk.states)] == list(checkpoints)
    return {n: chunk.states[k][1:] for k, n in enumerate(checkpoints)}


def close(got, want):
    return got == pytest.approx(want, rel=REL, abs=0.0)


@pytest.fixture(scope="module", params=sorted(VARIANTS))
def case(request):
    spec = replayed(VARIANTS[request.param])
    return spec, {n: handle_at(spec, n) for n in CHECKPOINTS}


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    # blocks of 1000 steps: the engine carries its state across blocks
    monkeypatch.setattr(experiments, "_BLOCK", 1000)


def test_state(case):
    spec, handle = case
    engine = engine_states(spec)
    for n in CHECKPOINTS:
        a, b, v = engine[n]
        h = handle[n]
        assert close(a, h.a) and close(b, h.b_pow_r) and close(v, h.v_sq), n


def test_state_is_exact_on_the_handle_blocks(case, monkeypatch):
    # with the engine's blocks as long as the handle's buffers, both run the
    # same `accumulate` calls on the same draws: equal to the last bit at
    # every step around two buffer edges
    spec, _ = case
    monkeypatch.setattr(experiments, "_BLOCK", processes._BUFFER)
    edges = [n + k for n in (processes._BUFFER, 2 * processes._BUFFER) for k in (-1, 0, 1)]
    cks = sorted(set(CHECKPOINTS) | set(edges))
    assert HORIZON > 2 * processes._BUFFER
    engine = engine_states(spec, cks)
    h = make_process(spec, seed=0)
    for n in range(1, HORIZON + 1):
        h.step()
        if n in engine:
            got = [float(x).hex() for x in engine[n]]
            assert got == [h.a.hex(), h.b_pow_r.hex(), h.v_sq.hex()], n


# A stepping handle costs a few microseconds a step, so the property test
# below keeps its horizons short.
@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(variant=st.sampled_from(sorted(VARIANTS)), seed=st.integers(0, 2**32 - 1),
       block=st.integers(1, 300), horizon=st.integers(1, 400), data=st.data())
def test_state_on_random_increments(variant, seed, block, horizon, data):
    # the increments are a fresh draw from the variant's law for each seed,
    # and the engine's blocks of any size carry the state across their edges
    spec = replayed(VARIANTS[variant], seed)
    cks = sorted(data.draw(st.sets(st.integers(1, horizon), min_size=1, max_size=5)))
    with mock.patch.object(experiments, "_BLOCK", block):
        engine = engine_states(spec, cks, horizon)
    h = make_process(spec, seed=0)
    for n in range(1, horizon + 1):
        h.step()
        if n in engine:
            a, b, v = engine[n]
            assert close(a, h.a) and close(b, h.b_pow_r) and close(v, h.v_sq), n
    assert sorted(engine) == cks


@pytest.mark.parametrize("variant", sorted(VARIANTS) + ["bounded_below_r2", "weighted_iid_factorial"])
def test_b_increments_are_nonnegative(variant):
    # B^r never falls along a path, which the crossing screen relies on
    spec = {"bounded_below_r2": BoundedBelow(m_bound=2.0, gamma=0.9),
            "weighted_iid_factorial": WeightedIID(weights="factorial")}.get(variant)
    spec = spec or VARIANTS[variant]
    d = drawn(spec, chunk_rng(31, 0), HORIZON, 8)
    inc = spec.b_increments(d, np.arange(1, HORIZON + 1), np.empty_like(d))
    assert np.all(inc >= 0.0)


def scalar_statistic(spec, kind, h):
    """The public statistic of the handle's state, or None where the engine
    records nothing (-inf) because the normalizer is below e^2."""
    a, n = h.a, h.n
    if kind == "lil":
        b = h.b_pow_r ** (1.0 / spec.r)
        return lil_statistic(a, b, spec.r) if b >= DEFAULT_LOG_FLOOR else None
    if kind == "conditional_variance":
        s = math.sqrt(spec.s_n_sq(n)[-1])
        return universal_statistic(a, 0.0, s) if s >= DEFAULT_LOG_FLOOR else None
    v = math.sqrt(h.v_sq)
    if kind == "uncentered":
        # no guard: the normalizer is floored at e^2 instead
        return universal_statistic(a, 0.0, max(v, DEFAULT_LOG_FLOOR))
    return universal_statistic(a, h.mu_sum(), v) if v >= DEFAULT_LOG_FLOOR else None


def test_lil_statistics(case):
    spec, handle = case
    recorded = {}
    for kind in sorted({"lil", "uncentered", spec.statistic}):
        cfg = ExperimentConfig(spec=spec, seed=0, paths=1, horizon=HORIZON,
                               checkpoints=CHECKPOINTS, statistic=kind)
        values = lil_track(cfg)["value"][0]
        recorded[kind] = 0
        for k, n in enumerate(CHECKPOINTS):
            want = scalar_statistic(spec, kind, handle[n])
            if want is None:
                assert values[k] == -math.inf, (kind, n)
            else:
                assert close(values[k], want), (kind, n)
                recorded[kind] += 1
    # the comparison is not vacuous: each variant's own normalizer passes
    # e^2 within the horizon (the three-point law's B_n does not, so its lil
    # kind may record nothing)
    assert recorded[spec.statistic] and recorded["uncentered"]


def lambdas(spec):
    cert = spec.certification
    if cert is None:
        return (0.5,)
    return (0.3, 1.0) if cert[0] == "all" else (0.3 * cert[1], 0.9 * cert[1])


def test_supermartingale_weight(case):
    spec, handle = case
    cfg = ExperimentConfig(spec=spec, seed=0, paths=1, horizon=HORIZON,
                           checkpoints=CHECKPOINTS, lambda_grid=lambdas(spec))
    if spec.certification is None:
        with pytest.raises(CertificationError):
            check_supermartingale_mean(cfg)
        with pytest.raises(CertificationError):
            exp_supermartingale_value(handle[HORIZON], 0.5)
        return
    reports = iter(check_supermartingale_mean(cfg))
    for lam in cfg.lambda_grid:
        for n in CHECKPOINTS:
            rep = next(reports)
            assert rep.label.endswith(f"lambda={lam} n={n}")
            assert close(rep.estimate, exp_supermartingale_value(handle[n], lam)), (lam, n)
