import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

import test_differential
from selfnorm import constants, experiments, processes
from selfnorm.constants import DomainError, c_gamma, c_gamma_r
from selfnorm.processes import (Bernstein, BoundedAbove, BoundedBelow,
                                BrownianGrid, CertificationError,
                                Counterexample56, Counterexample65,
                                MvBrownianGrid, Rademacher, ScaledSymmetric,
                                TruncatedCentering, UnsupportedVariantError,
                                WeightedIID, check_lambda, chunk_rng,
                                exp_supermartingale_value, fair_signs,
                                geometric_grid,
                                make_process, path_rng, spec_from_json,
                                spec_to_json, truncated_supermartingale_value)


def drawn(spec, rng, n_lo, n_hi, shape):
    """One block drawn as one tile: a coded variant's codes, then the draw."""
    codes = spec.codes(rng, np.empty(shape, np.int8)) if spec.coded else None
    return spec.draw(rng, n_lo, n_hi, shape[0], np.empty(shape), codes)


def run_steps(spec, seed, n):
    h = make_process(spec, seed)
    return [h.step() for _ in range(n)], h


class TestDeterminism:
    def test_equal_handles_equal_streams(self):
        s1, _ = run_steps(Rademacher(), 42, 1000)
        s2, _ = run_steps(Rademacher(), 42, 1000)
        assert [st.a_n for st in s1] == [st.a_n for st in s2]

    def test_different_seeds_differ(self):
        s1, _ = run_steps(Rademacher(), 42, 200)
        s2, _ = run_steps(Rademacher(), 43, 200)
        assert [st.a_n for st in s1] != [st.a_n for st in s2]

    def test_chunk_streams_reproducible(self):
        d1 = drawn(ScaledSymmetric(), chunk_rng(7, 3), 0, 64, (8, 64))
        d2 = drawn(ScaledSymmetric(), chunk_rng(7, 3), 0, 64, (8, 64))
        assert np.array_equal(d1, d2)

    def test_path_and_chunk_streams_distinct(self):
        a = path_rng(7, 0).random(16)
        b = chunk_rng(7, 0).random(16)
        assert not np.array_equal(a, b)


def plain_state(rng):
    """The bit generator's state with arrays as lists, comparable with ==."""
    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return x.tolist() if isinstance(x, np.ndarray) else x
    return plain(rng.bit_generator.state)


class TestFairSigns:
    """`fair_signs` against the `integers` call it replaces: the same signs
    and the same generator state after, so every later draw is unmoved."""
    GENERATORS = {
        "philox": lambda: chunk_rng(7, 3),                      # the engine's streams
        "pcg64": lambda: np.random.default_rng(11),             # default_rng
        "sfc64": lambda: np.random.Generator(np.random.SFC64(5)),  # plain integers
    }

    @staticmethod
    def reference(rng, shape):
        return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0

    @pytest.mark.parametrize("gen", sorted(GENERATORS))
    @pytest.mark.parametrize("held", [False, True])
    @pytest.mark.parametrize("shape", [(0,), (1,), (2,), (7,), (3, 5), (4, 8),
                                       (2, 1025), (0, 3)])
    def test_same_signs_and_stream(self, gen, held, shape):
        a, b = self.GENERATORS[gen](), self.GENERATORS[gen]()
        for rng in (a, b):
            # one or two 32-bit words: the second half of a 64-bit output is
            # then held in the buffer, or not
            rng.integers(0, 2, size=1 if held else 2)
            assert rng.bit_generator.state["has_uint32"] == held
        got = fair_signs(a, np.empty(shape))
        want = self.reference(b, shape)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert plain_state(a) == plain_state(b)
        for draw in (lambda r: r.standard_normal(3), lambda r: r.integers(0, 2, 3),
                     lambda r: r.random(3), lambda r: r.integers(0, 10**9, 5)):
            assert np.array_equal(draw(a), draw(b))
        assert np.array_equal(fair_signs(a, np.empty(5)), self.reference(b, (5,)))
        assert plain_state(a) == plain_state(b)

    @pytest.mark.parametrize("gen", sorted(GENERATORS))
    @pytest.mark.parametrize("held", [False, True])
    @pytest.mark.parametrize("size", [0, 1, 13, processes._SLAB - 1, processes._SLAB,
                                      processes._SLAB + 1, 2 * processes._SLAB + 1])
    def test_written_into_out_across_slabs(self, gen, held, size):
        # the words are drawn a slab at a time: sizes on each side of a slab
        # edge, after a held high half or not, fill `out` with the signs and
        # leave the stream where `integers` leaves it
        a, b = self.GENERATORS[gen](), self.GENERATORS[gen]()
        for rng in (a, b):
            rng.integers(0, 2, size=1 if held else 2)
        buf = np.full(size + 2, np.nan)
        out = buf[1:-1].reshape(1, size)
        got = fair_signs(a, out=out)
        assert got is out
        assert np.isnan(buf[0]) and np.isnan(buf[-1])
        assert np.array_equal(out, self.reference(b, (1, size)))
        assert plain_state(a) == plain_state(b)
        assert np.array_equal(fair_signs(a, np.empty(3)), self.reference(b, (3,)))
        assert plain_state(a) == plain_state(b)

    def test_sign_variants_draw_the_same_stream(self):
        # the three variants that draw signs, against the plain formulas
        for spec in (Rademacher(), WeightedIID(), ScaledSymmetric(mu=0.2, sigma=0.5),
                     ScaledSymmetric(law="pareto", shape=2.5, xm=1.5)):
            a, b = chunk_rng(3, 1), chunk_rng(3, 1)
            got = drawn(spec, a, 0, 33, (5, 33))
            want = self.reference(b, (5, 33))
            if getattr(spec, "law", None) == "lognormal":
                want = want * np.exp(spec.mu + spec.sigma * b.standard_normal((5, 33)))
            elif getattr(spec, "law", None) == "pareto":
                want = want * (spec.xm * b.random((5, 33)) ** (-1.0 / spec.shape))
            assert np.array_equal(got, want)
            assert plain_state(a) == plain_state(b)


    @pytest.mark.parametrize("gen", sorted(GENERATORS))
    @pytest.mark.parametrize("held", [False, True])
    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (2, 1025)])
    def test_int8_out_takes_the_same_signs(self, gen, held, shape):
        # the sign codes of a block: one byte a cell, from the same words
        a, b = self.GENERATORS[gen](), self.GENERATORS[gen]()
        for rng in (a, b):
            rng.integers(0, 2, size=1 if held else 2)
        got = fair_signs(a, np.empty(shape, np.int8))
        assert got.dtype == np.int8
        assert np.array_equal(got, self.reference(b, shape))
        assert plain_state(a) == plain_state(b)


def _cx_reference(rng, n_lo, shape):
    """The counterexample's three-point draw from its probabilities."""
    n = np.arange(n_lo + 1, n_lo + shape[1] + 1, dtype=float)
    p_plus, p_minus, _, m_n, valid = processes._cx56_probs(n)
    u = rng.random(shape)
    small = 1.0 / np.sqrt(n)
    return np.where(~valid, 0.0, np.where(u < p_plus, small,
                                          np.where(u < p_plus + p_minus, -small, -m_n)))


def _heavy_reference(spec, rng, shape):
    """Every cell's uniform, then every magnitude, then the side each takes."""
    u = rng.random(shape)
    m = rng.random(shape) ** (-1.0 / spec.alpha) * spec.y0
    p1 = spec.d1 * spec.y0 ** (-spec.alpha)
    return np.where(u < p1, m, np.where(u < 0.5, -m, 0.0))


def _signs(rng, shape):
    return rng.integers(0, 2, size=shape) * 2.0 - 1.0


TILE_TIMES = tuple(0.5 * k for k in range(1, 41))
TILE_MV = MvBrownianGrid(dim=3, t0=0.5, rho=1.2, horizon=20.0)
TILE_HEAVY = TruncatedCentering(base="heavy", alpha=0.6, d1=1.0, d2=2.0)
# name -> (spec, reference(rng, n_lo, shape)): independent numpy draws of
# a whole block, signs or uniforms first where the variant reads them first
TILED = {
    "rademacher": (Rademacher(), lambda r, lo, sh: _signs(r, sh)),
    "scaled_symmetric": (ScaledSymmetric(mu=0.3, sigma=0.8), lambda r, lo, sh: (
        _signs(r, sh) * np.exp(r.standard_normal(sh) * 0.8 + 0.3))),
    "scaled_symmetric_pareto": (ScaledSymmetric(law="pareto", shape=1.5, xm=2.0),
                                lambda r, lo, sh: _signs(r, sh) * (
                                    r.random(sh) ** (-1.0 / 1.5) * 2.0)),
    "bounded_above": (BoundedAbove(m_bound=0.5, lambda0=1.0), lambda r, lo, sh: (
        (1.0 - r.standard_exponential(sh)) * 0.5)),
    "bernstein": (Bernstein(m_bound=0.5), lambda r, lo, sh: (
        (r.standard_exponential(sh) - 1.0) * 0.5)),
    "bounded_below": (BoundedBelow(m_bound=0.5, gamma=0.5, r=1.5), lambda r, lo, sh: (
        (r.standard_exponential(sh) - 1.0) * 0.5)),
    "brownian_grid": (BrownianGrid(times=TILE_TIMES), lambda r, lo, sh: (
        r.standard_normal(sh) * np.sqrt(np.diff(TILE_TIMES, prepend=0.0)[lo:lo + sh[1]]))),
    "mv_brownian_grid": (TILE_MV, lambda r, lo, sh: r.standard_normal(sh) * np.sqrt(
        np.diff(TILE_MV.times, prepend=0.0)[lo:lo + sh[1], None])),
    "counterexample56": (Counterexample56(), _cx_reference),
    "counterexample65": (Counterexample65(), _cx_reference),
    "truncated_centering": (TruncatedCentering(base="normal"),
                            lambda r, lo, sh: r.standard_normal(sh)),
    "truncated_centering_heavy": (TILE_HEAVY,
                                  lambda r, lo, sh: _heavy_reference(TILE_HEAVY, r, sh)),
    "weighted_iid": (WeightedIID(), lambda r, lo, sh: _signs(r, sh)),
}


@pytest.mark.parametrize("rows", [1, 2, 3, 5])
@pytest.mark.parametrize("name", sorted(TILED))
def test_block_drawn_in_row_tiles(name, rows):
    # a block of 11 rows of 7 steps (odd cell counts, so a tile may start on
    # a held half-word) from step 4, drawn as the engine draws it: the
    # block's codes, then its tiles in row order; twice, so the second block
    # starts where the first left the stream
    spec, reference = TILED[name]
    P, lo, L = 11, 3, 7
    a, b = chunk_rng(9, 2), chunk_rng(9, 2)
    for block in range(2):
        got = np.full((P, L) + spec.components, np.nan)
        codes = spec.codes(a, np.empty(got.shape, np.int8)) if spec.coded else None
        for t in range(0, P, rows):
            tile = slice(t, min(t + rows, P))
            out = np.empty((tile.stop - t, L) + spec.components)
            assert spec.draw(a, lo, lo + L, tile.stop - t, out,
                             None if codes is None else codes[tile]) is out
            got[tile] = out
        want = reference(b, lo, (P, L) + spec.components)
        assert got.tobytes() == want.tobytes(), (name, block)
        assert plain_state(a) == plain_state(b), (name, block)
        lo += L


def test_every_variant_is_drawn_in_tiles():
    assert {type(spec) for spec, _ in TILED.values()} == set(processes._VARIANTS.values())


UNIT_CANDIDATES = [spec for spec, _ in TILED.values()] + [WeightedIID(weights="factorial")]
UNIT = [spec for spec in UNIT_CANDIDATES if spec.unit_steps]


def test_unit_steps_declared_where_every_step_is_plus_or_minus_one():
    assert {type(s) for s in UNIT_CANDIDATES} == set(processes._VARIANTS.values())
    assert [type(s) for s in UNIT] == [Rademacher, WeightedIID]
    assert not WeightedIID(weights="factorial").unit_steps
    assert not processes._Variant.unit_steps


@settings(max_examples=40)
@given(spec=st.sampled_from(UNIT), seed=st.integers(0, 2**32), paths=st.integers(1, 9),
       lo=st.integers(0, 50), steps=st.integers(1, 150), rows=st.integers(1, 9))
def test_unit_steps_draw_only_signs_and_sum_them_plainly(spec, seed, paths, lo, steps, rows):
    # the engine's unit-step screen reads A's partial sums as exact
    # integers: every draw, in any row tiles, is +-1.0, and `accumulate` is
    # the default one, the plain running sums
    rng = chunk_rng(seed, 0)
    d = np.empty((paths, steps))
    for t in range(0, paths, rows):
        tile = slice(t, min(t + rows, paths))
        spec.draw(rng, lo, lo + steps, tile.stop - t, d[tile], None)
    assert np.all((d == 1.0) | (d == -1.0))
    n_idx = np.arange(lo + 1, lo + steps + 1)
    start = np.arange(paths) - paths // 2.0

    def summed(accumulate):
        carry = (start.copy(), np.zeros(paths), np.zeros(paths))
        sums = accumulate(d.copy(), n_idx, carry, True, True,
                          (np.empty_like(d), np.empty_like(d)))
        return [x.tobytes() for x in (*sums, *carry)]

    assert summed(spec.accumulate) == summed(
        lambda *a: processes._Variant.accumulate(spec, *a))


@pytest.mark.parametrize("spec", UNIT + [Rademacher(r=1.5)], ids=repr)
def test_unit_steps_draw_into_int8_on_the_same_stream(spec):
    # the engine's unit-step screen draws into int8: tile by tile from twin
    # streams, in odd tiles (each leaves or takes a held half-word) and one
    # past a slab, the int8 signs are the float64 ones and the streams stay
    # in step after every tile
    a, b = chunk_rng(4, 1), chunk_rng(4, 1)
    lo = 0
    for rows, steps in [(1, 1), (3, 7), (2, 5), (1, 65), (5, 99), (1, processes._SLAB + 1),
                        (3, 131)]:
        signs = spec.draw(a, lo, lo + steps, rows, np.empty((rows, steps), np.int8), None)
        floats = spec.draw(b, lo, lo + steps, rows, np.empty((rows, steps)), None)
        assert signs.dtype == np.int8 and floats.dtype == np.float64
        assert np.array_equal(signs, floats) and np.all(np.abs(signs) == 1)
        assert plain_state(a) == plain_state(b), (rows, steps)
        lo += steps


def test_counterexample_steps_built_once_per_block():
    # the probabilities and values a draw reads depend on its steps alone:
    # every tile and chunk of a block reads one read-only set
    processes._cx56_steps.cache_clear()
    spec = Counterexample65()
    for _ in range(3):
        spec.draw(chunk_rng(1, 0), 100, 140, 4, np.empty((4, 40)), None)
    info = processes._cx56_steps.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert not any(a.flags.writeable for a in processes._cx56_steps(100, 140))


class TestParameterValidation:
    def test_bounded_below_gamma(self):
        with pytest.raises(DomainError):
            BoundedBelow(m_bound=1.0, gamma=1.0, r=1.5)

    def test_bounded_above_lambda0(self):
        with pytest.raises(DomainError):
            BoundedAbove(m_bound=2.0, lambda0=1.0)  # needs lambda0 <= 1/M

    def test_scaled_symmetric_law(self):
        with pytest.raises(DomainError):
            ScaledSymmetric(law="cauchy")

    def test_truncated_centering_params(self):
        with pytest.raises(DomainError):
            TruncatedCentering(base="heavy", alpha=1.5)
        with pytest.raises(DomainError):
            TruncatedCentering(base="normal", lam=0.0)

    def test_weighted_iid_rule(self):
        with pytest.raises(DomainError):
            WeightedIID(weights="squares")


class TestAccumulators:
    def test_rademacher_v_is_n(self):
        states, _ = run_steps(Rademacher(), 11, 50)
        for st in states:
            assert st.v_n_sq == float(st.n)
            assert st.b_pow_r == float(st.n)
            assert abs(st.a_n) <= st.n

    def test_bounded_above_inflated_accumulator(self):
        spec = BoundedAbove(m_bound=1.0, lambda0=1.0)
        states, _ = run_steps(spec, 11, 20)
        for st in states:
            assert st.b_pow_r == pytest.approx(1.5 * st.n, rel=1e-12)

    def test_bounded_below_order_r_accumulator(self):
        spec = BoundedBelow(m_bound=1.0, gamma=0.5, r=1.5)
        c = c_gamma_r(0.5, 1.5)
        states, h = run_steps(spec, 11, 30)
        manual = 1.5 * c * sum(abs(d) ** 1.5 for d in h.increments)
        assert states[-1].b_pow_r == pytest.approx(manual, rel=1e-12)

    def test_brownian_grid_b_is_time(self):
        spec = BrownianGrid(times=(0.5, 1.0, 2.0, 4.0))
        states, _ = run_steps(spec, 11, 4)
        assert [st.b_pow_r for st in states] == [0.5, 1.0, 2.0, 4.0]

    def test_brownian_grid_times_become_floats(self):
        spec = BrownianGrid(times=[1, 2, 4])
        assert spec.times == (1.0, 2.0, 4.0) and all(type(t) is float for t in spec.times)
        assert spec_from_json({"variant": "brownian_grid", "times": [1, 2, 4]}) == spec
        assert spec.steps == 3 and Rademacher().steps == math.inf

    def test_grid_exhaustion(self):
        spec = BrownianGrid(times=(0.5, 1.0))
        h = make_process(spec, 3)
        h.step(), h.step()
        with pytest.raises(IndexError):
            h.step()

    def test_truncated_mean_off_the_grid(self):
        spec = BrownianGrid(times=(0.5, 1.0))
        want = math.sqrt(0.5 / (2.0 * math.pi))  # E[W 1(W >= 0)], W ~ N(0, 0.5)
        assert spec.truncated_mean(2, 0.0, math.inf) == pytest.approx(want, rel=1e-15)
        for n in (0, 3):
            with pytest.raises(DomainError):
                spec.truncated_mean(n, 0.0, 1.0)


def hexes(x):
    return [v.hex() for v in np.ravel(x).tolist()]


def abs_pow(d, n_idx, out):
    """sup_moment_estimate's plain |d|^r rule, r = 1.5, in place of B^r."""
    return processes._abs_pow(d, 1.5, out)


def negated_squares(d, n_idx, out):
    """-d^2: increments of -0.0 where d is +-0.0."""
    return np.negative(np.multiply(d, d, out=out), out=out)


# (b, v) of the sums a scan asks for: B^r or V^2 beside A, both, and the
# |d|^r rule alone and beside V^2
PAIRINGS = {"b": (True, False), "v": (False, True), "bv": (True, True),
            "abs_pow": (abs_pow, False), "abs_pow_v": (abs_pow, True)}


def plain_sums(spec, d, n_idx, carry, b, v):
    """(A, B^r, V^2) as separate float cumsums of d and its terms, plus the
    carry, and the carries a step after the block; None where not asked."""
    rule = spec.b_increments if b is True else b
    terms = (d, rule(d, n_idx, np.empty_like(d)) if b else None, d * d if v else None)
    sums = tuple(None if x is None else np.cumsum(x, axis=1) + c[:, None]
                 for x, c in zip(terms, carry))
    return sums, tuple(c if x is None else x[:, -1] for x, c in zip(sums, carry))


def paired_sums(spec, d, n_idx, carry, b, v):
    """`accumulate` on a copy of d with a complex pair, carries advanced in
    place; the out entries the pair replaces are NaN, so a read of one shows."""
    P, L = d.shape
    pair = np.full((P, L), np.nan, np.complex128)
    out = (np.full((P, L), np.nan), np.full((P, L), np.nan))
    x = d.copy()
    sums = spec.accumulate(x, n_idx, carry, b, v, out, pair)
    assert np.shares_memory(sums[0], pair) and x.tobytes() == d.tobytes()  # d left as drawn
    partner = sums[1] if b else sums[2]
    assert np.shares_memory(partner, pair)
    return sums


class TestPairedSums:
    """`accumulate` with a complex `pair`: A and B^r (else V^2) as one
    complex running sum must give, bit for bit, the separate float cumsums
    plus the carry."""

    @pytest.mark.parametrize("pairing", sorted(PAIRINGS))
    @pytest.mark.parametrize("name", sorted(test_differential.VARIANTS))
    def test_pair_gives_the_float_sums(self, name, pairing):
        # three consecutive blocks, one of a short last segment, from nonzero
        # carries of both signs and several decades
        spec, (b, v) = test_differential.VARIANTS[name], PAIRINGS[pairing]
        rng, lo = chunk_rng(9, 0), 0
        carry = (np.array([-2.5e3, 0.75, 3e-7]), np.array([1e4, 2.5, 1e-9]),
                 np.array([7.0, 3e5, 0.125]))
        want_carry = tuple(c.copy() for c in carry)
        for L in (50, 64, 17):
            n_idx = np.arange(lo + 1, lo + L + 1)
            d = drawn(spec, rng, lo, lo + L, (3, L))
            want, want_carry = plain_sums(spec, d, n_idx, want_carry, b, v)
            got = paired_sums(spec, d, n_idx, carry, b, v)
            for g, w in zip(got, want):
                assert (g is None) == (w is None)
                if w is not None:
                    assert hexes(g) == hexes(w), (name, pairing, lo)
            for c, w in zip(carry, want_carry):
                assert hexes(c) == hexes(w)
            lo += L

    @pytest.mark.parametrize("b, v", [(True, False), (negated_squares, False), (False, True),
                                      (negated_squares, True)])
    def test_negative_zero_carry_keeps_its_sign(self, b, v):
        # a -0.0 carry plus a -0.0 sum stays -0.0; a complex carry made by
        # arithmetic, such as a + 1j*b, gives +0.0 in one part or the other
        spec = Rademacher()
        d = np.array([[-0.0, -0.0, 0.0, 2.0], [-0.0, 1.0, -1.0, -0.0], [0.0, -0.0, -0.0, -0.0]])
        n_idx = np.arange(1, 5)
        carry = (np.array([-0.0, -0.0, 0.0]), np.array([0.0, -0.0, -0.0]),
                 np.array([-0.0, 0.0, -0.0]))
        want, want_carry = plain_sums(spec, d, n_idx, tuple(c.copy() for c in carry), b, v)
        assert "-0x0.0p+0" in hexes(want[0]) + hexes(want[1] if b else want[2])
        got = paired_sums(spec, d, n_idx, carry, b, v)
        for g, w in zip(got, want):
            if w is not None:
                assert hexes(g) == hexes(w)
        for c, w in zip(carry, want_carry):
            assert hexes(c) == hexes(w)

    def test_component_axes_get_no_pair(self):
        # a vector state sums in place of its draws, whatever pair is given
        spec = MvBrownianGrid(dim=2, t0=0.5, rho=1.5, horizon=40.0)
        d = drawn(spec, chunk_rng(4, 0), 0, 5, (2, 5, 2))
        n_idx, carry = np.arange(1, 6), (np.ones((2, 2)), np.ones(2), np.ones(2))
        want = np.cumsum(d, axis=1) + 1.0
        pair = np.full((2, 5), np.nan, np.complex128)
        ca, cb, cv = spec.accumulate(d, n_idx, carry, True, True,
                                     (np.empty((2, 5)), np.empty((2, 5))), pair)
        assert ca is d and hexes(ca) == hexes(want) and np.isnan(pair).all()


class TestBoundedBelowConstant:
    def test_c_const_computed_once_per_instance(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return c_gamma_r(*args)

        monkeypatch.setattr(processes, "c_gamma_r", counted)
        spec = BoundedBelow(m_bound=1.0, gamma=0.4, r=1.5)
        h = make_process(spec, 3)
        for _ in range(2500):  # crosses two draw buffers
            h.step()
        assert calls == [(0.4, 1.5)]
        assert spec.c_const == c_gamma_r(0.4, 1.5)
        # the cached value is no field: equality, hashing and JSON ignore it
        fresh = BoundedBelow(m_bound=1.0, gamma=0.4, r=1.5)
        assert spec == fresh and hash(spec) == hash(fresh)
        assert spec_to_json(spec) == {"variant": "bounded_below", "m_bound": 1.0,
                                      "gamma": 0.4, "r": 1.5}


class TestCenteringOnRead:
    @pytest.mark.parametrize("spec", [
        TruncatedCentering(base="normal", lam=1.0),
        TruncatedCentering(base="heavy", alpha=0.5, d1=1.0, d2=2.0),
    ], ids=["normal", "heavy"])
    def test_step_does_not_center(self, spec, monkeypatch):
        calls = []
        real = TruncatedCentering.centering

        def counted(self, n, v):
            calls.append((n, v))
            return real(self, n, v)

        monkeypatch.setattr(TruncatedCentering, "centering", counted)
        h = make_process(spec, 5)
        states = [h.step() for _ in range(1500)]  # crosses a draw buffer
        assert calls == []
        # each state keeps its own step's value, read after later steps
        for st in (states[0], states[999], states[-1]):
            got, want = st.mu_sum, float(real(spec, st.n, math.sqrt(st.v_n_sq)))
            assert got.hex() == want.hex()
        assert [c[0] for c in calls] == [1, 1000, 1500]
        assert h.mu_sum().hex() == float(real(spec, h.n, math.sqrt(h.v_sq))).hex()
        assert len(calls) == 4

    def test_other_variants_read_zero(self):
        st = make_process(Rademacher(), 1).step()
        assert st.mu_sum == 0.0 and make_process(Rademacher(), 1).mu_sum() == 0.0


class TestTruncatedMeans:
    """Every analytic truncated mean is checked against direct numerical
    integration of the variant's density."""

    def quad_mean(self, density, c, d, lo, hi):
        val, _ = integrate.quad(lambda x: x * density(x), max(c, lo), min(d, hi),
                                limit=200)
        return val

    def test_normal(self):
        spec = TruncatedCentering(base="normal")
        for c, d in ((-1.0, 2.0), (-0.5, 0.5), (0.3, 4.0)):
            want = self.quad_mean(stats.norm.pdf, c, d, -40.0, 40.0)
            assert spec.truncated_mean(5, c, d) == pytest.approx(want, abs=1e-10)

    def test_lognormal_scaled_symmetric(self):
        spec = ScaledSymmetric(law="lognormal", mu=0.2, sigma=0.8)
        pdf = lambda x: 0.5 * stats.lognorm.pdf(abs(x), 0.8, scale=math.exp(0.2))
        for c, d in ((-2.0, 3.0), (0.5, 10.0), (-5.0, -0.2)):
            want = self.quad_mean(pdf, c, d, -200.0, 200.0)
            assert spec.truncated_mean(1, c, d) == pytest.approx(want, abs=1e-8)

    def test_pareto_scaled_symmetric(self):
        spec = ScaledSymmetric(law="pareto", shape=3.0, xm=1.0)
        pdf = lambda x: 0.5 * 3.0 * abs(x) ** -4.0 if abs(x) >= 1.0 else 0.0
        for c, d in ((-4.0, 4.0), (1.5, 30.0), (-10.0, 0.0)):
            want = self.quad_mean(pdf, c, d, -1e4, 1e4)
            assert spec.truncated_mean(1, c, d) == pytest.approx(want, abs=1e-6)

    def test_pareto_shape_one(self):
        # P(Z > z) = xm / z on z >= xm: E[Z 1(a < Z <= b)] = xm log(b / a),
        # and half of it on each side; the tail mean diverges
        spec = ScaledSymmetric(law="pareto", shape=1.0, xm=2.0)
        assert spec.truncated_mean(1, -3.0, 5.0) == pytest.approx(
            0.5 * 2.0 * (math.log(5.0 / 2.0) - math.log(3.0 / 2.0)), rel=1e-14)
        assert spec.truncated_mean(1, 4.0, 8.0) == pytest.approx(math.log(2.0), rel=1e-14)
        assert spec.truncated_mean(1, 0.0, math.inf) == math.inf

    def test_counterexample56_atom(self):
        # X_n is +-1/sqrt(n) or the atom -m_n, whose mass p_big and value
        # give E X_n = 0: an interval holding only the atom has mean
        # -p_big m_n = -(p_plus - p_minus) / sqrt(n), and one holding all
        # three points mean 0
        n = 100
        spec = Counterexample56()
        log_n = math.log(n)
        p_big, drift = 1.0 / (n * log_n**2), math.sqrt(log_n / n)
        m_n = (2.0 * drift + p_big) / (math.sqrt(n) * p_big)
        atom = -(2.0 * drift + p_big) / math.sqrt(n)
        assert spec.truncated_mean(n, -m_n - 1.0, -m_n + 1.0) == pytest.approx(atom, rel=1e-12)
        assert spec.truncated_mean(n, -m_n - 1.0, -0.5) == pytest.approx(atom, rel=1e-12)
        assert spec.truncated_mean(n, -m_n - 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert spec.truncated_mean(n, -m_n + 1.0, 1.0) == pytest.approx(-atom, rel=1e-12)

    def test_symmetric_window_is_zero(self):
        for spec in (Rademacher(), ScaledSymmetric()):
            assert spec.truncated_mean(1, -3.0, 3.0 + 1e-12) == pytest.approx(0.0, abs=1e-12)

    def test_rademacher_atoms(self):
        spec = Rademacher()
        assert spec.truncated_mean(1, -2.0, 2.0) == 0.0
        assert spec.truncated_mean(1, 0.0, 2.0) == 0.5
        assert spec.truncated_mean(1, -2.0, 0.0) == -0.5

    def test_shifted_exponential_below(self):
        # d = M(1 - E): density exp((x-M)/M)/M on (-inf, M]
        m = 1.5
        spec = BoundedAbove(m_bound=m, lambda0=0.5)
        pdf = lambda x: math.exp((x - m) / m) / m if x <= m else 0.0
        for c, d in ((-3.0, 1.0), (-math.inf, m), (0.1, 0.9)):
            want = self.quad_mean(pdf, max(c, -200.0), d, -200.0, m)
            assert spec.truncated_mean(1, c, d) == pytest.approx(want, abs=1e-10)

    def test_shifted_exponential_above(self):
        # d = M(E - 1): density exp(-(x+M)/M)/M on [-M, inf)
        m = 0.7
        spec = Bernstein(m_bound=m)
        pdf = lambda x: math.exp(-(x + m) / m) / m if x >= -m else 0.0
        for c, d in ((-2.0, 3.0), (0.0, math.inf), (-0.5, 0.5)):
            want = self.quad_mean(pdf, c, min(d, 200.0), -m, 200.0)
            assert spec.truncated_mean(1, c, d) == pytest.approx(want, abs=1e-10)

    def test_heavy_tail(self):
        spec = TruncatedCentering(base="heavy", alpha=0.5, d1=1.0, d2=2.0)
        y0 = spec.y0
        assert y0 == pytest.approx(36.0, rel=1e-12)

        def pdf(x):
            if x >= y0:
                return 0.5 * spec.d1 * x ** -1.5
            if x <= -y0:
                return 0.5 * spec.d2 * abs(x) ** -1.5
            return 0.0

        for c, d in ((-100.0, 200.0), (-1e4, 50.0), (40.0, 1e5)):
            want = self.quad_mean(pdf, c, d, -1e7, 1e7)
            assert spec.truncated_mean(1, c, d) == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_heavy_tail_infinite_level(self):
        # alpha < 1: the tail mean diverges, so mu(c, inf) = +inf
        spec = TruncatedCentering(base="heavy", alpha=0.5, d1=1.0, d2=1.0)
        assert spec.truncated_mean(1, 0.0, 1e12) == pytest.approx(999996.0, rel=1e-12)
        assert spec.truncated_mean(1, -1.0, math.inf) == math.inf
        assert spec.truncated_mean(1, -math.inf, 1.0) == -math.inf

    def test_heavy_tail_one_sided(self):
        spec = TruncatedCentering(base="heavy", alpha=0.5, d1=0.0, d2=1.0)
        assert spec.truncated_mean(1, 0.0, math.inf) == 0.0
        assert spec.truncated_mean(1, -100.0, math.inf) < 0.0

    def test_factorial_weights_unsupported(self):
        with pytest.raises(UnsupportedVariantError):
            WeightedIID(weights="factorial").truncated_mean(1, -1.0, 1.0)

    # preset -> (step n, float.hex of mu(c, d) on each of INTERVALS), as the
    # formulas gave them when each variant checked c < d itself
    INTERVALS = ((-1.0, 0.75), (-0.25, math.inf), (-50.0, 60.0))
    PINNED = {
        "rademacher": (Rademacher(), 40, [
            "-0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x0.0p+0"]),
        "lognormal": (ScaledSymmetric(), 40, [
            "-0x1.93587acc5d1e6p-5", "0x1.a27b224f334d1p-1", "0x1.5dc15b48d2800p-11"]),
        "pareto": (ScaledSymmetric(law="pareto", shape=3.0, xm=0.5), 40, [
            "-0x1.2aaaaaaaaaaaap-4", "0x1.8000000000000p-2", "0x1.807a557850000p-17"]),
        "bounded_above": (BoundedAbove(m_bound=2.0, lambda0=0.25), 40, [
            "0x1.48eece461a000p-12", "0x1.75ffe8906a084p-1", "0x1.241c327b06696p-32"]),
        "bernstein": (Bernstein(m_bound=0.5), 40, [
            "-0x1.a446730ba312ep-4", "0x1.368b2fc6f960ap-3", "-0x1.46e9bf96cc3d5p-169"]),
        "bounded_below": (BoundedBelow(r=1.5), 40, [
            "-0x1.376724e41dc65p-2", "0x1.6ac70b0f3da1ep-2", "-0x1.e683c90f0c6d6p-83"]),
        "brownian_grid": (BrownianGrid(times=(0.5, 1.0, 2.0)), 3, [
            "-0x1.e4b19449d43c8p-5", "0x1.8bf2ba104becep-2", "0x0.0p+0"]),
        "counterexample56": (Counterexample56(), 40, ["0x1.8a89bca43f0abp-4"] * 3),
        "counterexample65": (Counterexample65(), 40, ["0x1.8a89bca43f0abp-4"] * 3),
        "normal_centering": (TruncatedCentering(), 40, [
            "-0x1.e4b19449d43c8p-5", "0x1.8bf2ba104becep-2", "0x0.0p+0"]),
        "heavy_centering": (TruncatedCentering(base="heavy", alpha=0.5, d1=1.0, d2=2.0), 40, [
            "0x0.0p+0", "inf", "-0x1.95ad4eeec6a60p-2"]),
        "weighted_iid": (WeightedIID(), 40, [
            "-0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x0.0p+0"]),
    }

    @pytest.mark.parametrize("preset", sorted(PINNED))
    def test_values_on_valid_intervals(self, preset):
        spec, n, want = self.PINNED[preset]
        assert [spec.truncated_mean(n, c, d).hex() for c, d in self.INTERVALS] == want

    @pytest.mark.parametrize("preset", sorted(PINNED) + ["factorial_weights"])
    def test_empty_interval_refused(self, preset):
        # BrownianGrid gave -0.1159 on [1, 0.5), the counterexamples 0.0
        spec, n, _ = self.PINNED.get(preset, (WeightedIID(weights="factorial"), 1, None))
        for c, d in ((1.0, 0.5), (0.5, 0.5), (math.inf, math.inf)):
            with pytest.raises(DomainError, match="c < d"):
                spec.truncated_mean(n, c, d)


class TestNormalLaw:
    # the truncated means use these in place of scipy.stats.norm
    X = np.array([0.0, -0.0, 1e-300, -1e-300, 38.0, -38.0, 40.0, -40.0,
                  np.inf, -np.inf, np.nan, 0.3, -1.7, 6.5])

    def test_pdf_is_scipys_bit_for_bit(self):
        assert np.array_equal(processes._norm_pdf(self.X), stats.norm.pdf(self.X),
                              equal_nan=True)
        for x in self.X:
            assert np.array_equal(processes._norm_pdf(x), stats.norm.pdf(x),
                                  equal_nan=True)

    def test_ndtr_is_scipys_cdf_bit_for_bit(self):
        from scipy.special import ndtr
        assert np.array_equal(ndtr(self.X), stats.norm.cdf(self.X), equal_nan=True)
        for x in self.X:
            assert np.array_equal(ndtr(float(x)), stats.norm.cdf(float(x)),
                                  equal_nan=True)


class TestThreePointLaw:
    def test_exact_zero_mean(self):
        from selfnorm.processes import _cx56_probs
        n = np.arange(20, 5000, dtype=float)
        p_plus, p_minus, p_big, m_n, valid = _cx56_probs(n)
        assert np.all(valid)
        mean = (p_plus - p_minus) / np.sqrt(n) - p_big * m_n
        assert np.max(np.abs(mean)) < 1e-15

    def test_probabilities_sum_to_one(self):
        from selfnorm.processes import _cx56_probs
        n = np.arange(20, 5000, dtype=float)
        p_plus, p_minus, p_big, _, _ = _cx56_probs(n)
        assert np.allclose(p_plus + p_minus + p_big, 1.0, atol=1e-15)

    def test_empirical_mean_near_zero(self):
        spec = Counterexample56()
        d = spec.draw(chunk_rng(3, 0), 99, 100, 200000, np.empty((200000, 1)), None)  # X_100
        se = float(np.std(d)) / math.sqrt(d.size)
        assert abs(float(np.mean(d))) < 5.0 * se + 1e-12

    def test_early_steps_are_zero(self):
        spec = Counterexample56()
        d = spec.draw(chunk_rng(3, 0), 0, 2, 100, np.empty((100, 2)), None)
        assert np.all(d == 0.0)

    def test_conditional_variance_track(self):
        spec = Counterexample65()
        s_sq = spec.s_n_sq(1000)
        assert s_sq.shape == (1000,)
        assert np.all(np.diff(s_sq) >= 0.0)


class TestCertification:
    def test_counterexample_not_certified(self):
        with pytest.raises(CertificationError):
            check_lambda(Counterexample56(), 0.1)

    def test_restricted_range(self):
        spec = BoundedAbove(m_bound=1.0, lambda0=0.5)
        check_lambda(spec, 0.5)
        with pytest.raises(CertificationError):
            check_lambda(spec, 0.6)
        with pytest.raises(CertificationError):
            check_lambda(spec, -0.1)
        with pytest.raises(CertificationError):
            check_lambda(spec, math.nan)

    def test_interval(self):
        spec = BoundedAbove(m_bound=1.0, lambda0=0.5)
        check_lambda(spec, 0.0, 0.5)
        check_lambda(spec, 0.2, 0.3)
        for lo, hi in ((-0.1, 0.5), (0.0, 0.6), (0.0, math.inf), (-math.inf, math.inf),
                       (0.4, 0.3), (0.0, math.nan)):
            with pytest.raises(CertificationError, match="certified range"):
                check_lambda(spec, lo, hi)
        check_lambda(Rademacher(), -math.inf, math.inf)
        check_lambda(Rademacher(), -5.0, 5.0)
        with pytest.raises(CertificationError):
            check_lambda(Counterexample56(), 0.0, 0.0)

    def test_refusal_is_a_domain_error(self):
        # so every refusal exits 2 as a DomainError
        assert issubclass(CertificationError, DomainError)

    @pytest.mark.parametrize("r", [1.1, 1.5, 1.9, 2.0])
    def test_rademacher_weight_is_of_order_r(self, r):
        # log cosh lam <= lam^r / r for every r in (1, 2], so the weight of
        # fair signs (and of unit-weight sums) stays certified at any order:
        # below 1, cosh y <= e^(y^2/2) and |y|^r/r >= y^2/2; past it, the
        # slope tanh y < 1 <= y^(r-1), from log cosh 1 = 0.434 < 1/2 <= 1/r
        lam = np.geomspace(1e-6, 1e3, 20001)
        # log1p(2 sinh^2(y/2)) keeps its digits near 0, y + log1p(e^-2y) - log 2 far out
        half = np.sinh(np.minimum(lam, 1.0) / 2.0)
        log_cosh = np.where(lam < 1.0, np.log1p(2.0 * half * half),
                            lam + np.log1p(np.exp(-2.0 * lam)) - math.log(2.0))
        assert np.all(log_cosh <= lam ** r / r)

    def test_all_lambda_variants(self):
        for spec in (Rademacher(), ScaledSymmetric(), BrownianGrid(times=(1.0,))):
            check_lambda(spec, -5.0)
            check_lambda(spec, 5.0)

    @pytest.mark.parametrize("r", [1.1, 1.5, 1.9])
    def test_brownian_grid_order_r_range(self, r):
        # E exp(lam W_t - lam^r t / r) = exp(t (lam^2/2 - lam^r/r)) is at most
        # 1 up to the certified end and above it past the end; it was
        # certified for every lam, and a mean of 2.82 at lam = 3, t = 1,
        # r = 1.5 passed the supermartingale check
        kind, end = BrownianGrid(times=(1.0, 2.0), r=r).certification
        assert kind == "nonneg"
        assert end ** 2 / 2.0 == pytest.approx(end ** r / r, rel=1e-12)
        for lam in (0.5 * end, end * (1.0 - 1e-9)):
            assert lam ** 2 / 2.0 - lam ** r / r <= 0.0
        for lam in (end * (1.0 + 1e-9), 2.0 * end):
            assert lam ** 2 / 2.0 - lam ** r / r > 0.0
        if r == 1.5:
            assert end == pytest.approx(16.0 / 9.0, rel=1e-15)
            with pytest.raises(CertificationError):
                check_lambda(BrownianGrid(times=(1.0, 2.0), r=r), 3.0)
        assert BrownianGrid(times=(1.0, 2.0)).certification == ("all", math.inf)

    def test_mv_brownian_grid_is_of_order_2(self):
        # its r is read by no code path: <M>_t = t I
        assert MvBrownianGrid(r=2.0).r == 2.0
        for r in (1.5, 1.99):
            with pytest.raises(DomainError, match="^r must be 2"):
                MvBrownianGrid(r=r)

    def test_heavy_asymmetric_uncertified(self):
        assert TruncatedCentering(base="heavy", alpha=0.5, d1=1.0, d2=2.0).certification is None
        assert TruncatedCentering(base="heavy", alpha=0.5, d1=1.0, d2=1.0).certification == ("all", math.inf)


class TestSupermartingaleValues:
    def test_initial_and_zero_lambda(self):
        h = make_process(Rademacher(), 4)
        assert exp_supermartingale_value(h, 1.0) == 1.0
        h.step()
        assert exp_supermartingale_value(h, 0.0) == 1.0

    def test_matches_state_formula(self):
        h = make_process(Rademacher(), 4)
        for _ in range(25):
            st = h.step()
        lam = 0.7
        want = math.exp(lam * st.a_n - lam * lam * st.b_pow_r / 2.0)
        assert exp_supermartingale_value(h, lam) == pytest.approx(want, rel=1e-12)

    def test_bernstein_weight_denominator(self):
        spec = Bernstein(m_bound=1.0)
        h = make_process(spec, 4)
        for _ in range(10):
            st = h.step()
        lam = 0.5
        want = math.exp(lam * st.a_n - lam * lam * st.b_pow_r / (2.0 * (1.0 - lam)))
        assert exp_supermartingale_value(h, lam) == pytest.approx(want, rel=1e-12)

    def test_bernstein_certification_is_open_at_one_over_m(self):
        h = make_process(Bernstein(m_bound=0.5), 4)
        h.step()
        assert math.isfinite(exp_supermartingale_value(h, 1.999))
        with pytest.raises(CertificationError):
            exp_supermartingale_value(h, 2.0)

    def test_overflow_goes_to_inf(self):
        h = make_process(BrownianGrid(times=(1.0,)), 4)
        h.step()
        h.a = 1e6  # force an astronomically large state
        h.b_pow_r = 1.0
        assert exp_supermartingale_value(h, 1.0) == math.inf


class TestTruncatedSupermartingale:
    def test_zero_path_is_one(self):
        h = make_process(Counterexample56(), 4)  # X_1 = X_2 = 0 by construction
        h.step(), h.step()
        assert truncated_supermartingale_value(h, 0.5, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_hand_value_r2(self):
        h = make_process(Rademacher(), 9)
        for _ in range(5):
            h.step()
        # window [-0.5, 1.0) contains neither Rademacher atom, so mu_i = 0
        got = truncated_supermartingale_value(h, 0.5, 1.0)
        want = math.exp(sum(y - y * y for y in h.increments))
        assert got == pytest.approx(want, rel=1e-12)

    def test_parameter_validation(self):
        h = make_process(Rademacher(), 9)
        h.step()
        with pytest.raises(DomainError):
            truncated_supermartingale_value(h, 1.2, 1.0)
        with pytest.raises(DomainError):
            truncated_supermartingale_value(h, 0.5, 2.0 / c_gamma(0.5))

    def test_c_r_once_per_r(self):
        # every step checks its lambda against 1/c_(gamma,r), whose c_r part
        # is a 4001-point scan and a Brent search; at gamma = 0.1 c_r^(gamma)
        # is below c_r's cap, so c_r is needed
        h = make_process(BoundedBelow(r=1.5), 9)
        for _ in range(500):
            h.step()
        lam = 0.5 / c_gamma_r(0.1, 1.5)
        constants.c_r.cache_clear()
        value = truncated_supermartingale_value(h, 0.1, lam, r=1.5)
        assert constants.c_r.cache_info().misses == 1
        constants.c_r.cache_clear()
        assert truncated_supermartingale_value(h, 0.1, lam, r=1.5) == value

    def test_gamma_zero_order_r(self):
        # gamma = 0 was refused at r = 1.5 and taken at r = 2; the window
        # [0, 0.5^2) holds neither Rademacher atom, so mu_i = 0
        h = make_process(Rademacher(), 9)
        for _ in range(5):
            h.step()
        got = truncated_supermartingale_value(h, 0.0, 0.5, r=1.5)
        want = math.exp(sum(y - abs(y) ** 1.5 / 0.5 for y in h.increments))
        assert got == pytest.approx(want, rel=1e-12)

    def test_order_r_cap(self):
        h = make_process(Rademacher(), 9)
        h.step()
        cap = 1.0 / c_gamma_r(0.5, 1.5)
        truncated_supermartingale_value(h, 0.5, cap, r=1.5)
        with pytest.raises(DomainError):
            truncated_supermartingale_value(h, 0.5, 1.01 * cap, r=1.5)


class TestGrids:
    def test_geometric_grid_shape(self):
        ts = geometric_grid(t0=1e-2, rho=2.0, horizon=10.0)
        assert ts[0] == 1e-2 and ts[-1] == 10.0
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_geometric_grid_validation(self):
        for kw in ({"t0": 0.0}, {"rho": 1.0}, {"horizon": 1e-5}):
            with pytest.raises(DomainError):
                geometric_grid(**kw)

    @pytest.mark.parametrize("t0, rho, horizon", [
        (1e-2, 2.0, 10.0), (1e-4, 1.005, 1e6), (0.5, 1.5, 40.0), (1.0, 1.1, 1.1 ** 7),
        (1e-3, 1.0001, 1e3)])
    def test_grid_steps_in_closed_form(self, t0, rho, horizon):
        n = processes._grid_powers(t0, rho, horizon)
        assert len(geometric_grid(t0, rho, horizon)) == n + 1 + (t0 * rho**n < horizon)

    @pytest.mark.parametrize("rho, dim, steps", [
        (1.00001, 2, 2302598), (1.0000001, 1, 230258522), (1.00003, 7, 767541)])
    def test_oversized_grid_refused_before_it_is_built(self, rho, dim, steps, monkeypatch):
        # sized in closed form: geometric_grid never runs, and the refusal
        # names rho and the steps x dim asked for
        def built(*args):
            raise AssertionError("the grid was built")
        monkeypatch.setattr(processes, "geometric_grid", built)
        assert steps * dim > processes.GRID_CELLS
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=rf"rho={rho!r} .* {steps} steps x dim {dim} "):
                MvBrownianGrid(dim=dim, t0=1e-4, rho=rho, horizon=1e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_geometric_grid_refuses_beyond_the_limit_unbuilt(self):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=r"rho=1.0000001 .* 230258522 steps x dim 1 "):
                geometric_grid(t0=1e-4, rho=1.0000001, horizon=1e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # the largest grid below the limit is built
        rho = math.exp(math.log(1e6 / 1e-4) / (processes.GRID_CELLS - 3))
        assert len(geometric_grid(1e-4, rho, 1e6)) <= processes.GRID_CELLS

    def test_mv_increment_variance(self):
        spec = MvBrownianGrid(dim=2, t0=0.5, rho=2.0, horizon=8.0)
        dts = np.diff(np.concatenate([[0.0], spec.times]))
        d = spec.draw(chunk_rng(1, 0), 0, len(spec.times), 100000,
                      np.empty((100000, len(spec.times), 2)), None)
        var = np.var(d, axis=0)  # (T, m)
        se = dts[:, None] * math.sqrt(2.0 / 100000)
        assert np.all(np.abs(var - dts[:, None]) < 6.0 * se)

    def test_mv_has_no_scalar_weight(self):
        h = make_process(MvBrownianGrid(dim=2, t0=0.01, rho=1.2, horizon=10.0), 4)
        h.step()
        with pytest.raises(UnsupportedVariantError):
            exp_supermartingale_value(h, 0.5)

    def test_mv_grid_built_once_per_instance(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return geometric_grid(*args)

        monkeypatch.setattr(processes, "geometric_grid", counted)
        spec = MvBrownianGrid(dim=2, t0=1e-4, rho=1.005, horizon=1e6)
        h = make_process(spec, 3)
        for _ in range(2500):  # crosses two draw buffers
            h.step()
        assert calls == [(1e-4, 1.005, 1e6)]
        # the cached grid is no field: equality, hashing and JSON ignore it
        fresh = MvBrownianGrid(dim=2, t0=1e-4, rho=1.005, horizon=1e6)
        assert spec == fresh and hash(spec) == hash(fresh)
        assert set(spec_to_json(spec)) == {"variant", "dim", "t0", "rho", "horizon", "r"}

    @pytest.mark.parametrize("spec", [
        BrownianGrid(times=tuple(0.3 * k ** 1.5 for k in range(1, 201))),
        MvBrownianGrid(dim=2, t0=0.01, rho=1.002, horizon=100.0),
    ], ids=["brownian", "mv_brownian"])
    def test_time_steps_built_once_per_instance(self, spec, monkeypatch):
        steps = len(spec.times)
        assert spec.dt.tobytes() == np.diff(spec.times, prepend=0.0).tobytes()
        assert not spec.dt.flags.writeable
        fresh = type(spec)(**{f: getattr(spec, f) for f in spec.__dataclass_fields__})
        # blocks of 32 steps over chunks of 3 paths: draw and b_increments
        # slice the steps on every block of every chunk
        monkeypatch.setattr(experiments, "_BLOCK", 32)
        monkeypatch.setattr(experiments, "_TARGET_CELLS", 3 * steps)
        with mock.patch.object(processes.np, "diff", wraps=np.diff) as diff:
            if isinstance(spec, MvBrownianGrid):  # the handle's buffers
                assert steps > 4 * processes._BUFFER
                h = make_process(fresh, 2)
                for _ in range(steps):
                    h.step()
            else:
                cfg = experiments.ExperimentConfig(spec=fresh, seed=4, paths=10,
                                                   horizon=steps, checkpoints=(45, steps))
                experiments.lil_track(cfg)
                experiments.check_supermartingale_mean(cfg)
        assert diff.call_count == 1

    def test_mv_state_sums_its_increments(self):
        # the vector A, the summed V^2 and B^r = t carry across buffer edges
        spec = MvBrownianGrid(dim=3, t0=1e-3, rho=1.005, horizon=100.0)
        h = make_process(spec, 8)
        states = [h.step() for _ in range(2100)]
        d = np.array(h.increments)
        assert d.shape == (2100, 3)
        m, v = np.cumsum(d, axis=0), np.cumsum(np.sum(d * d, axis=1))
        for n in (1, 1024, 1025, 2048, 2049, 2100):
            st = states[n - 1]
            np.testing.assert_allclose(st.extras["m_vec"], m[n - 1], rtol=1e-12, atol=1e-12)
            assert st.a_n == st.extras["m_vec"][0]
            assert st.v_n_sq == pytest.approx(v[n - 1], rel=1e-12)
            assert st.b_pow_r == st.extras["t"] == pytest.approx(spec.times[n - 1], rel=1e-13)

    def test_mv_state_exposes_vector_and_time(self):
        spec = MvBrownianGrid(dim=3, t0=0.5, rho=2.0, horizon=8.0)
        h = make_process(spec, 2)
        st = h.step()
        assert st.extras["m_vec"].shape == (3,)
        assert st.extras["t"] == 0.5
        assert st.b_pow_r == 0.5


class TestWeightedIID:
    def test_factorial_scaled_state(self):
        spec = WeightedIID(weights="factorial")
        h = make_process(spec, 6)
        states = [h.step() for _ in range(8)]
        signs = h.increments
        for n, st in enumerate(states, start=1):
            w = [math.factorial(i) for i in range(1, n + 1)]
            s = sum(wi * yi for wi, yi in zip(w, signs))
            v = sum((wi * yi) ** 2 for wi, yi in zip(w, signs))
            fact = math.factorial(n)
            assert st.a_n == pytest.approx(s / fact, rel=1e-12)
            assert st.v_n_sq == pytest.approx(v / fact**2, rel=1e-12)

    def test_factorial_recursion_across_buffers(self):
        # the block rule runs the per-step recursion x_n = x_{n-1}/n + d_n
        # in double precision, so a handle carries it bit for bit
        h = make_process(WeightedIID(weights="factorial"), 9)
        states = [h.step() for _ in range(2100)]
        s = vs = 0.0
        for n, (st, d) in enumerate(zip(states, h.increments), start=1):
            s, vs = s / n + d, vs / (n * n) + d * d
            assert (st.a_n.hex(), st.v_n_sq.hex(), st.b_pow_r.hex()) == (s.hex(), vs.hex(), vs.hex())
        assert states[-1].extras == {}

    @pytest.mark.parametrize("P", [1, 3])
    def test_factorial_recursion_matches_column_form(self, P):
        # the recursion x_n = x_{n-1}/n + d_n run as numpy operations on one
        # column per step: the path-by-path form must give the same bits
        spec = WeightedIID(weights="factorial")
        rng = chunk_rng(5, 0)
        carry, s, vs = (np.zeros(P), np.zeros(P), np.zeros(P)), np.zeros(P), np.zeros(P)
        for lo in range(0, 3 * processes._BUFFER + 7, processes._BUFFER):
            d = spec.draw(rng, lo, lo + processes._BUFFER, P, np.empty((P, processes._BUFFER)),
                          None)
            want_a, want_v = np.empty_like(d), np.empty_like(d)
            for j, n in enumerate(range(lo + 1, lo + processes._BUFFER + 1)):
                s = want_a[:, j] = s / n + d[:, j]
                vs = want_v[:, j] = vs / (n * n) + d[:, j] * d[:, j]
            ca, cb, cv = spec.accumulate(d.copy(), np.arange(lo + 1, lo + processes._BUFFER + 1),
                                         carry, True, True, (np.empty_like(d), np.empty_like(d)))
            for got, want in ((ca, want_a), (cb, want_v), (cv, want_v)):
                assert [x.hex() for x in got.ravel().tolist()] == \
                    [x.hex() for x in want.ravel().tolist()]

    def test_ones_matches_rademacher_accumulators(self):
        states, _ = run_steps(WeightedIID(weights="ones"), 6, 20)
        for st in states:
            assert st.v_n_sq == float(st.n)


class TestSerialization:
    @pytest.mark.parametrize("spec", [
        Rademacher(),
        ScaledSymmetric(law="pareto", shape=3.0, xm=2.0),
        BoundedAbove(m_bound=2.0, lambda0=0.25),
        Bernstein(m_bound=0.5),
        BoundedBelow(m_bound=1.0, gamma=0.4, r=1.5),
        BrownianGrid(times=(0.5, 1.0, 2.0)),
        MvBrownianGrid(dim=3, t0=1e-2, rho=1.5, horizon=100.0),
        Counterexample56(),
        Counterexample65(),
        TruncatedCentering(base="heavy", alpha=0.5, d1=1.0, d2=2.0),
        WeightedIID(weights="factorial"),
    ])
    def test_round_trip(self, spec):
        back = spec_from_json(json.dumps(spec_to_json(spec)))
        assert back == spec

    def test_unknown_variant(self):
        with pytest.raises(DomainError):
            spec_from_json({"variant": "levy_flight"})

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            spec_from_json({"variant": "rademacher", "nope": 1})


@pytest.mark.parametrize("make", [
    lambda: ScaledSymmetric(law="lognormal", sigma=math.nan),
    lambda: ScaledSymmetric(law="pareto", shape=math.nan),
    lambda: ScaledSymmetric(law="pareto", xm=math.nan),
    lambda: ScaledSymmetric(law="lognormal", mu=math.nan),
    lambda: ScaledSymmetric(law="lognormal", mu=math.inf),
    lambda: ScaledSymmetric(law="lognormal", mu=-math.inf),
    lambda: ScaledSymmetric(law="lognormal", sigma=math.inf),
    lambda: ScaledSymmetric(law="pareto", shape=math.inf),
    lambda: ScaledSymmetric(law="pareto", xm=math.inf),
    lambda: spec_from_json({"variant": "scaled_symmetric", "mu": "0"}),
    lambda: spec_from_json({"variant": "scaled_symmetric", "sigma": math.nan}),
    lambda: Bernstein(m_bound=math.nan),
    lambda: BoundedBelow(m_bound=math.nan, gamma=0.4, r=1.5),
    lambda: BrownianGrid(times=(math.nan,)),
    lambda: BrownianGrid(times=(1.0, math.nan)),
    lambda: geometric_grid(t0=math.nan),
    lambda: MvBrownianGrid(dim=2, t0=0.01, rho=math.nan, horizon=100.0),
    lambda: TruncatedCentering(base="normal", lam=math.nan),
    lambda: TruncatedCentering(base="heavy", alpha=0.5, d1=math.nan, d2=1.0),
], ids=["sigma", "shape", "xm", "mu", "mu_inf", "mu_minus_inf", "sigma_inf", "shape_inf",
        "xm_inf", "mu_string_json", "sigma_json", "bernstein_m", "bounded_below_m", "time",
        "second_time", "grid_t0", "grid_rho", "lam", "d1"])
def test_nan_parameter_refused(make):
    # a NaN passed each `x <= 0.0` guard: sigma NaN ran every draw and wrote
    # an estimate NaN
    with pytest.raises(DomainError):
        make()
