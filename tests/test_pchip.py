"""The numpy PCHIP behind the crossing's boundary table gives
scipy.interpolate.PchipInterpolator's bits, on the engine's own tables and
on small tables that reach every branch of scipy's slope rule."""
import numpy as np
import pytest
from scipy import interpolate

from selfnorm.experiments import PchipInterpolator, _pchip_edge
from selfnorm.mixture import RobbinsSiegmund, boundary


def assert_same_bits(got, want):
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def probe_points(x, rng, n_random=20000):
    """Every node, its neighbours on each side, points outside the table,
    NaN and random points across and just beyond it."""
    span = x[-1] - x[0]
    return np.concatenate([
        x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
        [x[-1], x[0] - span, x[-1] + span, -np.inf, np.inf, np.nan],
        rng.uniform(x[0] - 0.05 * span, x[-1] + 0.05 * span, n_random)])


def assert_matches_scipy(x, y, rng):
    ours = PchipInterpolator(x, y, extrapolate=False)
    theirs = interpolate.PchipInterpolator(x, y, extrapolate=False)
    pts = probe_points(x, rng)
    assert_same_bits(ours(pts), theirs(pts))


# the crossing's table: geometric in v on [1e-4, 16 horizon], 160 nodes, in log v
ENGINE_TABLES = [(1.02, 2.0, 10**5), (2.0, 2.0, 10**4), (10.0, 2.0, 10**5),
                 (100.0, 2.0, 1000), (10.0, 1.5, 10**5), (1.02, 1.5, 1000)]


@pytest.mark.parametrize("c_over_mass, r, horizon", ENGINE_TABLES)
def test_engine_table_matches_scipy(c_over_mass, r, horizon):
    F = RobbinsSiegmund(1.0)
    vg = np.geomspace(1e-4, 16.0 * horizon, 160)
    y = boundary(vg, c_over_mass * F.total_mass, F, r)
    assert_matches_scipy(np.log(vg), y, np.random.default_rng(horizon))


@pytest.mark.parametrize("h0, h1, m0, m1, want", [
    (1.0, 1.0, 1.0, 1.5, 0.75),   # the three-point estimate
    (1.0, 1.0, 1.0, 5.0, 0.0),    # it has the wrong sign: 0
    (1.0, 1.0, 1.0, -5.0, 3.0),   # slopes change sign and it exceeds 3 m0: 3 m0
    (1.0, 1.0, 0.0, 2.0, 0.0),    # a flat first segment
], ids=["three_point", "wrong_sign", "capped", "flat"])
def test_edge_slope_branches(h0, h1, m0, m1, want):
    assert _pchip_edge(np.float64(h0), np.float64(h1), np.float64(m0),
                       np.float64(m1)) == want
    # the same table through the whole interpolant, at both ends
    x = np.array([0.0, h0, h0 + h1])
    y = np.array([0.0, m0 * h0, m0 * h0 + m1 * h1])
    rng = np.random.default_rng(7)
    assert_matches_scipy(x, y, rng)
    assert_matches_scipy(-x[::-1], y[::-1], rng)


@pytest.mark.parametrize("y", [
    [0.0, 1.0, 0.0, 1.0, 3.0],          # interior sign changes
    [0.0, 1.0, 1.0, 2.0, 2.5],          # a flat interior segment
    [1.0, 1.0, 1.0, 1.0, 1.0],          # flat throughout
    [-0.0, -0.0, 2.0, -1.0, -0.0],      # -0.0 nodes
    [3.0, -1.0, 4.0, -1.0, 5.0],        # a sign change at every node
], ids=["sign_change", "flat_segment", "constant", "negative_zero", "zigzag"])
def test_interior_rule_matches_scipy(y):
    x = np.array([0.0, 0.5, 2.0, 2.25, 5.0])
    assert_matches_scipy(x, np.array(y), np.random.default_rng(11))


def test_uneven_and_two_node_tables_match_scipy():
    # nodes far from evenly spaced, so the index guess misses and the binary
    # search decides; and the two-node table, a straight line
    rng = np.random.default_rng(3)
    assert_matches_scipy(np.array([0.0, 1e-3, 1.0, 100.0, 100.5]),
                         np.array([1.0, 2.0, -3.0, 4.0, 4.5]), rng)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        x = np.cumsum(rng.exponential(1.0, n) + 1e-3)
        y = rng.choice([-1.0, 0.0, 1.0, 2.0], n) * rng.uniform(0.0, 3.0, n)
        assert_matches_scipy(x, y, rng)


def test_output_is_a_writable_float64_array_of_the_input_shape():
    x = np.log(np.geomspace(1e-4, 1e3, 20))
    interp = PchipInterpolator(x, np.sqrt(np.exp(x)))
    for pts in (np.full((3, 4), 0.5), np.array(0.5), x[::3], [1, 2]):
        out = interp(pts)
        assert out.dtype == np.float64 and out.flags.writeable
        assert out.shape == np.shape(pts)
        out[...] = 0.0  # beta writes its out-of-table cells in place


@pytest.mark.parametrize("x, y, kw", [
    ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], {}),
    ([0.0, 2.0, 1.0], [0.0, 1.0, 2.0], {}),
    ([0.0], [0.0], {}),
    ([0.0, 1.0], [0.0, 1.0, 2.0], {}),
    ([0.0, 1.0], [0.0, 1.0], {"extrapolate": True}),
], ids=["repeated_node", "decreasing", "one_node", "length_mismatch", "extrapolate"])
def test_refuses_what_it_cannot_interpolate(x, y, kw):
    with pytest.raises(ValueError):
        PchipInterpolator(np.array(x), np.array(y), **kw)
