"""An exact answer for the crossing frequency of the Rademacher walk.

The Rademacher walk has B_n^2 = n and A_n on the integer lattice, so the
probability that A_k >= beta(k) for some k <= n follows from an
absorbing-barrier recursion: each step sends half of each cell's mass to
each neighbour, then removes and counts the mass at or above beta(k). Run on
the engine's own beta (the PCHIP table `_boundary_interpolant` builds for a
`crossing_frequency` call), it is the quantity the engine estimates, with no
boundary error between the two. The engine looks beta up on one B^r row
shared by all paths, built by the variant's `accumulate` on a row of ones."""
import itertools

import numpy as np
import pytest
from scipy import stats

from selfnorm.experiments import ExperimentConfig, _boundary_interpolant, crossing_frequency
from selfnorm.mixture import RobbinsSiegmund, boundary
from selfnorm.processes import Rademacher

RS = RobbinsSiegmund(1.0)


def engine_beta(c, horizon, n):
    """beta at B^2 = 1..n, from the table a crossing_frequency call with this
    horizon builds (RS mixture, delta = 1, r = 2)."""
    beta = _boundary_interpolant(RS, c, 2.0, 1e-4, 16.0 * horizon)
    return beta(np.arange(1.0, n + 1.0))


def exact_crossing(beta):
    """P(A_k >= beta[k-1] for some k <= n) for n = 1..len(beta), by the
    absorbing-barrier recursion on the lattice -n-1..n+1."""
    n = len(beta)
    a = np.arange(-n - 1.0, n + 2.0)
    mass = (a == 0.0).astype(float)
    crossed, out = 0.0, np.empty(n)
    for k in range(n):
        mass[1:-1] = 0.5 * (mass[:-2] + mass[2:])
        hit = a >= beta[k]
        crossed += mass[hit].sum()
        mass[hit] = 0.0
        out[k] = crossed
    return out


def enumerated_crossing(beta):
    """The same probabilities, counted over all 2^n sign paths."""
    n = len(beta)
    a = np.cumsum(np.array(list(itertools.product((-1.0, 1.0), repeat=n))), axis=1)
    ever = np.logical_or.accumulate(a >= beta, axis=1)
    return ever.sum(axis=0) / 2.0 ** n


def clopper_pearson(hits, n, alpha):
    """The two-sided exact binomial interval of level 1 - alpha."""
    lo = 0.0 if hits == 0 else stats.beta.ppf(alpha / 2, hits, n - hits + 1)
    hi = 1.0 if hits == n else stats.beta.ppf(1 - alpha / 2, hits + 1, n - hits)
    return lo, hi


@pytest.mark.parametrize("n", [1, 2, 5, 12, 16])
@pytest.mark.parametrize("c_over_mass", [1.0001, 1.01, 1.1, 10.0])
def test_recursion_matches_enumeration(n, c_over_mass):
    # every probability is a multiple of 2^-n, so both are exact
    beta = engine_beta(c_over_mass * RS.total_mass, 1000, n)
    assert exact_crossing(beta).tolist() == enumerated_crossing(beta).tolist()


def test_enumeration_sees_crossings():
    # at c = 10 mass no 12-step path reaches beta (beta(1) is about 31);
    # nearer the mass the comparison above is not vacuous
    for c_over_mass in (1.0001, 1.01, 1.1):
        assert enumerated_crossing(engine_beta(c_over_mass * RS.total_mass, 1000, 12))[-1] > 0.0
    assert enumerated_crossing(engine_beta(10.0 * RS.total_mass, 1000, 12))[-1] == 0.0


def test_engine_inside_exact_interval():
    # 20,000 paths at a fixed seed against the exact values at checkpoints
    # 100 and 1000, by a two-sided 99.99% Clopper-Pearson interval: with one
    # hit at n = 100 a Wald interval would be far too narrow
    paths, horizon, cks = 20000, 1000, (100, 1000)
    c = 10.0 * RS.total_mass
    exact = exact_crossing(engine_beta(c, horizon, horizon))
    assert exact[99] == pytest.approx(2.1436e-4, rel=1e-4)
    assert exact[999] == pytest.approx(0.029360, rel=1e-4)
    cfg = ExperimentConfig(spec=Rademacher(), seed=20260826, paths=paths,
                           horizon=horizon, checkpoints=cks)
    reports = crossing_frequency(cfg, mixture=RS, c=c)
    for n, rep in zip(cks, reports):
        hits = round(rep.estimate * paths)
        lo, hi = clopper_pearson(hits, paths, 1e-4)
        assert lo <= exact[n - 1] <= hi, (n, hits, exact[n - 1], lo, hi)


def test_table_moves_no_exact_crossing():
    # the 160-node PCHIP table against beta solved at every n = 1..1000: the
    # two differ by up to about 1e-5 relative, but no beta(n) crosses a
    # lattice point between them, so every exact crossing probability is the
    # same bits; this bounds what the table may change on this walk
    c, horizon = 10.0 * RS.total_mass, 1000
    table = engine_beta(c, horizon, horizon)
    solved = boundary(np.arange(1.0, horizon + 1.0), c, RS)
    assert np.max(np.abs(table / solved - 1.0)) > 0.0
    exact = exact_crossing(table)
    assert np.array_equal(exact, exact_crossing(solved))
    assert exact[99] == pytest.approx(2.143565504338148e-4, rel=1e-12)
    assert exact[999] == pytest.approx(0.029360166487952664, rel=1e-12)
