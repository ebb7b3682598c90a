"""Seeded Monte Carlo verification engine.

Estimates supermartingale means, tail probabilities, moments, boundary
crossing frequencies, and iterated-logarithm running statistics over many
simulated paths, and compares them to the analytic bounds.

Determinism contract: paths are partitioned into fixed chunks whose sizes
depend only on the paths and the cells per path (the horizon, or a vector
grid's steps times its dimension); chunk i draws from the substream
SeedSequence(seed, spawn_key=(1, i)) and partial results are combined in
chunk order with exact (fsum) accumulation. Reports are therefore identical
for any worker count.

Every experiment runs on one chunk driver, `_Scan`. It opens every chunk's
stream, carry and reducer first, then draws and accumulates each block of
`_BLOCK` steps in every chunk, on one thread pool per call, and cuts the
block, as views, after the steps the experiment names (its checkpoints, or
the half horizon). A vector spec runs its whole grid as one block. Each
chunk-block runs as consecutive row tiles, sized in bytes: a tile's draws
take at most those of a float64 tile of `_TILE` cells (one row, if a row is
wider), so int8 draws take eight times its rows. A tile is drawn and goes
through one tile path, chosen once per call, before the next tile is drawn.
Cells come off a chunk's stream path-major, so the tiles draw what one draw
of the whole block would; a variant that reads part of the stream for the
whole block first (signs before scales) keeps one byte a cell of it per
block (`codes`). Only views are cut, so the stream and the chunk layout
depend neither on the stops, nor on the tiles, nor on the worker count.
Where B^r is a function of n alone (`spec.b_deterministic`), it is built
once per block as one row shared by all paths, and the statistic's work on
B^r alone (of_b) runs once per piece, for every chunk.

Each worker thread of a call has one `_Workspace`: flat buffers, made in
the call and dropped with it, that its tiles are drawn into and summed in.
No role holds more bytes than a float64 tile of `_TILE` cells, whatever the
chunk size, nor does a group of the screen's segment sums, so every pass
after the draw runs in cache; only a block's codes, at one byte a cell, grow
with the chunk. The pieces a reducer receives are views of them, overwritten
by the worker's next tile: a reducer copies what it keeps.

The tile paths, functions in `_Scan.__call__`, each with its contract:

  path      reducer declares     spec and tile                  builds
  screened  `screen` (the        `unit_steps`, shared B^r row   int8 signs, 64-step
            defaults only:                                      sums, running A on
            `_Crossings` of                                     open segments only
            A >= beta,
            `_RunningMax` of
            the lil quotient)
  at_ends   `ends_only`          any, on tiles of `_ENDS_ROWS`  sums at piece ends
            (`_StateAtStops`)    rows or more                   only (`_piece_ends`)
  per_cell  every other reducer  any; tiles half as tall        every running sum, A
                                 where A has a partner (B^r,    and its partner as
                                 else V^2)                      one complex pair

Every path gives each reducer the bits the per-cell path would. On a random
normalizer the crossing rule (`_hit_cells`) drops rows and cells that cannot
cross before any boundary lookup (see `_SCREEN_SLACK`).

Neither importing this module nor a crossing run loads a scipy module,
unless the mixture is a `Density`, whose psi is a quadrature: the boundary
table's interpolant is the module-level `PchipInterpolator`, a numpy PCHIP
that gives scipy's bits, which a tracer may swap.
"""
from __future__ import annotations

import bisect
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .constants import (DomainError, _at_most, _count, _finite, _integer, _one_of, _positive,
                        _reals, _rule, fields_to_json, lil_constants)
from .bounds import (DEFAULT_LOG_FLOOR, SQRT2, cor22_normalized, iterated_log,
                     lil_denominator, moment_bound_cor22, moment_bound_thm21,
                     tail_bound_cor22, thm21_normalized, v_normalized)
from .mixture import (RESIDUAL_TOL, GaussianMixture, MixtureMeasure, boundary,
                      crossing_bound)
from .processes import (Counterexample65, MvBrownianGrid, ProcessSpec, WeightedIID,
                        _Variant, _Workspace, _abs_pow, chunk_rng, log_supermartingale,
                        spec_from_json, spec_to_json)

_BLOCK = 32768
# Cells of a float64 row tile, 512 KB, so a tile's draws, B^r and V^2 fit in
# L2. It is a byte budget per role: int8 draws take eight times its rows.
_TILE = 1 << 16
# Fewest rows of a tile whose sums at the piece ends are reduced time-major
# (`_piece_ends`). Over tiles of _TILE cells on a 2-CPU Xeon (2 MB L2), cumsum
# plus the carry costs 3.6-5.3 ns a cell at any row count, while the
# time-major copy and reduce cost 13 ns at 2 rows, 6 at 5, even at 6-10,
# 3.3 at 12 and 0.7-1.4 at 50 rows or more (with few rows, the transposing
# copy reads each long row a cell at a time). It must stay >= 2, as numpy
# sums one lane pairwise.
_ENDS_ROWS = 12
# Steps of a screen segment. Both screens decide a segment from a bound read at
# its edges: the crossing lookups on a random normalizer (`_hit_cells`), and the
# lil and crossing scans on a unit-step walk (`_segment_edges`).
_SCREEN_STEPS = 64
_MAX_CHUNK_PATHS = 16384
_TARGET_CELLS = 4_194_304
# The most chunks of a scan. Each chunk's stream, reducer and carry are made
# before the first draw, about 35 us and 1.9 KB a chunk on a 2-CPU Xeon: 10^6
# paths of 10^7 cells, one a chunk, would spend 35 s and 1.9 GB on them.
_MAX_CHUNKS = 1 << 16
# The most points of a boundary table (`boundary --v-points`), bins of a
# cluster-set histogram (`bins`) and items of a lambda, x or p list. Each
# point is a float64 in every array of the table and a root solve; 2^16
# points took 43 s and raised the peak RSS by 30 MB on a 2-CPU Xeon.
_MAX_POINTS = 1 << 16
# The most paths x checkpoints of a scan, counted as one checkpoint where the
# experiment keeps no value per path and stop. `_StateAtStops` keeps three
# float64s a path and stop and `lil_track` returns two arrays of them, and
# every scan carries three float64s a path; 2^24 is 134 MB a float64 array.
_MAX_RECORDS = 1 << 24
# Nodes of a crossing call's boundary table, geometric in v.
_TABLE_NODES = 160


def _checkpoints(v, name, horizon=math.inf, spec=None):
    """Sorted, distinct steps in [1, horizon], as ints; on an MvBrownianGrid
    spec, times on its grid, as given (the Gaussian crossing reads them)."""
    grid = isinstance(spec, MvBrownianGrid)
    cks = _reals(v, name) if grid else tuple(_count(c, name) for c in _reals(v, name))
    lo, hi = (spec.times[0], spec.times[-1]) if grid else (1, horizon)
    if list(cks) != sorted(set(cks)) or cks and not lo <= cks[0] <= cks[-1] <= hi:
        raise DomainError(f"{name} must be sorted, distinct and in [{lo:g}, {hi:g}], got {v!r}")
    return cks


def _horizon(v, name, spec=None):
    """A step count >= 1, and at most the steps `spec` can draw (a grid's)."""
    v = _count(v, name)
    if spec is not None and v > spec.steps:
        raise DomainError(f"{name} {v} exceeds the grid's {spec.steps} steps")
    return v


# rule(value, name) of each experiment input (horizon also takes a spec, and
# checkpoints the horizon and spec): the value, an int for an integer and a tuple
# for a list, or a DomainError naming it; paper domains (x >= sqrt(2)) stay in their formulas.
_items = _at_most(_MAX_POINTS, _reals)
INPUT_RULES = {
    "seed": _integer(0), "paths": _count, "horizon": _horizon, "checkpoints": _checkpoints,
    "lambda_grid": _items, "x_grid": _items, "p_list": _items,
    "statistic": _one_of("auto", "lil", "uncentered", "conditional_variance", "universal"),
    "se_slack": _rule("a finite number >= 0", lambda v: _finite(v) and v >= 0, float),
    "c": _positive, "c_over_mass": _positive, "y": _positive, "p": _positive,
    "margin": _rule("a finite number > -1", lambda v: _finite(v) and v > -1),
    "alpha": _rule("a number in (0, 1/2)", lambda v: _finite(v) and 0 < v < 0.5),
    "bins": _at_most(_MAX_POINTS), "v_points": _at_most(_MAX_POINTS),
    "v_min": _positive, "v_max": _positive,
}


@dataclass(frozen=True)
class ExperimentConfig:
    spec: ProcessSpec
    seed: int
    paths: int
    horizon: int
    checkpoints: tuple[int, ...] = ()
    lambda_grid: tuple[float, ...] = ()
    x_grid: tuple[float, ...] = ()
    p_list: tuple[float, ...] = ()
    statistic: str = "auto"
    se_slack: float = 3.0

    def __post_init__(self):
        if not isinstance(self.spec, _Variant):
            raise DomainError(f"spec must be a process variant, got {self.spec!r}")
        for f in fields(self)[1:]:  # each field after spec, by its rule; horizon before checkpoints
            extra = (self.horizon, self.spec) if f.name == "checkpoints" else ()
            object.__setattr__(self, f.name,
                               INPUT_RULES[f.name](getattr(self, f.name), f.name, *extra))


@dataclass(frozen=True)
class BoundReport:
    label: str
    analytic_bound: float
    estimate: float
    std_error: float
    paths: int
    passed: bool
    extra: dict | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["pass"] = d.pop("passed")
        return d


def _one_sided(label, bound, estimate, se, paths, k) -> BoundReport:
    return BoundReport(label=label, analytic_bound=bound, estimate=estimate,
                       std_error=se, paths=paths, passed=bool(estimate - k * se <= bound))


def resolve_workers(workers: int | None) -> int:
    """workers, else the digits of SELFNORM_WORKERS, else 1, by the integer rule."""
    if workers is None:
        env = os.environ.get("SELFNORM_WORKERS", "1")
        return _count(int(env) if env.strip().isdecimal() else env, "SELFNORM_WORKERS")
    return _count(workers, "workers")


def _piece_ends(x, end, stops, t):
    """The running sums of x (rows, L, ...) along axis 1 plus `end`, the sums
    a step before x, at each of the sorted steps `stops` (the last being L),
    as the columns of a (rows, len(stops), ...) array; `end` is advanced to
    the last. They are the bits of those columns of `np.cumsum(x, axis=1) +
    end[:, None]`: t, a (L, rows, ...) buffer, takes x time-major, and a
    reduce along t's axis 0 adds each lane's steps one by one in step order,
    as cumsum does. Each piece's chain goes on from the previous piece's sum,
    written over the step before it, and then takes `end` (never -0.0, so
    the sign of a zero partial sum cannot show). A single lane would be one
    contiguous run, which numpy sums pairwise: rows must be >= 2."""
    t[...] = np.swapaxes(x, 0, 1)
    out = np.empty((x.shape[0], len(stops)) + x.shape[2:])
    s, chain = 0, None
    for j, e in enumerate(stops):
        if chain is not None:
            t[s - 1] = chain
        chain = np.add.reduce(t[max(s - 1, 0):e], axis=0)
        np.add(chain, end, out=out[:, j])
        s = e
    end[...] = out[:, -1]
    return out


def _segment_edges(d, end):
    """The exact A at the edges of the `_SCREEN_STEPS`-step segments of d
    (rows, L), a walk of +-1 steps (int8 on the scan's screen path, or
    float64) whose last segment may be shorter, from `end`, the float64 A a
    step before d, which is advanced to the last: (rows, segments + 1), the
    A before each segment, then after the last. Each segment's steps are
    summed in d's own dtype by einsum (on a 2-CPU Xeon, 0.27 ns a cell in
    int8, against 0.5-0.6 for a reduce); any partial sum of at most 64
    steps is exact in int8. The float64 edges then add integers below 2^53, exact in any
    order, so each is the bits of the running sum at that step."""
    S = _SCREEN_STEPS
    rows, L = d.shape
    full = L - L % S
    a = np.empty((rows, -(-L // S) + 1))
    a[:, 0] = end
    a[:, 1:full // S + 1] = np.einsum("...k->...", d[:, :full].reshape(rows, -1, S))
    if full < L:
        a[:, -1] = np.einsum("...k->...", d[:, full:])
    np.cumsum(a, axis=1, out=a)
    end[...] = a[:, -1]
    return a


def _segment_top(a):
    """A bound on the A of each segment of a +-1 walk, from a, its
    `_segment_edges`: m <= `_SCREEN_STEPS` steps from a0 to a1 hold (m + a1
    - a0) / 2 up-steps, so on the segment A stays at or below (a0 + a1 + m)
    / 2 <= (a0 + a1 + _SCREEN_STEPS) / 2, a peak it may reach; a short last
    segment's zero pad holds A. Sums of integers below 2^53: exact."""
    return (a[:, :-1] + a[:, 1:] + _SCREEN_STEPS) / 2


def _segment_runs(d, a, p, s):
    """The running A over segment s[i] of row p[i] of d, for each i, from a,
    `_segment_edges` of d, in groups of at most `_TILE // _SCREEN_STEPS`
    segments: (g, x) for each group, g its slice of p and s and x a fresh
    float64 (group, _SCREEN_STEPS), at most one float tile, the bits of the
    running sums of the whole row at those steps; only these segments' steps
    are cast. A short last segment is padded with zero steps, on which A
    holds."""
    S = _SCREEN_STEPS
    L = d.shape[1]
    full = L - L % S
    step = max(1, _TILE // S)
    for lo in range(0, p.size, step):
        g = slice(lo, lo + step)
        pg, sg = p[g], s[g]
        x = np.zeros((pg.size, S))
        whole = sg < full // S
        x[whole] = d[:, :full].reshape(d.shape[0], -1, S)[pg[whole], sg[whole]]
        x[~whole, :L - full] = d[pg[~whole], full:]
        x[:, 0] += a[pg, sg]  # integers below 2^53: A may start the sums
        yield g, np.cumsum(x, axis=1, out=x)


def _by_segment(x, pad):
    """x, one piece's values per step, as rows of `_SCREEN_STEPS` steps, the
    last padded with `pad`."""
    out = np.full(-(-x.size // _SCREEN_STEPS) * _SCREEN_STEPS, pad)
    out[:x.size] = x
    return out.reshape(-1, _SCREEN_STEPS)


def _chunk_paths(paths: int, cells: int) -> int:
    """Paths of every chunk but the last, which takes the rest."""
    return min(paths, max(1, _TARGET_CELLS // max(cells, 1)), _MAX_CHUNK_PATHS)


def _chunk_layout(paths: int, cells: int) -> list[int]:
    """Fixed chunk sizes; a pure function of (paths, cells per path) so
    results do not depend on the worker count."""
    size = _chunk_paths(paths, cells)
    out = [size] * (paths // size)
    if paths % size:
        out.append(paths % size)
    return out


class _Scan:
    """The chunked block scan behind every experiment. Built first, it
    refuses, before the experiment reads its spec and before any draw, the
    specs the experiment cannot run, and fixes the chunk layout and the
    worker count. Only the Gaussian crossing asks for the `vector` state,
    and only an MvBrownianGrid has one; its whole grid runs as one block,
    since blocks would draw (P, L, dim) in another order. `kept` is the
    number of stops at which the experiment keeps a value per path; paths
    times that (or 1) above `_MAX_RECORDS`, and more than `_MAX_CHUNKS`
    chunks, are refused before any chunk is laid out."""

    def __init__(self, cfg, workers, vector=False, kept=1):
        self.workers = resolve_workers(workers)
        spec = cfg.spec
        if isinstance(spec, MvBrownianGrid) != vector:
            raise DomainError(f"{type(spec).__name__}: only crossing_frequency with a "
                              "GaussianMixture runs MvBrownianGrid's vector state, and no other")
        if isinstance(spec, WeightedIID) and spec.weights != "ones":
            raise DomainError("WeightedIID factorial weights carry S_n/n!, and neither the lil "
                              "statistic nor the mixture boundary is scale-invariant")
        self.horizon = spec.steps if vector else _horizon(cfg.horizon, "horizon", spec)
        if cfg.paths * kept > _MAX_RECORDS:
            raise DomainError(f"paths {cfg.paths} x checkpoints {kept} asks for "
                              f"{8 * cfg.paths * kept} bytes, a float64 an item, above the "
                              f"limit of {_MAX_RECORDS} items")
        cells = self.horizon * math.prod(spec.components)
        chunks = -(-cfg.paths // _chunk_paths(cfg.paths, cells))
        if chunks > _MAX_CHUNKS:
            raise DomainError(f"paths {cfg.paths} of {cells} cells each take {chunks} chunks, "
                              f"above the limit of {_MAX_CHUNKS}")
        self.block = self.horizon if vector else _BLOCK
        self.cfg = cfg
        self.layout = _chunk_layout(cfg.paths, cells)

    def __call__(self, reducer, stops=(), b=True, v=False, of_b=None) -> list:
        """One reducer(P) per chunk of P paths, fed every block in row tiles
        and returned in chunk order. The tile path is chosen here, once.

        reducer.segment(rows, n_idx, ca, cb, cv, k) receives, piece by
        piece, the slice of the chunk's rows its sums cover, the global step
        indices of a piece of a block and the running sums over it from
        `spec.accumulate(..., b, v)`: A always, B^r and V^2 where b and v ask
        for them (else None). Blocks are cut after each step in the sorted
        `stops`; k is the index of the stop a piece ends on, else None. of_b,
        a function of a piece of B^r alone, gives what segment receives in
        place of that piece (default: the piece itself). With b True and
        `spec.b_deterministic`, B^r is one row for all paths, built once per
        block; of_b then runs once per piece, and every chunk receives the
        same object, which segment must not write to. segment may overwrite
        ca and keeps no piece: the worker's next tile overwrites them.

        A reducer may declare `ends_only`, if it reads only each piece's
        last step (the `at_ends` path), and `screen(x)` (unless None),
        per-segment bounds of a shared piece x from of_b, with
        `screened(rows, n_idx, d, a, bounds, k)`, which the `screened` path
        calls in place of segment on a unit-step spec with a shared row."""
        cfg, spec = self.cfg, self.cfg.spec
        row = b is True and spec.b_deterministic
        b = False if row else b  # the chunks then accumulate no B^r of their own
        of_b = of_b or (lambda cb: cb)
        n = len(self.layout)
        rngs = [chunk_rng(cfg.seed, ci) for ci in range(n)]
        reds = [reducer(P) for P in self.layout]
        screen = row and spec.unit_steps and getattr(reds[0], "screen", None)
        # what a reducer receives of each piece of the shared row
        of_row = (lambda x: screen(of_b(x))) if screen else of_b
        draws = np.int8 if screen else np.float64  # screened signs are only summed
        carries = [(np.zeros((P,) + spec.components), np.zeros(P), np.zeros(P))
                   for P in self.layout]  # each chunk's A, B^r, V^2, advanced in place
        width = min(self.block, self.horizon)
        # rows of a tile, whose draws take at most the bytes of a float64 tile
        tile = max(1, _TILE * 8 // (width * math.prod(spec.components)
                                    * np.dtype(draws).itemsize))
        ends = getattr(reds[0], "ends_only", False)
        # A has a partner (B^r, else V^2) for per_cell's complex pair, which
        # takes two floats a cell: tiles that all go per cell are half as tall
        paired = not (screen or spec.components) and (b or v)
        if paired and (not ends or tile < _ENDS_ROWS):
            tile = max(1, tile // 2)
        local = threading.local()  # one workspace per worker thread, for this call only

        def feed(red, rows, pieces, shared, ca, cb, cv):  # segment on each piece of rows' sums
            for j, (cut, n_piece, k) in enumerate(pieces):
                red.segment(rows, n_piece, ca[:, cut],
                            shared[j] if row else None if cb is None else of_b(cb[:, cut]),
                            None if cv is None else cv[:, cut], k)

        def per_cell(red, rows, d, carry, ws, n_idx, pieces, shared):
            """Every cell's running sums, from `spec.accumulate` on the tile
            and its carry. Where A has a partner (B^r, else V^2) on a scalar
            state, the two are one complex128 chain in role 1
            (`_Workspace.pair`): a complex add adds the parts apart by the
            same IEEE adds, so one cumsum gives the bits of both sums. Role 1
            holds a float tile's bytes, so the scan makes these tiles half
            as tall; a tile the pair cannot hold (one row wider than half a
            float tile, or an ends path's short last tile) keeps float sums,
            which give the same bits, as does a vector state."""
            pair = ws.pair(*d.shape) if paired and 2 * d.size <= _TILE else None
            # with the pair, role 2 holds V^2 only as a third sum, beside A and B^r
            out = (ws.view(1, d.shape) if b and pair is None else None,
                   ws.view(2, d.shape) if v and (b or pair is None) else None)
            feed(red, rows, pieces, shared, *spec.accumulate(d, n_idx, carry, b, v, out, pair))

        def at_ends(red, rows, d, carry, ws, n_idx, pieces, shared):
            """For an `ends_only` reducer, which reads only each piece's last
            step: segment receives, in place of each piece, its last step
            alone, n_idx of one step and sums of shape (rows, 1) that
            `_piece_ends` reduces time-major from the draws and
            `spec.increments`, the same adds in the same order as the running
            sums, which are never built. Every spec the scan runs sums its
            increments by the default `accumulate` (it refuses WeightedIID's
            factorial weights). A tile of fewer than `_ENDS_ROWS` rows goes
            per cell; its own count decides, as a chunk's last tile may have
            one row, which numpy would sum pairwise."""
            if d.shape[0] < _ENDS_ROWS:
                return per_cell(red, rows, d, carry, ws, n_idx, pieces, shared)
            out = (ws.view(1, d.shape) if b else None, ws.view(2, d.shape) if v else None)
            stops_at = [cut.stop for cut, _, _ in pieces]
            feed(red, rows, [(slice(j, j + 1), n_piece[-1:], k)
                             for j, (_, n_piece, k) in enumerate(pieces)], shared,
                 *(None if x is None else _piece_ends(
                     x, c, stops_at, ws.view(4, x.shape[1::-1] + x.shape[2:]))
                   for x, c in zip((d, *spec.increments(d, n_idx, b, v, out)), carry)))

        def screened(red, rows, d, carry, ws, n_idx, pieces, shared):
            """For a reducer with a `screen`, on a `unit_steps` spec with a
            shared row, each of whose pieces x is given as `screen(of_b(x))`:
            d holds the tile's +-1 steps in int8 (the variant writes the signs
            of a float64 draw and leaves the stream as that would), so every
            partial sum of A is an integer, exact in any order below 2^53.
            reducer.screened(rows, n_idx, d, a, bounds, k) receives each
            piece's steps, a, their `_segment_edges` (the exact A before each
            `_SCREEN_STEPS`-step segment and after the last), and the piece's
            bounds. No running sum is built here: the reducer skips the
            segments its bounds rule out and sums the rest, a float tile at a
            time (`_segment_runs`)."""
            for (cut, n_piece, k), bounds in zip(pieces, shared):
                x = d[:, cut]
                red.screened(rows, n_piece, x, _segment_edges(x, carry[0]), bounds, k)

        path = screened if screen else at_ends if ends else per_cell

        def advance(ci, block):  # chunk ci through one block, on its own stream
            lo, hi, n_idx, pieces, shared = block
            ws = getattr(local, "ws", None)
            if ws is None:
                ws = local.ws = _Workspace()
            rng, red, P, carry = rngs[ci], reds[ci], self.layout[ci], carries[ci]
            codes = (spec.codes(rng, ws.view(3, (P, hi - lo) + spec.components, np.int8))
                     if spec.coded else None)
            for t in range(0, P, tile):
                rows = slice(t, min(t + tile, P))
                d = spec.draw(rng, lo, hi, rows.stop - t,
                              ws.view(0, (rows.stop - t, hi - lo) + spec.components, draws),
                              None if codes is None else codes[rows])
                path(red, rows, d, tuple(c[rows] for c in carry), ws, n_idx, pieces, shared)

        ones, b_row, row_carry = np.empty((1, width)), np.empty((1, width)), np.zeros((3, 1))
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            fan = pool.map if self.workers > 1 and n > 1 else map
            for lo in range(0, self.horizon, self.block):
                hi = min(lo + self.block, self.horizon)
                n_idx = np.arange(lo + 1, hi + 1)
                inside = range(bisect.bisect_right(stops, lo), bisect.bisect_right(stops, hi))
                pieces, s = [], 0
                for e, k in [(stops[k] - lo, k) for k in inside] + [(hi - lo, None)]:
                    if e > s:
                        pieces.append((slice(s, e), n_idx[s:e], k))
                    s = e
                shared = None
                if row:  # B^r increments are a function of n alone: any draws give them
                    d = ones[:, :hi - lo]
                    d.fill(1.0)
                    cb = spec.accumulate(d, n_idx, row_carry, True, False,
                                         (b_row[:, :hi - lo], None))[1]
                    shared = [of_row(cb[0, cut]) for cut, _, _ in pieces]
                block = (lo, hi, n_idx, pieces, shared)
                list(fan(advance, range(n), [block] * n))
        return reds


def _mean_se(s1: float, s2: float, n: int) -> tuple[float, float]:
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


def _frequency_report(label, bound, count, cfg) -> BoundReport:
    """A frequency of count in cfg.paths with its binomial SE; pass iff
    freq - k*SE <= bound."""
    p_hat = float(count) / cfg.paths
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / cfg.paths)
    return _one_sided(label, bound, p_hat, se, cfg.paths, cfg.se_slack)


class _StateAtStops:
    """Each path's A, and B^r and V^2 where the scan carries them, at each
    stop: it reads only a piece's last step, so the scan hands it only that
    (`ends_only`)."""
    ends_only = True

    def __init__(self, P, n_stops):
        self.a, self.b, self.v = (np.zeros((P, n_stops)) for _ in range(3))

    def segment(self, rows, n_idx, ca, cb, cv, k):
        if k is not None:
            self.a[rows, k] = ca[:, -1]
            if cb is not None:
                self.b[rows, k] = cb[..., -1]
            if cv is not None:
                self.v[rows, k] = cv[:, -1]


# ---------------------------------------------------------------------------
# supermartingale means
# ---------------------------------------------------------------------------

def check_supermartingale_mean(cfg: ExperimentConfig,
                               workers: int | None = None) -> list[BoundReport]:
    """Empirical mean of the certified exponential supermartingale at each
    (lambda, checkpoint); pass iff mean - k*SE <= 1."""
    cks = cfg.checkpoints or (cfg.horizon,)
    scan = _Scan(cfg, workers, kept=len(cks))
    lams = cfg.lambda_grid or (0.5,)
    for lam in lams:  # certify each lambda, and its weight, before any draw
        log_supermartingale(cfg.spec, lam, 0.0, 0.0)
    parts = scan(lambda P: _StateAtStops(P, len(cks)), cks)
    name = type(cfg.spec).__name__
    reports = []
    for lam in lams:
        for k, n in enumerate(cks):
            if lam == 0.0:  # the weight is 1 on every path
                mean, se = 1.0, 0.0
            else:
                # sums over each chunk, added exactly in chunk order; the mean
                # stays an np.float64, the type this report has always returned
                w = [np.exp(np.minimum(cfg.spec.log_weight(lam, p.a[:, k], p.b[:, k]), 709.0))
                     for p in parts]
                mean, se = _mean_se(np.float64(math.fsum(float(np.sum(x)) for x in w)),
                                    math.fsum(float(np.sum(x * x)) for x in w), cfg.paths)
            reports.append(_one_sided(f"supermg_mean {name} lambda={lam} n={n}",
                                      1.0, mean, se, cfg.paths, cfg.se_slack))
    return reports


# ---------------------------------------------------------------------------
# section-2 tail and moment bounds
# ---------------------------------------------------------------------------

def _horizon_state(cfg, workers, what):
    """Per-path A and B^2 = (B^r)^(2/r) at the horizon, in chunk order, after
    refusing a spec not certified over all real lambda."""
    scan = _Scan(cfg, workers)
    cert = cfg.spec.certification
    if cert is None or cert[0] != "all":
        raise DomainError(f"{what} certification over all real lambda")
    parts = scan(lambda P: _StateAtStops(P, 1), (cfg.horizon,))
    a = np.concatenate([p.a[:, 0] for p in parts])
    b = np.concatenate([p.b[:, 0] for p in parts])
    return a, (b if cfg.spec.r == 2.0 else b ** (2.0 / cfg.spec.r))


def validate_tail_bound(cfg: ExperimentConfig, y: float,
                        workers: int | None = None) -> list[BoundReport]:
    """Empirical tail of |A|/sqrt((B^2+y)(1+log(1+B^2/y)/2)) at the horizon
    versus exp(-x^2/2), for each x >= sqrt(2) in the grid."""
    INPUT_RULES["y"](y, "y")
    xs = cfg.x_grid or (SQRT2, 2.0, 2.5, 3.0)
    if min(xs) < SQRT2:
        raise DomainError(f"tail grid point {min(xs)} below sqrt(2)")
    a, b2 = _horizon_state(cfg, workers, "tail bound requires")
    stat = cor22_normalized(a, b2, y)
    return [_frequency_report(f"tail x={x:g} y={y:g}", tail_bound_cor22(x),
                              np.count_nonzero(stat >= x), cfg) for x in xs]


def validate_moment_bound(cfg: ExperimentConfig, p_list=(),
                          workers: int | None = None) -> list[BoundReport]:
    """Empirical p-th moments of |A|/sqrt(B^2+(EB)^2) and of the two-sided
    normalized statistic, against their analytic bounds. EB is the plug-in
    empirical mean of B over the same paths (bias noted in the label)."""
    # the analytic bounds, which refuse p <= 0, before any draw
    bounds = [(p, moment_bound_thm21(p), moment_bound_cor22(p)) for p in
              INPUT_RULES["p_list"](p_list, "p_list") or cfg.p_list or (1.0, 2.0, 4.0)]
    a, b2 = _horizon_state(cfg, workers, "moment bounds require")
    eb = math.fsum(np.sqrt(b2).tolist()) / cfg.paths
    y = eb * eb
    s_thm = thm21_normalized(a, b2, y)
    s_cor = cor22_normalized(a, b2, y)
    reports = []
    for p, thm, cor in bounds:
        for tag, s, bound in (("ratio_moment", s_thm, thm), ("normalized_moment", s_cor, cor)):
            w = s ** p
            mean, se = _mean_se(float(np.sum(w)), float(np.sum(w * w)), cfg.paths)
            reports.append(_one_sided(
                f"{tag} p={p:g} (plug-in EB={eb:.6g})", bound, mean, se,
                cfg.paths, cfg.se_slack))
    return reports


# ---------------------------------------------------------------------------
# boundary crossing
# ---------------------------------------------------------------------------

def _pchip_edge(h0, h1, m0, m1):
    """The one-sided three-point end slope, kept shape-preserving (Moler,
    Numerical Computing with MATLAB, 3.6), as scipy's `_edge_case`."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class PchipInterpolator:
    """PCHIP (Fritsch & Carlson 1980; Fritsch & Butland 1984) through
    (x, y), x strictly increasing, bit for bit scipy.interpolate's
    PchipInterpolator with extrapolate=False: the same slopes, the same
    Hermite coefficients, and each point evaluated in scipy's operation order
    on the interval x[i] <= x < x[i+1] (the last closed). A point outside
    [x[0], x[-1]], or NaN, gives NaN. Calling it returns a fresh, writable
    float64 array of the input's shape.

    It is a module attribute, looked up by `_boundary_interpolant` at call
    time, so that a tracer can swap it."""

    def __init__(self, x, y, extrapolate=False):
        if extrapolate:
            raise ValueError("PchipInterpolator gives NaN outside the table; "
                             "extrapolate must be False")
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ValueError("x and y must be 1-d of one length, at least 2")
        h = np.diff(x)
        if not np.all(h > 0.0):
            raise ValueError("x must be strictly increasing")
        m = np.diff(y) / h
        d = np.empty_like(y)
        if x.size == 2:
            d[:] = m[0]  # a straight line
        else:
            # the weighted harmonic mean of the two slopes, and 0 where they
            # differ in sign or one is 0
            zero = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
            w1 = 2.0 * h[1:] + h[:-1]
            w2 = h[1:] + 2.0 * h[:-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                d[1:-1] = np.where(zero, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
            d[0] = _pchip_edge(h[0], h[1], m[0], m[1])
            d[-1] = _pchip_edge(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self.x = x
        # coefficients of s^0 .. s^3 on each interval, s = x - x[i]; the
        # constant term is scipy's `0.0 + y`, which turns -0.0 into 0.0
        self._c = (0.0 + y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h)

    def __call__(self, xv):
        xv = np.asarray(xv, dtype=float)
        flat = xv.ravel()
        x = self.x
        # i with x[i] <= point < x[i+1] (the last interval closed); a point
        # outside the table, or NaN, gets some valid i
        i = np.clip(np.searchsorted(x, flat, side="right") - 1, 0, x.size - 2)
        # a point outside is clipped into the table first, so that an
        # infinite one makes no inf * 0; its value is NaN below
        s = np.clip(flat, x[0], x[-1])
        s -= x[i]
        c0, c1, c2, c3 = self._c
        # scipy's evaluate_poly1 order
        res = c0[i]
        res += c1[i] * s
        z = s * s
        res += c2[i] * z
        z *= s
        res += c3[i] * z
        res[~((flat >= x[0]) & (flat <= x[-1]))] = np.nan
        return res.reshape(xv.shape)


def _boundary_interpolant(F: MixtureMeasure, c: float, r: float,
                          v_lo: float, v_hi: float, nodes: int = _TABLE_NODES):
    """beta_F(v, c) by PCHIP in log v over a geometric table of `nodes` points
    on [v_lo, v_hi], built in one `boundary` call; a v outside the table is
    solved exactly, so every value is a function of its own v alone."""
    vg = np.geomspace(v_lo, v_hi, nodes)
    interp = PchipInterpolator(np.log(vg), boundary(vg, c, F, r), extrapolate=False)

    def beta(v):
        out = interp(np.log(v))
        outside = np.isnan(out)
        if np.any(outside):
            out[outside] = boundary(v[outside], c, F, r)
        return out

    return beta


# Screen of the per-cell lookups on a random normalizer. psi(u, v) increases
# in u and decreases in v, so beta(v) increases in v; B^r increments are
# >= 0, so v never falls along a path; PCHIP on increasing data is increasing
# and stays between its node values (Fritsch & Carlson 1980). So every beta a
# piece of a row can look up is at least (1 - _SCREEN_SLACK) times the value
# at any v at or below the piece's first B^r, in particular at the greatest
# table node there: a PCHIP value past that node lies above it, and an exact
# solve past the table above the last node. That node value, read once per
# call from beta at its own nodes, screens whole rows: a row whose greatest A
# on the piece lies below it cannot cross there and is dropped before any
# lookup. On a segment of _SCREEN_STEPS steps of a row left, every cell's
# beta is likewise at least (1 - _SCREEN_SLACK) beta at the segment's first
# cell, and only cells with A at or above that bound are looked up.
#
# The slack covers what makes the computed beta less than monotone. With
# c > F's mass m, beta > 0 and g(u) = log psi(u, v) - log c has g(0) <= -G,
# G = log(c/m). `boundary` stops at |g| <= RESIDUAL_TOL + 4 eps |u| g'; g is
# convex, so g' >= G/u at the root, and an exact solve outside the table lies
# within u (RESIDUAL_TOL/G + 4 eps) of the root of the computed g, which
# falls in v up to rounding. PCHIP values lie between their table nodes, up
# to a few ulp. Two such errors, at the first cell and at a later one, need a
# relative slack of 2 RESIDUAL_TOL/G + 8 eps plus rounding; 1e-6 covers that
# twice over when G >= 8 RESIDUAL_TOL/1e-6 (c >= 1.016 m), and below that the
# screen is off. A larger slack only adds candidates: each one still gets
# the same beta value as without the screen.
_SCREEN_SLACK = 1e-6


def _hit_cells(ca, cb, beta, skip, floor=None):
    """Rows and columns of the cells with ca >= beta(max(cb, 1e-4)) in the
    rows not in `skip`, for a per-cell B^r that never falls along a row; beta
    is evaluated on each segment's first cell and on the cells at or above
    its screen bound only. floor, if given, is (nodes, values): the table's
    sorted nodes and, at index i, beta at node i - 1 less the slack (-inf at
    0); a row whose greatest A is below the value of the greatest node at or
    below its first max(cb, 1e-4) is skipped too, before any lookup."""
    P, L = ca.shape
    if floor is not None:
        nodes, values = floor
        at = np.searchsorted(nodes, np.maximum(cb[:, 0], 1e-4), side="right")
        skip = skip | (ca.max(axis=1) < values[at])
    if skip.all():  # no row can cross: no lookup
        return np.empty(0, np.intp), np.empty(0, np.intp)
    S = _SCREEN_STEPS
    bound = np.full((P, -(-L // S)), np.inf)
    first = beta(np.maximum(cb[~skip, ::S], 1e-4))
    bound[~skip] = first - _SCREEN_SLACK * np.abs(first)
    rows, cols = [], []
    full = L - L % S
    for lo, hi in ((0, full), (full, L)):  # whole segments, then the rest
        if hi > lo:
            width = min(S, hi - lo)
            seg = ca[:, lo:hi].reshape(P, -1, width)  # a view, no copy
            # the flat indices of the C-ordered mask, in np.nonzero's order:
            # its 3-d form steps a multi-index through every cell, ten times slower
            p, off = np.divmod(np.flatnonzero(seg >= bound[:, lo // S:-(-hi // S), None]),
                               hi - lo)
            rows.append(p)
            cols.append(lo + off)
    p, col = np.concatenate(rows), np.concatenate(cols)
    if not p.size:  # most tiles of a run have no candidate: no second lookup
        return p, col
    hit = ca[p, col] >= beta(np.maximum(cb[p, col], 1e-4))
    return p[hit], col[hit]


class _Crossings:
    """Which paths have crossed so far, and how many had by each stop.
    rule(ca, cb, crossed) gives the paths that cross in a piece: cb is what
    the scan's of_b made of the B^r piece, and crossed the piece's rows'
    flags so far. Without a rule it is the crossing A >= beta, cb being beta
    on the piece (of_b's, per cell or on a shared row). A tile runs all of a
    block's pieces before the next tile, so a stop's count is summed over the
    tiles, each adding its own rows.

    Only that default declares a `screen`, as the bound it rests on is of A
    against beta: on a unit-step walk A never exceeds a segment's
    `_segment_top`, so a segment whose least beta lies above that bound is
    skipped, as is a path that has crossed; the rest get exact running
    sums. A given rule may read A otherwise (the Gaussian quadratic form) or
    do its own lookups (`_hit_cells`), so its reducer sets `screen` to None
    and runs per cell."""

    def __init__(self, P, n_stops, rule=None):
        self.rule = rule or (lambda ca, cb, crossed: (ca >= cb).any(axis=1))
        if rule is not None:
            self.screen = None
        self.crossed = np.zeros(P, dtype=bool)
        self.counts = np.zeros(n_stops, dtype=np.int64)

    def segment(self, rows, n_idx, ca, cb, cv, k):
        crossed = self.crossed[rows]  # a view
        crossed[self.rule(ca, cb, crossed)] = True
        if k is not None:
            self.counts[k] += np.count_nonzero(crossed)

    @staticmethod
    def screen(beta):
        """Per segment of a piece's beta row, its beta, +inf on the pad, and
        the least, ignoring NaN (which no A reaches)."""
        seg = _by_segment(beta, np.inf)
        return seg, np.fmin.reduce(seg, axis=1)

    def screened(self, rows, n_idx, d, a, bounds, k):
        """segment on the unit steps d of a piece and a, their
        `_segment_edges`, with bounds from `screen`."""
        seg, least = bounds
        crossed = self.crossed[rows]  # a view
        p, s = np.nonzero((_segment_top(a) >= least) & ~crossed[:, None])
        for g, x in _segment_runs(d, a, p, s):
            crossed[p[g][(x >= seg[s[g]]).any(axis=1)]] = True
        if k is not None:
            self.counts[k] += np.count_nonzero(crossed)


def _gaussian_rule(cfg, G, c):
    """The quadratic-form crossing rule of a Gaussian mixture with precision
    V = U diag(w) U', in V's eigenbasis: 0.5 (log|V| - log|V + tI| + |U'A|^2
    over w + t) >= log c; its work on t alone is the of_b of the B^r = t row."""
    if cfg.spec.dim != G.dim:
        raise DomainError("Gaussian crossing test needs an MvBrownianGrid of matching dim")
    if c <= 1.0:
        raise DomainError("c must exceed 1")
    w, U = np.linalg.eigh(G.precision)
    ld0 = float(np.sum(np.log(w)))
    log_c = math.log(c)

    def of_t(t):
        wt = w + t[:, None]
        return wt, np.sum(np.log(wt), axis=1)

    def rule(ca, cb, crossed):
        wt, logdet = cb
        proj = ca @ U
        quad = np.sum(proj * proj / wt, axis=2)
        return (0.5 * (ld0 - logdet + quad) >= log_c).any(axis=1)

    return rule, of_t


def crossing_frequency(cfg: ExperimentConfig, mixture=None, c: float = None,
                       workers: int | None = None) -> list[BoundReport]:
    """Fraction of paths on which the mixture boundary is ever crossed by each
    checkpoint, with a binomial SE.

    Scalar mixtures test {A_n >= beta_F(B_n^r, c)}; pass iff freq - k*SE <=
    total_mass/c. The boundary assumes the canonical weight exp(lam*A -
    lam^r B^r / r), so a spec certifying another weight is refused. On a
    random normalizer most rows and cells are screened out by monotonicity
    (see `_SCREEN_SLACK`); the hits are those of a lookup on every cell. A Gaussian
    mixture (with an MvBrownianGrid spec) tests the quadratic-form crossing
    rule, whose limit frequency for the continuous process is exactly 1/c;
    here the checkpoints are time values on the grid, and the run covers the
    spec's whole grid: the config's `horizon` is not read.
    """
    INPUT_RULES["c"](c, "c")
    if not isinstance(mixture, MixtureMeasure | GaussianMixture):
        raise DomainError(f"crossing_frequency needs a mixture measure, got {mixture!r}")
    gaussian = isinstance(mixture, GaussianMixture)
    scan = _Scan(cfg, workers, vector=gaussian)
    if gaussian:
        rule, of_b = _gaussian_rule(cfg, mixture, c)
        # a checkpoint counts up to the last grid time at or below it, so two
        # checkpoints may end on one step
        cks = cfg.checkpoints or (cfg.spec.times[-1],)
        steps = np.searchsorted(cfg.spec.times, cks, "right")
        label, bound = "mv_crossing t<={:g} c={:g}", 1.0 / c
    else:
        cert = cfg.spec.certification
        if cert is None:
            raise DomainError("crossing test requires a certified spec")
        if mixture.lambda0 > cert[1] * (1.0 + 1e-12):
            raise DomainError("mixture support exceeds the certified lambda range")
        cks = steps = cfg.checkpoints or (cfg.horizon,)
        if type(cfg.spec).log_weight is not _Variant.log_weight:
            raise DomainError(f"{type(cfg.spec).__name__} certifies a weight other than "
                              "exp(lam*A - lam^r B^r / r), which the mixture boundary assumes")
        v_lo, v_hi = 1e-4, 16.0 * cfg.horizon
        beta = _boundary_interpolant(mixture, c, cfg.spec.r, v_lo, v_hi)
        # a deterministic B^r is one row, whose beta the scan looks up once per step
        if (not cfg.spec.b_deterministic
                and math.log(c / mixture.total_mass) >= 8.0 * RESIDUAL_TOL / _SCREEN_SLACK):
            # beta at its own table nodes, once per call: the row screen's
            # floor (see _SCREEN_SLACK)
            nodes = np.geomspace(v_lo, v_hi, _TABLE_NODES)
            low = beta(nodes)
            floor = nodes, np.concatenate(([-np.inf], low - _SCREEN_SLACK * np.abs(low)))
            rule, of_b = lambda ca, cb, crossed: _hit_cells(ca, cb, beta, crossed, floor)[0], None
        else:
            rule, of_b = None, lambda cb: beta(np.maximum(cb, 1e-4))
        label, bound = "crossing n<={} c={:g}", crossing_bound(c, mixture)
    stops, at = np.unique(steps, return_inverse=True)
    parts = scan(lambda P: _Crossings(P, len(stops), rule), stops.tolist(), of_b=of_b)
    totals = np.sum([p.counts for p in parts], axis=0)
    return [_frequency_report(label.format(n, c), bound, totals[at[k]], cfg)
            for k, n in enumerate(cks)]


# ---------------------------------------------------------------------------
# iterated-logarithm running statistics
# ---------------------------------------------------------------------------

def _lil_normalizer(cb, r):
    """The lil statistic's denominator at B_n = (B^r)^(1/r) and where B_n >=
    e^2, from B^r alone: the scan's of_b for the lil statistic, so a shared
    B^r row gets one per step."""
    bn = np.maximum(cb, 0.0) ** (1.0 / r)
    return lil_denominator(bn, r), bn >= DEFAULT_LOG_FLOOR


class _RunningMax:
    """Each path's running maximum of stat(n_idx, ca, cb, cv), and its running
    maximum and value at each stop. Without a stat it is the lil statistic
    A / den where B_n >= e^2 (`quotient`), cb being `_lil_normalizer`'s
    (den, guard).

    Only that default declares a `screen`, as the bound it rests on is of A
    over a den row: on a unit-step walk A never exceeds a segment's
    `_segment_top`, and correctly rounded division is monotone, so a segment
    whose bound, over the least or greatest guarded den, is at most the
    path's running max before the piece cannot raise it and is skipped; the
    rest get exact running sums. A given stat may read A otherwise, or V^2,
    so its reducer sets `screen` to None and runs per cell."""

    def __init__(self, P, n_stops, stat=None):
        self.stat = stat or self.quotient
        if stat is not None:
            self.screen = None
        self.run = np.full(P, -np.inf)
        self.maxima = np.full((P, n_stops), -np.inf)
        self.values = np.full((P, n_stops), np.nan)

    def segment(self, rows, n_idx, ca, cb, cv, k):
        val = self.stat(n_idx, ca, cb, cv)
        run = self.run[rows]  # a view
        np.maximum(run, val.max(axis=1), out=run)
        if k is not None:
            self.maxima[rows, k] = run
            self.values[rows, k] = val[:, -1]

    @staticmethod
    def quotient(n_idx, ca, cb, cv):
        den, guard = cb
        # in place: a fresh (P, L) quotient per piece made glibc give the
        # heap top back and fault it in again on every block
        val = np.divide(ca, den, out=ca)
        return val if guard.all() else np.where(guard, val, -np.inf)

    @staticmethod
    def screen(cb):
        """A piece's (den, guard) and, per segment, its den (NaN off the
        guard and on the pad) and their least and greatest, NaN where none
        is guarded."""
        den, guard = cb
        seg = _by_segment(np.where(guard, den, np.nan), np.nan)
        return den, guard, seg, np.fmin.reduce(seg, axis=1), np.fmax.reduce(seg, axis=1)

    def screened(self, rows, n_idx, d, a, bounds, k):
        """segment on the unit steps d of a piece and a, their
        `_segment_edges`, with bounds from `screen`."""
        den, guard, seg, least, most = bounds
        run = self.run[rows]  # a view
        top = _segment_top(a)
        p, s = np.nonzero(np.where(top >= 0.0, top / least, top / most) > run[:, None])
        for g, x in _segment_runs(d, a, p, s):  # fmax: NaN, off the guard, is no value
            np.fmax.at(run, p[g], np.fmax.reduce(x / seg[s[g]], axis=1))
        if k is not None:
            self.maxima[rows, k] = run
            self.values[rows, k] = a[:, -1] / den[-1] if guard[-1] else -np.inf


def lil_track(cfg: ExperimentConfig, margin: float = 0.15,
              workers: int | None = None) -> dict:
    """Running maxima of the selected normalized statistic.

    Statistics ('auto' resolves to the variant's `statistic`; 'lil' and
    'uncentered' apply to every variant, 'universal' and
    'conditional_variance' only to the variant that declares one):
      lil      A_n / {B_n (loglog B_n)^{(r-1)/r}},  B_n = (B_n^r)^{1/r}
      uncentered  S_n / {(V_n v e^2) (loglog(V_n v e^2))^{1/2}} (no guard;
                  used for laws whose V_n stays below e^2 forever)
      conditional_variance   S_n / {s_n (loglog s_n)^{1/2}}, deterministic s_n
      universal  (S_n - centering_n) / {V_n (loglog V_n)^{1/2}}

    Values are recorded only once the normalizer reaches e^2 (except for the
    'uncentered' kind, which floors the normalizer instead). Returns
    per-path running maxima and point values at each checkpoint, medians,
    and the fraction of paths ever exceeding the limsup bound * (1+margin).
    """
    INPUT_RULES["margin"](margin, "margin")
    cks = cfg.checkpoints or (cfg.horizon,)
    scan = _Scan(cfg, workers, kept=len(cks))
    spec = cfg.spec
    kind = spec.statistic if cfg.statistic == "auto" else cfg.statistic
    if kind not in ("lil", "uncentered", spec.statistic):
        kinds = ", ".join(map(repr, dict.fromkeys(("auto", "lil", "uncentered", spec.statistic))))
        raise DomainError(f"{type(spec).__name__} has no {kind!r} statistic; choose one of {kinds}")
    r = spec.r
    floor = DEFAULT_LOG_FLOOR
    limsup_bound = ((r / (r - 1.0)) ** ((r - 1.0) / r) if kind == "lil" else
                    lil_constants(spec.lam).b_lambda if kind == "universal" else math.inf)
    s_det = (np.sqrt(np.maximum(spec.s_n_sq(cfg.horizon), 0.0))
             if kind == "conditional_variance" else None)

    def stat(n_idx, ca, cb, cv):
        if kind == "conditional_variance":
            s = s_det[n_idx - 1]
            return np.where(s >= floor, v_normalized(ca, 0.0, s), -np.inf)
        vn = np.sqrt(cv)
        if kind == "uncentered":
            return v_normalized(ca, 0.0, vn)
        return np.where(vn >= floor, v_normalized(ca, spec.centering(n_idx, vn), vn),
                        -np.inf)

    parts = scan(lambda P: _RunningMax(P, len(cks), None if kind == "lil" else stat), cks,
                 b=kind == "lil", v=kind in ("uncentered", "universal"),
                 of_b=lambda cb: _lil_normalizer(cb, r))
    maxima = np.concatenate([p.maxima for p in parts])
    values = np.concatenate([p.values for p in parts])
    # running maxima never fall: a path ever exceeded iff its last one does
    run = np.concatenate([p.run for p in parts])
    exceeding = np.count_nonzero(run > limsup_bound * (1.0 + margin))
    return {
        "statistic": kind,
        "checkpoints": list(cks),
        "running_max": maxima,
        "value": values,
        "median_running_max": np.median(maxima, axis=0).tolist(),
        "median_value": np.median(values, axis=0).tolist(),
        "limsup_bound": limsup_bound,
        "margin": margin,
        "frac_exceeding": float(exceeding) / cfg.paths,
    }


class _Histograms:
    """Occupancy counts of the lil statistic where B_n >= e^2, over every step
    and over the steps after `half`; cb is `_lil_normalizer` of B^r."""

    def __init__(self, P, edges, half):
        self.edges, self.half = edges, half
        self.counts = np.zeros(len(edges) - 1, dtype=np.int64)
        self.late_counts = np.zeros(len(edges) - 1, dtype=np.int64)

    def segment(self, rows, n_idx, ca, cb, cv, k):
        # off the guard the quotient is -inf, outside every bin
        counts = np.histogram(_RunningMax.quotient(n_idx, ca, cb, cv), bins=self.edges)[0]
        self.counts += counts
        if n_idx[0] > self.half:  # the scan cuts its blocks after step `half`
            self.late_counts += counts


def cluster_set_diagnostic(cfg: ExperimentConfig, bins: int = 41,
                           workers: int | None = None) -> dict:
    """Occupancy histogram of the lil statistic over [-2, 2], across all
    recorded steps and paths; 'late' restricts to the second half of the
    horizon. Diagnostic only (the cluster set fills an interval a.s., so
    interior bins should all be visited)."""
    edges = np.linspace(-2.0, 2.0, INPUT_RULES["bins"](bins, "bins") + 1)
    scan = _Scan(cfg, workers)
    half = cfg.horizon // 2
    parts = scan(lambda P: _Histograms(P, edges, half), (half,),
                 of_b=lambda cb: _lil_normalizer(cb, cfg.spec.r))
    return {
        "edges": edges.tolist(),
        "counts": np.sum([p.counts for p in parts], axis=0).tolist(),
        "late_counts": np.sum([p.late_counts for p in parts], axis=0).tolist(),
    }


def sup_moment_estimate(cfg: ExperimentConfig, p: float | None = None,
                        alpha: float | None = None,
                        workers: int | None = None) -> BoundReport:
    """Empirical E(sup_n statistic)^p, or E sup_n exp(alpha * statistic^2)
    when alpha is given; the statistic uses the squared-normalizer iterated
    logarithm. The analytic constant is existence-only, so the pass rule is a
    stability check: the estimate at the half horizon must be within 10% of
    the estimate at the full horizon."""
    if (p is None) == (alpha is None):
        raise DomainError("give exactly one of p, alpha")
    key, value = ("p", p) if alpha is None else ("alpha", alpha)
    INPUT_RULES[key](value, key)
    scan = _Scan(cfg, workers)
    r = cfg.spec.r
    half = max(1, cfg.horizon // 2)
    # order r reads the plain sum of |d|^r, without the variant's constant
    b_rule = False if r == 2.0 else (lambda d, n_idx, out: _abs_pow(d, r, out))

    def stat(n_idx, ca, cb, cv):
        if r == 2.0:
            core = ca / np.sqrt(np.maximum(cv * iterated_log(cv)[1], 1e-300))
        else:
            core = ca / (np.maximum(cb, 1.0) * iterated_log(cb)[1] ** (r - 1.0)) ** (1.0 / r)
        if alpha is not None:
            return np.exp(np.minimum(alpha * core * core, 709.0))
        return np.maximum(core, 0.0)

    parts = scan(lambda P: _RunningMax(P, 1, stat), (half,), b=b_rule, v=r == 2.0)
    at_half = np.concatenate([p_.maxima[:, 0] for p_ in parts])
    at_end = np.concatenate([p_.run for p_ in parts])
    if alpha is None:
        at_end, at_half = at_end ** p, at_half ** p
    mean, se = _mean_se(float(np.sum(at_end)), float(np.sum(at_end * at_end)), cfg.paths)
    mean_half = float(np.sum(at_half)) / cfg.paths
    rel = abs(mean - mean_half) / max(mean, 1e-300)
    label = (f"sup_moment p={p:g}" if alpha is None else f"sup_exp alpha={alpha:g}")
    return BoundReport(label=label, analytic_bound=math.inf, estimate=mean,
                       std_error=se, paths=cfg.paths, passed=bool(rel < 0.10),
                       extra={"half_horizon_estimate": mean_half,
                              "relative_change": rel})


def growth_rate_diagnostic(cfg: ExperimentConfig,
                           workers: int | None = None) -> dict:
    """For the heavy-downside counterexample: medians of the statistic
    normalized by V_n (which grows without bound) and by the deterministic
    conditional-variance root s_n (which vanishes), per checkpoint."""
    if not isinstance(cfg.spec, Counterexample65):
        raise DomainError("growth_rate_diagnostic requires a Counterexample65 spec")
    cks = cfg.checkpoints or (cfg.horizon,)
    scan = _Scan(cfg, workers, kept=len(cks))
    s_det = np.sqrt(np.maximum(cfg.spec.s_n_sq(cfg.horizon), 0.0))
    parts = scan(lambda P: _StateAtStops(P, len(cks)), cks, b=False, v=True)
    a = np.concatenate([p.a for p in parts])
    sv = v_normalized(a, 0.0, np.sqrt(np.concatenate([p.v for p in parts])))
    ss = v_normalized(a, 0.0, s_det[np.array(cks) - 1])
    med_v = np.median(sv, axis=0)
    med_s = np.median(ss, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(med_s != 0.0, med_v / med_s, np.inf)
    return {
        "checkpoints": list(cks),
        "median_v_normalized": med_v.tolist(),
        "median_s_normalized": med_s.tolist(),
        "median_ratio": ratio.tolist(),
    }


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

REPORT_COLUMNS = ("label", "analytic_bound", "estimate", "std_error",
                  "paths", "pass")


def report_rows(reports: list[BoundReport]) -> list[dict]:
    return [r.to_dict() for r in reports]


def config_echo(cfg: ExperimentConfig) -> dict:
    """cfg's JSON object: one key per field, the spec by `spec_to_json`."""
    return {**fields_to_json(cfg), "spec": spec_to_json(cfg.spec)}


def config_from_json(obj: dict) -> ExperimentConfig:
    """The ExperimentConfig `config_echo` wrote, the spec by `spec_from_json`;
    an unknown or missing key is a DomainError."""
    obj = {k: spec_from_json(v) if k == "spec" else v for k, v in obj.items()}
    try:
        return ExperimentConfig(**obj)
    except TypeError as exc:
        raise DomainError(f"bad experiment config: {exc}") from exc
