"""Seeded generators for adapted sequences and discretized continuous
processes, exposing the running state (A_n, B_n^r, V_n^2, truncated-mean sums)
and the exponential supermartingale weights each variant certifies.

Variant protocol. Each variant is a frozen dataclass whose fields are its
JSON parameters, each read at construction through its rule in the class's
`rules` dict; its `_check` then tests the conditions that span fields
(`constants._Checked`). `ProcessHandle` and the Monte Carlo engine read it only
through these members (defaults on the shared base `_Variant`). There is one
mode: every draw, code and running sum goes into arrays the caller owns
(`_Workspace` views in both callers), and so does each block's `carry`.
  components                      the component axes of one increment;
                                  default () (MvBrownianGrid's is (dim,)).
  draw(rng, n_lo, n_hi, n_paths, out, codes)
                                  increments d for steps n_lo+1..n_hi, written
                                  into `out`, a C-contiguous float64 array of
                                  shape (n_paths, n_hi - n_lo) plus
                                  `components`. No default. Cells come off the
                                  stream path-major, so a block may be drawn
                                  as consecutive row tiles, one call each, in
                                  row order: the draws and the stream's state
                                  are those of one call on the whole block. A
                                  coded variant takes in `codes` the tile's
                                  rows of the block's codes; any other, None.
                                  A `unit_steps` variant's `out` may also be
                                  int8: it takes the same signs, at one byte
                                  a cell, and leaves the stream in the same
                                  state.
  coded                           True if the draw reads part of the stream
                                  for the whole block before the rest (all
                                  signs before any scale, say); default False.
  codes(rng, out)                 a coded variant's per-block pass: one int8
                                  code a cell, into `out` of the block's
                                  shape, before its first tile is drawn.
  steps                           how many steps it can draw; default inf.
  accumulate(d, n_idx, carry, b, v, out, pair=None)
                                  (ca, cb, cv): the running A, B^r, V^2 of a
                                  block of draws, from the caller's `carry`
                                  (their values a step before, zeros at
                                  first), which it advances in place; default
                                  the cumsums of d and of `increments`. A
                                  overwrites d; B^r and V^2 go into the
                                  (n_paths, L) pair `out`, whose entry is None
                                  where b or v asks for no such sum. Given
                                  `pair`, a complex128 (n_paths, L) array, on
                                  a d without component axes A and B^r (else
                                  V^2) are one complex running sum in it, A
                                  the real part and its partner the imaginary
                                  part: a complex add adds the two parts by
                                  the same IEEE adds as two float sums, so
                                  the bits are theirs, from one dependent
                                  chain instead of two. d is then left as
                                  drawn, the partner's `out` entry is not
                                  read, and a third sum stays a float one.
  increments(d, n_idx, b, v, out) the B^r increments and V^2 terms the
                                  default `accumulate` sums, into `out`; the
                                  engine sums them time-major where it needs
                                  only the sums at a piece's end.
  b_increments(d, n_idx, out)     the B^r increments of d, into `out` of shape
                                  d.shape[:2]; default d*d.
  b_deterministic                 True if those increments are a function of n
                                  alone, not of the draws; the engine then
                                  builds B^r once per block, as one row shared
                                  by all paths, by `accumulate` on a row of
                                  ones. Default False.
  unit_steps                      True if every draw is +-1 and `accumulate`
                                  is the default, so every partial sum of A
                                  is an exact integer; the engine then draws
                                  a lil or crossing scan's steps into int8
                                  and decides most of them from 64-step
                                  segment sums. Default False.
  log_weight(lam, a, b_pow_r)     log of the certified weight, broadcasting;
                                  default lam*A - lam^r B^r / r (Bernstein
                                  overrides it and refuses lam >= 1/M).
  certification                   ("all", inf), ("nonneg", lam0) or None.
  centering(n, v)                 the running centering of the universal
                                  statistic; default 0.
  truncated_mean(n, c, d)         mu(c, d) = E[d_n 1(c <= d_n < d)] for c < d, by the
                                  variant's `_truncated_mean(n, c, d)`; no default.
  statistic                       the lil_track kind 'auto' resolves to;
                                  default 'lil'.
MvBrownianGrid is a variant with one component axis: its A is the vector
M_t, V^2 sums the components and B^r = t; its `log_weight` refuses, since
the scalar weight does not apply.

Reproducibility: streams are Philox counter-based. A single-path handle uses
the substream SeedSequence(seed, spawn_key=(0, path)); the experiment engine
uses per-chunk substreams SeedSequence(seed, spawn_key=(1, chunk)). Identical
(spec, seed) always reproduces identical draws regardless of scheduling.

Importing this module loads no scipy module: the normal density is
scipy.stats.norm.pdf's own formula (`_norm_pdf`), and the lognormal truncated
mean imports scipy.special's `ndtr` at the call.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .bounds import iterated_log
from .constants import (DomainError, _Checked, _count, _number, _one_of, _order, _positive,
                        _reals, _unit, c_gamma, c_gamma_r, from_json, lil_constants, to_json)

_BUFFER = 1024
_SLAB = 1 << 17  # cells per temporary in a draw; even


class CertificationError(RuntimeError):
    """lambda outside the range for which the variant's supermartingale holds."""


class UnsupportedVariantError(RuntimeError):
    """The requested quantity has no closed form for this variant."""


def path_rng(seed: int, path: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(0, path))))


def chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(1, chunk))))


class _Workspace:
    """Tile buffers: one flat array per role, made on first use (and made
    anew only when a larger one or another dtype is asked for) and viewed as
    a C-contiguous array of the asked shape. Role 0 takes a tile's draws
    (then A, unless paired; int8 signs on the engine's unit-step screen,
    which uses no other role), 1 its B^r increments (then B^r), or, as the
    `pair`, A with B^r (else V^2) as one complex sum (on the scan's
    per-cell path, and in the stepping handle); 2 its V^2, 3 a block's int8
    draw codes, and 4 a time-major copy of a tile's terms. The engine sizes
    a tile in bytes: no role but the codes holds more than a float64 tile,
    so an int8 tile has eight times a float64 tile's rows, and a per-cell
    tile whose A has a partner half of them, which the pair holds whole."""

    def __init__(self):
        self.bufs = {}

    def view(self, role, shape, dtype=np.float64):
        size, buf = math.prod(shape), self.bufs.get(role)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self.bufs[role] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def pair(self, rows, L):
        """Role 1 viewed as a C-contiguous complex128 (rows, L) array, the
        `pair` of `accumulate`: a float64 role of 2 rows L cells, so a float
        tile's bytes hold half its rows."""
        return self.view(1, (rows, 2 * L)).view(np.complex128)


def _slabs(size):
    """Slices of at most `_SLAB` cells covering range(size), in order."""
    return (slice(lo, min(lo + _SLAB, size)) for lo in range(0, size, _SLAB))


def _running(x, end):
    """x's running sums along axis 1, in place, plus `end`, the sums a step
    before x, which is advanced to the last."""
    x = np.cumsum(x, axis=1, out=x)
    x += end[:, None]
    end[...] = x[:, -1]
    return x


def _abs_pow(d, r, out):
    """|d| ** r, by the same operations as `np.abs(d) ** r`."""
    out = np.abs(d, out=out)
    out **= r
    return out


def fair_signs(rng: np.random.Generator, out) -> np.ndarray:
    """Exactly `rng.integers(0, 2, out.shape).astype(float) * 2.0 - 1.0`,
    leaving rng in the same state, from fewer operations; written into `out`
    (a C-contiguous float64 array, or an int8 one, which takes the same signs
    at one byte a cell).

    For a range of 2, numpy's `integers` takes Lemire's method on 32-bit
    words, so each sign is bit 31 of one word; a word is the low, then the
    high half of a 64-bit output, and an unused high half waits in the bit
    generator's `has_uint32`/`uinteger` buffer. Philox and PCG64 (on a
    little-endian host) are read here word for word through `random_raw`,
    `_SLAB` words at a time, so that no temporary grows with the block; any
    other bit generator takes the plain `integers` call."""
    bg = rng.bit_generator
    if not isinstance(bg, (np.random.Philox, np.random.PCG64)) or sys.byteorder != "little":
        out[...] = rng.integers(0, 2, size=out.shape)
        out *= 2
        out -= 1
        return out
    flat = out.reshape(-1)
    with bg.lock:
        state = bg.state
        held = bool(state["has_uint32"]) and flat.size > 0
        if held:
            flat[0] = (state["uinteger"] >> 31) * 2.0 - 1.0
        body = flat[1:] if held else flat
        last = None
        for cut in _slabs(body.size):  # _SLAB is even: only the last slab may hold a half
            seg = body[cut]
            words = bg.random_raw((seg.size + 1) // 2).view(np.uint32)
            last = words.size > seg.size, int(words[-1])
            words = words[:seg.size]
            words >>= 31
            seg[...] = words
            seg *= 2
            seg -= 1
        state = bg.state
        if last is not None:  # as numpy: the last high half stays, used or not
            state["has_uint32"], state["uinteger"] = int(last[0]), last[1]
        elif held:
            state["has_uint32"] = 0
        bg.state = state
    return out


# ---------------------------------------------------------------------------
# truncated means of the preset base laws
# ---------------------------------------------------------------------------

_SQRT_2PI = np.sqrt(2 * np.pi)


def _norm_pdf(x):
    """The standard normal density by scipy.stats.norm.pdf's own formula, so
    the bits are the same; broadcasts."""
    x = np.asarray(x, dtype=float)
    return np.exp(-x**2/2.0) / _SQRT_2PI


def _lognormal_partial_mean(a: float, b: float, mu: float, sigma: float) -> float:
    """E[Z 1(a < Z <= b)] for lognormal Z, 0 <= a < b."""
    from scipy.special import ndtr  # the standard normal cdf
    s = math.exp(mu + 0.5 * sigma * sigma)
    hi = ndtr((math.log(b) - mu - sigma * sigma) / sigma) if b < math.inf else 1.0
    lo = ndtr((math.log(a) - mu - sigma * sigma) / sigma) if a > 0.0 else 0.0
    return s * (hi - lo)


def _pareto_partial_mean(a, b, shape: float, lo: float, mass: float):
    """E[Z 1(a < Z <= b)] for a Pareto tail P(Z > z) = mass * z^(-shape) on
    z >= lo (mass = lo^shape for a Pareto law with minimum lo); broadcasts,
    and is +inf for b = inf and shape <= 1."""
    a, b = np.maximum(a, lo), np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # b <= a, masked below
        if shape == 1.0:
            val = mass * (np.log(b) - np.log(a))
        else:
            val = mass * shape / (1.0 - shape) * (b ** (1.0 - shape) - a ** (1.0 - shape))
    return np.where((b > a) & (mass > 0.0), val, 0.0)


def _symmetric_truncated_mean(partial_mean, c: float, d: float) -> float:
    """mu(c, d) for eps*Z with fair signs: positive branch on [max(c,0), d),
    negative branch on (-d, min(0, -(-c))]."""
    pos = 0.5 * partial_mean(max(c, 0.0), d) if d > 0.0 else 0.0
    neg = 0.5 * partial_mean(max(-d, 0.0), -c) if c < 0.0 else 0.0
    return pos - neg


# ---------------------------------------------------------------------------
# variant specs
# ---------------------------------------------------------------------------

class _Variant(_Checked):
    """Defaults of the variant protocol (see the module docstring); no
    dataclass fields, so `spec_to_json` is unchanged."""
    b_deterministic = False
    coded = False
    components = ()
    statistic = "lil"
    steps = math.inf
    unit_steps = False

    def accumulate(self, d, n_idx, carry, b, v, out, pair=None):
        """(ca, cb, cv): running A, B^r, V^2 after each step of block d, from
        `carry`, arrays of shapes (P,) + components, (P,) and (P,), advanced
        in place: the cumsums of d and of `increments`. A overwrites d, or,
        given a complex `pair` and no component axes, A and B^r (else V^2)
        are pair's real and imaginary parts, summed as one complex chain."""
        j = 1 if b else 2 if v else 0  # A's partner in (A, B^r, V^2)
        if pair is None or d.ndim > 2 or not j:
            return tuple(None if x is None else _running(x, end)
                         for x, end in zip((d, *self.increments(d, n_idx, b, v, out)), carry))
        out = (pair.imag, out[1]) if j == 1 else (None, pair.imag)
        sums = [pair.real, *self.increments(d, n_idx, b, v, out)]
        pair.real[...] = d
        # the carry's parts are assigned: arithmetic such as a + 1j*b can
        # turn -0.0 into +0.0
        end = np.empty(len(d), np.complex128)
        end.real, end.imag = carry[0], carry[j]
        _running(pair, end)
        carry[0][...], carry[j][...] = end.real, end.imag
        if j == 1 and v:  # the third sum, alone
            sums[2] = _running(sums[2], carry[2])
        return tuple(sums)

    def increments(self, d, n_idx, b, v, out):
        """(ib, iv): the B^r increments and V^2 terms of block d, written into
        out, the pair of (P, L) arrays they go to. b=True takes
        `b_increments`, another true b is a rule b(d, n_idx, out), a false b
        gives ib None; iv is None unless v. A V^2 term sums d^2 over d's
        component axes."""
        b = self.b_increments if b is True else b
        b_out, v_out = out
        iv = None
        if v:
            iv = np.multiply(d, d, out=v_out if d.ndim == 2 else None)
            if d.ndim > 2:
                iv = np.sum(iv, axis=tuple(range(2, d.ndim)), out=v_out)
        return (b(d, n_idx, b_out) if b else None), iv

    def b_increments(self, d, n_idx, out):
        return np.multiply(d, d, out=out)

    def centering(self, n, v):
        return 0.0

    def log_weight(self, lam, a, b_pow_r):
        """lam*A - lam^r B^r / r, the log of the canonical certified weight;
        broadcasts over (a, b_pow_r) and checks nothing."""
        return lam * a - lam ** self.r * b_pow_r / self.r

    def truncated_mean(self, n, c, d):
        if not c < d:
            raise DomainError("need c < d")
        return self._truncated_mean(n, c, d)


@dataclass(frozen=True)
class Rademacher(_Variant):
    """Fair +-1 signs; conditionally symmetric, certified for all real lambda."""
    r: float = 2.0
    rules = {"r": _order}
    certification = ("all", math.inf)
    b_deterministic = True  # d^2 = 1
    unit_steps = True

    def draw(self, rng, n_lo, n_hi, n_paths, out, codes):
        return fair_signs(rng, out)

    def _truncated_mean(self, n, c, d):
        m = 0.0
        if c <= 1.0 < d:
            m += 0.5
        if c <= -1.0 < d:
            m -= 0.5
        return m


@dataclass(frozen=True)
class ScaledSymmetric(_Variant):
    """d_i = eps_i * Z_i with fair signs and positive i.i.d. scales Z_i."""
    law: str = "lognormal"
    mu: float = 0.0
    sigma: float = 1.0
    shape: float = 2.0
    xm: float = 1.0
    r: float = 2.0
    rules = {"law": _one_of("lognormal", "pareto"), "mu": _number, "sigma": _number,
             "shape": _number, "xm": _number, "r": _order}
    certification = ("all", math.inf)

    def _check(self):
        for name in ("sigma",) if self.law == "lognormal" else ("shape", "xm"):
            _positive(getattr(self, name), f"{self.law} {name}")

    coded = True

    def codes(self, rng, out):
        """Each cell's sign, +-1: the block's signs, all drawn before any
        scale."""
        return fair_signs(rng, out)

    def draw(self, rng, n_lo, n_hi, n_paths, out, codes):
        if self.law == "lognormal":  # exp(mu + sigma * N)
            z = rng.standard_normal(out=out)
            z *= self.sigma
            z += self.mu
            np.exp(z, out=z)
        else:  # xm * U^(-1/shape)
            z = rng.random(out=out)
            z **= -1.0 / self.shape
            z *= self.xm
        z *= codes  # the sign times the scale, as the float signs gave it
        return z

    def _partial_mean(self, a, b):
        if self.law == "lognormal":
            return _lognormal_partial_mean(a, b, self.mu, self.sigma)
        return float(_pareto_partial_mean(a, b, self.shape, self.xm, self.xm**self.shape))

    def _truncated_mean(self, n, c, d):
        return _symmetric_truncated_mean(self._partial_mean, c, d)


@dataclass(frozen=True)
class BoundedAbove(_Variant):
    """Supermartingale differences d_i <= M (preset d = M(1 - E), E unit
    exponential, mean 0), with the inflated conditional-variance accumulator
    B_n^2 = (1 + lambda0*M/2) * sum E(d_i^2 | F)."""
    m_bound: float = 1.0
    lambda0: float = 1.0
    r: float = 2.0
    rules = {"m_bound": _positive, "lambda0": _positive, "r": _order}
    b_deterministic = True

    def _check(self):
        if not self.lambda0 <= 1.0 / self.m_bound:
            raise DomainError(f"need lambda0 <= 1/m_bound, got {self.lambda0} and {self.m_bound}")

    @property
    def certification(self):
        return ("nonneg", self.lambda0)

    def draw(self, rng, n_lo, n_hi, n_paths, out, codes):
        d = rng.standard_exponential(out=out)
        np.subtract(1.0, d, out=d)
        d *= self.m_bound
        return d

    def b_increments(self, d, n_idx, out):
        out.fill((1.0 + 0.5 * self.lambda0 * self.m_bound) * self.m_bound**2)
        return out

    def _truncated_mean(self, n, c, d):
        # M(1-E): density exp((x-M)/M)/M on (-inf, M]
        m = self.m_bound
        # int_c^d x exp((x-M)/M)/M dx = [(x - M) exp((x-M)/M)]_c^d
        def anti(x):
            return 0.0 if x == -math.inf else (x - m) * math.exp((x - m) / m)
        return anti(min(d, m)) - anti(min(c, m))


@dataclass(frozen=True)
class Bernstein(_Variant):
    """Martingale differences with the Bernstein moment condition
    E(|d|^k | F) <= (k!/2) sigma^2 M^(k-2); preset d = M(E - 1) with E unit
    exponential, sigma^2 = M^2. Certified for 0 <= lambda < 1/M with the
    conditional-variance weight exp{lam*A - lam^2 V^2 / (2(1 - M*lam))}."""
    m_bound: float = 1.0
    r: float = 2.0
    rules = {"m_bound": _positive, "r": _order}
    b_deterministic = True

    @property
    def certification(self):
        return ("nonneg", 1.0 / self.m_bound)

    def draw(self, rng, n_lo, n_hi, n_paths, out, codes):
        d = rng.standard_exponential(out=out)
        d -= 1.0
        d *= self.m_bound
        return d

    def b_increments(self, d, n_idx, out):
        out.fill(self.m_bound**2)
        return out

    def log_weight(self, lam, a, b_pow_r):
        """The weight's log; its certification 0 <= lam < 1/M is open at 1/M,
        where the denominator vanishes."""
        if lam >= 1.0 / self.m_bound:
            raise CertificationError(f"lambda={lam} >= 1/M for the Bernstein weight")
        return lam * a - lam * lam * b_pow_r / (2.0 * (1.0 - self.m_bound * lam))

    def _truncated_mean(self, n, c, d):
        m = self.m_bound
        # M(E-1): density exp(-(x+M)/M)/M on [-M, inf)
        def anti(x):
            return 0.0 if x == math.inf else -(x + m) * math.exp(-(x + m) / m)
        return anti(max(d, -m)) - anti(max(c, -m))


@dataclass(frozen=True)
class BoundedBelow(_Variant):
    """Differences d_i >= -M with mean <= 0 (preset d = M(E - 1)), order r
    accumulator B_n^r = r * c_{gamma,r} * sum |d_i|^r; certified on [0, gamma/M]."""
    m_bound: float = 1.0
    gamma: float = 0.5
    r: float = 2.0
    rules = {"m_bound": _positive, "gamma": _unit, "r": _order}

    @property
    def certification(self):
        return ("nonneg", self.gamma / self.m_bound)

    @functools.cached_property
    def c_const(self) -> float:
        # once per instance: a frozen dataclass's __dict__ takes the value
        # directly, and equality and JSON read only the fields
        return c_gamma_r(self.gamma, self.r)

    draw = Bernstein.draw  # the same law, M(E - 1)

    def b_increments(self, d, n_idx, out):
        inc = _abs_pow(d, self.r, out)
        inc *= self.r * self.c_const
        return inc

    _truncated_mean = Bernstein._truncated_mean  # the same law, M(E - 1)


class _Grid(_Variant):
    """Brownian motion on the time grid `times` with axes `components`; B^2 = t."""
    certification = ("all", math.inf)
    b_deterministic = True

    def _check(self):
        if not (self.times and self.times[0] > 0.0 and np.all(np.diff(self.times) > 0.0)):
            raise DomainError(f"times must be positive and strictly increasing, got {self.times}")

    @property
    def steps(self) -> int:
        return len(self.times)

    @functools.cached_property
    def dt(self) -> np.ndarray:
        """The time steps t_n - t_{n-1} (t_0 = 0), read-only; built once per
        instance, as `draw` and `b_increments` slice them on every block."""
        dt = np.diff(self.times, prepend=0.0)
        dt.flags.writeable = False
        return dt

    def draw(self, rng, n_lo, n_hi, n_paths, out, codes):
        scale = np.sqrt(self.dt[n_lo:n_hi]).reshape((-1,) + (1,) * len(self.components))
        d = rng.standard_normal(out=out)
        d *= scale
        return d

    def b_increments(self, d, n_idx, out):
        out[...] = self.dt[n_idx[0] - 1:n_idx[-1]]
        return out


@dataclass(frozen=True)
class BrownianGrid(_Grid):
    """Standard Brownian motion sampled on a fixed time grid; A = W_t, B^2 = t."""
    times: tuple[float, ...]
    r: float = 2.0
    rules = {"times": lambda v, name: tuple(map(float, _reals(v, name))), "r": _order}

    def _truncated_mean(self, n, c, d):
        if not 1 <= n <= self.steps:
            raise DomainError(f"step {n} is off the grid's steps 1..{self.steps}")
        s = math.sqrt(self.dt[n - 1])
        return s * (_norm_pdf(c / s) - _norm_pdf(d / s))


# The most cells (steps times components) a geometric grid may ask for: 2^20,
# 8 MB a float row. A vector spec runs its whole grid as one block, so one row
# of every workspace role holds a path's whole grid; the times tuple alone
# costs about 50 bytes a step at construction.
GRID_CELLS = 1 << 20


def _grid_powers(t0: float, rho: float, horizon: float, dim: int = 1) -> int:
    """n, the last power k of t0 * rho^k on `geometric_grid(t0, rho, horizon)`,
    in closed form. Before any time is built, a malformed grid, or one whose
    steps (n + 1, and the appended horizon) times `dim` exceed `GRID_CELLS`,
    is a DomainError."""
    if not (t0 > 0.0 and rho > 1.0 and horizon > t0):
        raise DomainError("need t0 > 0, rho > 1, horizon > t0")
    n = int(math.floor(math.log(horizon / t0) / math.log(rho)))
    steps = n + 1 + (t0 * rho**n < horizon)  # the last time as the grid computes it
    if steps * dim > GRID_CELLS:
        raise DomainError(f"rho={rho!r} from t0={t0!r} to horizon={horizon!r} asks for "
                          f"{steps} steps x dim {dim} = {steps * dim} cells, above the "
                          f"limit of {GRID_CELLS}")
    return n


def geometric_grid(t0: float = 1e-4, rho: float = 1.05, horizon: float = 1e6) -> tuple[float, ...]:
    """t_k = t0 * rho^k clipped at the horizon (the horizon itself is appended);
    a grid of more than `GRID_CELLS` steps is refused before it is built."""
    ts = [t0 * rho**k for k in range(_grid_powers(t0, rho, horizon) + 1)]
    if ts[-1] < horizon:
        ts.append(horizon)
    return tuple(ts)


@dataclass(frozen=True)
class MvBrownianGrid(_Grid):
    """m-dimensional standard Brownian motion on a geometric time grid;
    M_t is the vector state and <M>_t = t * I."""
    dim: int = 2
    t0: float = 1e-4
    rho: float = 1.05
    horizon: float = 1e6
    r: float = 2.0
    rules = {"dim": _count, "t0": _positive, "rho": _positive, "horizon": _positive,
             "r": _order}

    def _check(self):
        _grid_powers(self.t0, self.rho, self.horizon, self.dim)  # before `times` builds the grid
        super()._check()

    @property
    def components(self):
        return (self.dim,)

    @functools.cached_property
    def times(self) -> tuple[float, ...]:
        return geometric_grid(self.t0, self.rho, self.horizon)

    def log_weight(self, lam, a, b_pow_r):
        raise UnsupportedVariantError("MvBrownianGrid has a vector state; "
                                      "use mixture.mv_statistic")


def _cx56_probs(n: np.ndarray):
    """Three-point probabilities and the exact zero-mean top atom of the
    heavy-downside counterexample; invalid early indices get X_n = 0."""
    n = np.asarray(n, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        logn = np.log(n)
        p_big = 1.0 / (n * logn**2)
        drift = np.sqrt(logn / n)
        p_plus = 0.5 + drift
        p_minus = 0.5 - drift - p_big
        valid = (n >= 3) & (p_minus >= 0.0) & (p_plus <= 1.0)
        m_n = np.where(valid, (p_plus - p_minus) / (np.sqrt(n) * p_big), 0.0)
    p_plus = np.where(valid, p_plus, 0.0)
    p_minus = np.where(valid, p_minus, 0.0)
    p_big = np.where(valid, p_big, 0.0)
    return p_plus, p_minus, p_big, m_n, valid


@functools.lru_cache(maxsize=2)
def _cx56_steps(n_lo, n_hi):
    """What the counterexample's draw reads of steps n_lo+1..n_hi, read-only:
    P(up), P(up or down), 1/sqrt(n), -m_n and the invalid steps. Built once
    per block, not once per tile and chunk."""
    n = np.arange(n_lo + 1, n_hi + 1, dtype=float)
    p_plus, p_minus, p_big, m_n, valid = _cx56_probs(n)
    steps = (p_plus, p_plus + p_minus, 1.0 / np.sqrt(n), -m_n, ~valid)
    for a in steps:
        a.flags.writeable = False
    return steps


@dataclass(frozen=True)
class Counterexample56(_Variant):
    """Independent three-point variables with exact zero means whose
    uncentered self-normalized sum grows without bound."""
    r: float = 2.0
    rules = {"r": _order}
    certification = None
    statistic = "uncentered"

    def draw(self, rng, n_lo, n_hi, n_paths, out, codes):
        p_up, p_down, small, low, invalid = _cx56_steps(n_lo, n_hi)
        u = rng.random(out=out)
        up, down = u < p_up, u < p_down
        # each cell takes one of four values, chosen in place over u
        u[...] = low
        np.negative(small, out=u, where=down)
        np.copyto(u, small, where=up)
        np.copyto(u, 0.0, where=invalid)
        return u

    def _truncated_mean(self, n, c, d):
        p_plus, p_minus, p_big, m_n, valid = _cx56_probs(np.asarray([n], dtype=float))
        if not valid[0]:
            return 0.0
        s = 1.0 / math.sqrt(n)
        m = 0.0
        if c <= s < d:
            m += p_plus[0] * s
        if c <= -s < d:
            m -= p_minus[0] * s
        if c <= -m_n[0] < d:
            m -= p_big[0] * m_n[0]
        return float(m)


@dataclass(frozen=True)
class Counterexample65(Counterexample56):
    """Same three-point draws; used with the conditional-variance normalizer
    s_n^2 = sum E(X_i^2 | F) to contrast the two growth diagnostics."""
    statistic = "conditional_variance"

    def s_n_sq(self, horizon: int) -> np.ndarray:
        """Cumulative conditional variances for n = 1..horizon."""
        n = np.arange(1, horizon + 1, dtype=float)
        p_plus, p_minus, p_big, m_n, valid = _cx56_probs(n)
        return np.cumsum(np.where(valid, (p_plus + p_minus) / n + p_big * m_n**2, 0.0))


@dataclass(frozen=True)
class TruncatedCentering(_Variant):
    """i.i.d. X_i from a base law with analytic truncated means; the running
    centering is n * mu(-lam*v_n, a_lam*v_n) with v_n = V_n (loglog V_n)^(-1/2)."""
    base: str = "normal"
    lam: float = 1.0
    alpha: float = 1.5
    d1: float = 1.0
    d2: float = 1.0
    r: float = 2.0
    rules = {"base": _one_of("normal", "heavy"), "lam": _positive, "alpha": _number,
             "d1": _number, "d2": _number, "r": _order}
    statistic = "universal"

    def _check(self):
        if self.base == "heavy":
            _unit(self.alpha, "heavy alpha")
            if not (self.d1 >= 0.0 and self.d2 >= 0.0 and self.d1 + self.d2 > 0.0):
                raise DomainError(f"need d1, d2 >= 0 with d1 + d2 > 0, got {self.d1}, {self.d2}")

    @property
    def certification(self):
        if self.base == "normal" or self.d1 == self.d2:
            return ("all", math.inf)
        return None

    @property
    def y0(self) -> float:
        """Pareto-tail threshold making the two-sided tail mass exactly 1/2."""
        return (2.0 * (self.d1 + self.d2)) ** (1.0 / self.alpha)

    @property
    def coded(self) -> bool:
        return self.base == "heavy"

    def codes(self, rng, out):
        """Each cell's side from its uniform u, 2 (u < P(up)) + (u < 1/2): 2
        or 3 up, 1 down, 0 none. The block's uniforms are all drawn before
        any magnitude."""
        p1 = self.d1 * self.y0 ** (-self.alpha)
        flat = out.reshape(-1)
        u = np.empty(min(flat.size, _SLAB))
        for cut in _slabs(flat.size):
            us, side = u[:cut.stop - cut.start], flat[cut]
            rng.random(out=us)
            np.less(us, p1, out=side)
            side <<= 1
            side |= us < 0.5
        return out

    def draw(self, rng, n_lo, n_hi, n_paths, out, codes):
        if self.base == "normal":
            return rng.standard_normal(out=out)
        m = rng.random(out=out)  # the magnitudes, in row order
        m **= -1.0 / self.alpha
        m *= self.y0
        np.negative(m, out=m, where=codes == 1)
        np.copyto(m, 0.0, where=codes == 0)
        return m

    def _truncated_mean(self, n, c, d):
        return float(self._mu(c, d))

    def _mu(self, c, d):
        """mu(c, d) for arrays with c < d, unchecked. The heavy law's tails
        are P(+-Y > y) = d1 y^(-alpha), d2 y^(-alpha) beyond y0."""
        if self.base == "normal":
            return _norm_pdf(c) - _norm_pdf(d)
        y0, al = self.y0, self.alpha
        return (_pareto_partial_mean(np.maximum(c, 0.0), d, al, y0, self.d1)
                - _pareto_partial_mean(np.maximum(-d, 0.0), -c, al, y0, self.d2))

    def centering(self, n, v):
        """n * mu(-lam*v_n, a_lam*v_n) with v_n = (V v e^2)(loglog(V v e^2))^(-1/2),
        the running centering of the universal statistic; broadcasts over
        (n, V)."""
        vv, ll = iterated_log(v)
        v_n = vv * ll ** -0.5
        return self._mu(-self.lam * v_n, lil_constants(self.lam).a_lambda * v_n) * n


@dataclass(frozen=True)
class WeightedIID(_Variant):
    """S_n = sum w_i Y_i with fair-sign Y_i; weights 'ones' or 'factorial'.
    The factorial preset carries the state rescaled by the latest weight,
    S_n / n! and V_n^2 / (n!)^2, since the raw sums overflow. Neither the lil
    statistic nor the mixture boundary is scale-invariant, so the engine
    refuses factorial weights; only the stepping handle runs them."""
    weights: str = "ones"
    r: float = 2.0
    rules = {"weights": _one_of("ones", "factorial"), "r": _order}
    certification = ("all", math.inf)

    @property
    def b_deterministic(self) -> bool:
        # one unit-weight B^r row serves only unit weights; the engine
        # refuses factorial ones
        return self.weights == "ones"

    @property
    def unit_steps(self) -> bool:
        # the signs are A's steps only at unit weights
        return self.weights == "ones"

    def draw(self, rng, n_lo, n_hi, n_paths, out, codes):
        return fair_signs(rng, out)  # weights applied by `accumulate`

    def accumulate(self, d, n_idx, carry, b, v, out, pair=None):
        """Factorial weights: A = S_n / n! and B^2 = V^2 = V_n^2 / (n!)^2 step by
        step, by x_n = x_{n-1} / n + d_n and y_n = y_{n-1} / n^2 + d_n^2; A
        overwrites d, and B^2 and V^2 are out's V^2 array (no pair)."""
        if self.weights == "ones":
            return super().accumulate(d, n_idx, carry, b, v, out, pair)
        # path by path on Python floats: the same IEEE operations as on numpy
        # columns, without an array call per step
        s_end, b_end, v_end = carry
        ca, cv = d, out[1]
        ns = n_idx.tolist()
        for p, (s, vs, row) in enumerate(zip(s_end.tolist(), v_end.tolist(), d.tolist())):
            xs, ys = [], []
            for n, x in zip(ns, row):
                s = s / n + x
                vs = vs / (n * n) + x * x
                xs.append(s)
                ys.append(vs)
            ca[p], cv[p] = xs, ys
        s_end[...] = ca[:, -1]
        b_end[...] = v_end[...] = cv[:, -1]
        return ca, cv, cv

    def _truncated_mean(self, n, c, d):
        if self.weights != "ones":
            raise UnsupportedVariantError("no closed-form truncated mean for factorial weights")
        return Rademacher()._truncated_mean(n, c, d)


ProcessSpec = (Rademacher | ScaledSymmetric | BoundedAbove | Bernstein | BoundedBelow
               | BrownianGrid | MvBrownianGrid | Counterexample56 | Counterexample65
               | TruncatedCentering | WeightedIID)


# ---------------------------------------------------------------------------
# stepping handle
# ---------------------------------------------------------------------------

@dataclass
class PathState:
    n: int
    a_n: float
    b_pow_r: float
    v_n_sq: float
    extras: dict = field(default_factory=dict)
    spec: ProcessSpec | None = field(default=None, repr=False, compare=False)

    @property
    def mu_sum(self) -> float:
        """The spec's running centering at this state's n and V_n (0 for a
        variant without one); computed when read, not on every step."""
        if self.spec is None or self.n == 0:
            return 0.0
        return float(self.spec.centering(self.n, math.sqrt(self.v_n_sq)))


class ProcessHandle:
    """Single-path stepping state over a spec: as in the engine's chunks, each
    `_BUFFER` steps are drawn and accumulated into one `_Workspace`, the
    handle's own, from one carry, and step() reads the next column. Each
    buffer is a block of one row, drawn as one tile after a coded variant's
    codes. Not thread-safe; run many handles."""

    def __init__(self, spec: ProcessSpec, seed: int, path: int = 0):
        self.spec = spec
        self.seed = int(seed)
        self.path = int(path)
        self.rng = path_rng(self.seed, self.path)
        self.n = 0
        self.a = self.b_pow_r = self.v_sq = 0.0
        self.increments: list = []
        self._carry = (np.zeros((1,) + spec.components), np.zeros(1), np.zeros(1))
        self._cols: list = []  # (d, A, B^r, V^2) of each buffered step
        self._pos = 0
        self._ws = _Workspace()

    def _refill(self):
        lo, hi = self.n, min(self.n + _BUFFER, self.spec.steps)
        if hi <= lo:
            raise IndexError("grid exhausted")
        spec, ws, shape = self.spec, self._ws, (1, hi - lo) + self.spec.components
        codes = spec.codes(self.rng, ws.view(3, shape, np.int8)) if spec.coded else None
        d = spec.draw(self.rng, lo, hi, 1, ws.view(0, shape), codes)
        inc = d[0].tolist()  # before `accumulate` may overwrite d
        pair = None if spec.components else ws.pair(1, hi - lo)
        ca, cb, cv = spec.accumulate(d, np.arange(lo + 1, hi + 1), self._carry, True, True,
                                     (ws.view(1, shape[:2]) if pair is None else None,
                                      ws.view(2, shape[:2])), pair)
        self._cols = list(zip(inc, ca[0].tolist(), np.ravel(cb).tolist(), cv[0].tolist()))
        self._pos = 0

    def step(self) -> PathState:
        if self._pos == len(self._cols):
            self._refill()
        d, self.a, self.b_pow_r, self.v_sq = self._cols[self._pos]
        self._pos += 1
        self.n += 1
        self.increments.append(d)
        return self.state()

    def state(self) -> PathState:
        a_n, extras = self.a, {}
        if isinstance(a_n, list):  # a vector state, reported by its first component
            a_n, extras = a_n[0], {"m_vec": np.array(self.a), "t": self.b_pow_r}
        return PathState(n=self.n, a_n=a_n, b_pow_r=self.b_pow_r, v_n_sq=self.v_sq,
                         extras=extras, spec=self.spec)

    def mu_sum(self) -> float:
        """`PathState.mu_sum` of the current state."""
        return self.state().mu_sum


def make_process(spec: ProcessSpec, seed: int, path: int = 0) -> ProcessHandle:
    """Deterministic single-path generator; equal (spec, seed, path) gives
    identical streams."""
    return ProcessHandle(spec, seed, path)


def check_lambda(spec: ProcessSpec, lam: float) -> None:
    cert = spec.certification
    if cert is None:
        raise CertificationError(f"{type(spec).__name__} carries no supermartingale certification")
    kind, lam0 = cert
    if kind == "all":
        return
    if not 0.0 <= lam <= lam0:
        raise CertificationError(
            f"lambda={lam} outside certified range [0, {lam0}] for {type(spec).__name__}")


def log_supermartingale(spec: ProcessSpec, lam: float, a: float, b_pow_r: float) -> float:
    """Log of the certified exponential supermartingale at the given state."""
    check_lambda(spec, lam)
    return spec.log_weight(lam, a, b_pow_r)


def exp_supermartingale_value(handle: ProcessHandle, lam: float) -> float:
    """exp(lam*A_n - (lam^r) B_n^r / r) (variant-specific weight where the
    certification requires one), evaluated from the handle's current state."""
    lw = log_supermartingale(handle.spec, lam, handle.a, handle.b_pow_r)
    return math.inf if lw > 709.0 else math.exp(lw)


def truncated_supermartingale_value(handle: ProcessHandle, gammas, lams,
                                    r: float = 2.0) -> float:
    """Running product exp{sum_i (Y_i - mu_i - lam_i^(-1) |Y_i|^r)} with
    F_{i-1}-measurable truncation parameters; mu_i truncates Y to
    [-gamma_i, lam_i^(1/(r-1))). Parameters may be scalars or sequences."""
    n = handle.n
    gam = np.broadcast_to(np.asarray(gammas, dtype=float), (n,))
    lamv = np.broadcast_to(np.asarray(lams, dtype=float), (n,))
    total = 0.0
    for i in range(n):
        g, l = float(gam[i]), float(lamv[i])
        if not 0.0 <= g < 1.0:
            raise DomainError(f"gamma_{i+1}={g} outside [0, 1)")
        cap = 1.0 / c_gamma(g) if r == 2.0 else 1.0 / c_gamma_r(g, r)
        if not 0.0 < l <= cap * (1.0 + 1e-12):
            raise DomainError(f"lambda_{i+1}={l} exceeds 1/c_(gamma,r)={cap}")
        y = handle.increments[i]
        upper = l if r == 2.0 else l ** (1.0 / (r - 1.0))
        mu = handle.spec.truncated_mean(i + 1, -g, upper)
        total += y - mu - abs(y) ** r / l
    return math.inf if total > 709.0 else math.exp(total)


# ---------------------------------------------------------------------------
# JSON serialization of specs
# ---------------------------------------------------------------------------

_VARIANTS = {
    "rademacher": Rademacher,
    "scaled_symmetric": ScaledSymmetric,
    "bounded_above": BoundedAbove,
    "bernstein": Bernstein,
    "bounded_below": BoundedBelow,
    "brownian_grid": BrownianGrid,
    "mv_brownian_grid": MvBrownianGrid,
    "counterexample56": Counterexample56,
    "counterexample65": Counterexample65,
    "truncated_centering": TruncatedCentering,
    "weighted_iid": WeightedIID,
}


def spec_to_json(spec: ProcessSpec) -> dict:
    return to_json(spec, "variant", _VARIANTS)


def spec_from_json(obj: dict | str) -> ProcessSpec:
    return from_json(obj, "variant", _VARIANTS)
