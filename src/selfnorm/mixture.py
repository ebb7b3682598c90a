"""Method of mixtures: the mixed supermartingale psi(u, v), the boundary
u = beta_F(v, c) solving psi = c, its large-v asymptotics, and the Gaussian
multivariate mixture statistic and level test.

All heavy arithmetic is done in log scale so that boundary root-finding can
roam over u without overflowing.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .constants import (DomainError, _Checked, _finite, _number, _order, _positive, _rule,
                        from_json, to_json)

QUAD_REL_TOL = 1e-9
RESIDUAL_TOL = 2e-9
NEWTON_MAX_STEPS = 100

# Robbins-Siegmund rule (`RobbinsSiegmund.log_psi`): 20-node Gauss-Legendre
# panels on two fixed lattices in w = log(1/lambda), both starting at w = 2.
# Fine panels are _PANEL = 1/4 wide, the first split geometrically into
# _GRADED + 1 panels, down to width 1/1024, for the layer of width about
# 1/(lambda0 u) at lambda0 = e^-2 when u is large; a row uses them up to its
# w_s. Coarse panels are _COARSE = 4 wide, each over the w of _PER_COARSE
# fine ones, and a row uses them from w_s, where its exponent is flat, up to
# its W. Rows run in slabs of _SLAB_ROWS to bound the (rows, nodes, panels)
# arrays.
_PANEL = 0.25
_COARSE = 4.0
_PER_COARSE = int(_COARSE / _PANEL)
_GRADED = 8
_SLAB_ROWS = 16


class QuadratureError(RuntimeError):
    pass


class BracketError(RuntimeError):
    pass


def _pairs(v) -> bool:
    return isinstance(v, list | tuple) and len(v) > 0 and all(
        isinstance(a, list | tuple) and len(a) == 2 and all(_finite(x) and x > 0 for x in a)
        for a in v)


def _square(v) -> bool:
    rows = v.tolist() if isinstance(v, np.ndarray) else v
    return isinstance(rows, list | tuple) and all(
        isinstance(row, list | tuple) and len(row) == len(rows) and all(map(_finite, row))
        for row in rows)


@dataclass(frozen=True)
class PointMasses(_Checked):
    """Finite measure given by atoms (lambda_j, weight_j) with lambda_j > 0."""
    atoms: tuple[tuple[float, float], ...]
    rules = {"atoms": _rule("a non-empty list of (position, weight) pairs of finite numbers > 0",
                            _pairs, lambda v: tuple((float(l), float(w)) for l, w in v))}

    @property
    def lambda0(self) -> float:
        return max(lam for lam, _ in self.atoms)

    @property
    def total_mass(self) -> float:
        return math.fsum(w for _, w in self.atoms)

    def log_psi(self, u: np.ndarray, v: np.ndarray, r: float):
        """Exact log-sum-exp over the atoms, and the tilted mean of lambda."""
        exps = [math.log(w) + lam * u - lam**r * v / r for lam, w in self.atoms]
        m = np.max(exps, axis=0)
        total = moment = 0.0
        for (lam, _), e in zip(self.atoms, exps):
            t = np.exp(e - m)
            total = total + t
            moment = moment + lam * t
        return m + np.log(total), moment / total


@dataclass(frozen=True)
class Density(_Checked):
    """Measure with density f on (0, lambda0); support_low is the essential
    infimum of the support (0 when the density reaches down to 0)."""
    f: Callable[[np.ndarray], np.ndarray]
    lambda0: float
    support_low: float = 0.0
    rules = {"f": _rule("callable", callable), "lambda0": _positive, "support_low": _number}

    def _check(self):
        if not 0.0 <= self.support_low < self.lambda0:
            raise DomainError(f"support_low must lie in [0, lambda0), got {self.support_low}")

    @property
    def total_mass(self) -> float:
        from scipy import integrate
        val, err = integrate.quad(self.f, self.support_low, self.lambda0,
                                  epsabs=0.0, epsrel=1e-11, limit=400)
        if not math.isfinite(val) or val <= 0.0:
            raise QuadratureError(f"density mass integral failed: {val} (err {err})")
        return val

    def log_psi(self, u: np.ndarray, v: np.ndarray, r: float):
        """Adaptive quadrature (relative target 1e-10) for each element: f is
        a user callable that need not be smooth, so no fixed rule is assumed
        to fit it."""
        lp, slope = np.empty(u.shape), np.empty(u.shape)
        for i in np.ndindex(u.shape):
            lp[i], slope[i] = self._log_psi_one(float(u[i]), float(v[i]), r)
        return lp, slope

    def _log_psi_one(self, u: float, v: float, r: float):
        m = _max_exponent(u, v, r, self.lambda0)

        def tilted(lam):
            return np.exp(lam * u - lam**r * v / r - m) * self.f(lam)

        lam_star = (u / v) ** (1.0 / (r - 1.0)) if u > 0 else 0.0
        pts = sorted({self.support_low, self.lambda0,
                      *(x for x in (lam_star,) if self.support_low < x < self.lambda0)})
        total = moment = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            total += _quad(tilted, a, b)
            moment += _quad(lambda lam: lam * tilted(lam), a, b)
        if not total > 0.0:
            raise QuadratureError("psi integral evaluated to a nonpositive value")
        return m + math.log(total), moment / total


@dataclass(frozen=True)
class RobbinsSiegmund(_Checked):
    """The mixing density 1/{lam * log(1/lam) * (loglog(1/lam))^(1+delta)} on
    (0, e^-2); its total mass is (log 2)^(-delta)/delta."""
    delta: float
    rules = {"delta": _positive}

    @property
    def lambda0(self) -> float:
        return math.exp(-2.0)

    @property
    def total_mass(self) -> float:
        return math.log(2.0) ** (-self.delta) / self.delta

    def log_psi(self, u: np.ndarray, v: np.ndarray, r: float):
        """One fixed composite rule: w = log(1/lambda) turns the measure into
        dw / (w (log w)^(1+delta)) on (2, inf), integrated by 20-node
        Gauss-Legendre panels on two fixed lattices. Panels of width 1/4, the
        first one graded towards w = 2, run up to w_s, the first point of the
        lattice 2 + 4k at or past max(log max(|u|, 1), log max(v, 1)/r) + 4.
        Panels of width 4 run from w_s to W, the first point of that lattice
        at or past 50 + log max(v, |u|, 1).

        The 4-wide panels are exact to rounding: past w_s, lambda |u| and
        lambda^r v/r are at most e^-4, so for complex w with Re w >= w_s - 4
        the exponent is at most 1 + 1/r in size, and 1/(w (log w)^(1+delta))
        is analytic there (its singularities are at w = 0 and 1, and
        w_s >= 6). The integrand is then analytic and bounded on the
        Bernstein ellipse of each such panel with rho = 3 + 2 sqrt 2, and the
        20-node error is of order rho^-40, about 1e-31 of that bound. Past W,
        exp(lambda u - lambda^r v/r) is 1 to machine precision, so the tail
        mass (log W)^(-delta)/delta enters in closed form, as an atom at
        lambda = 0.

        A row's panels are a subset of the two lattices, which do not depend
        on the batch; exponents are shifted by their largest value over the
        row's nodes and that atom, and the sums run in one fixed order, so
        each element is the same bits in any batch."""
        u1, v1 = u.reshape(-1), v.reshape(-1)
        lp, slope = np.empty(u1.shape), np.empty(u1.shape)
        for s in range(0, u1.size, _SLAB_ROWS):
            rows = slice(s, s + _SLAB_ROWS)
            lp[rows], slope[rows] = self._log_psi_rows(u1[rows], v1[rows], r)
        return lp.reshape(u.shape), slope.reshape(u.shape)

    def _log_psi_rows(self, u: np.ndarray, v: np.ndarray, r: float):
        # per row, w_s = 2 + 4 split and W = 2 + 4 end; the slab lays out the
        # fine panels below its largest w_s, then the coarse panels from its
        # smallest w_s to its largest W, and masks those a row does not own
        log_u, log_v = np.log(np.maximum(np.abs(u), 1.0)), np.log(np.maximum(v, 1.0))
        split = np.ceil((np.maximum(log_u, log_v / r) + 2.0) / _COARSE)
        end = np.ceil((np.maximum(log_u, log_v) + 48.0) / _COARSE)
        lo, top, hi = int(split.min()), int(split.max()), int(end.max())
        nf = _PER_COARSE * top + _GRADED
        lam, lam_r, weight = (np.concatenate((f[:, :nf], c[:, lo:hi]), axis=1) for f, c in zip(
            _rs_nodes(r, self.delta, False, (top - 1).bit_length()),
            _rs_nodes(r, self.delta, True, (hi - 1).bit_length())))
        t = np.empty((2, u.size) + lam.shape)  # (psi, its u-derivative) x (rows, nodes, panels)
        e = t[0]
        np.multiply(lam, u[:, None, None], out=e)
        e -= np.multiply(lam_r, v[:, None, None], out=t[1])
        if lo < top or end.min() < hi:
            k = np.arange(lo, hi)
            own = np.concatenate((np.arange(nf) < _PER_COARSE * split[:, None] + _GRADED,
                                  (k >= split[:, None]) & (k < end[:, None])), axis=1)
            np.copyto(e, -np.inf, where=~own[:, None, :])
        m = np.maximum(e.max(axis=(1, 2)), 0.0)              # 0: the tail atom
        e -= m[:, None, None]
        np.exp(e, out=e)
        e *= weight
        np.multiply(e, lam, out=t[1])
        total, moment = _ordered_sum(t)
        total += np.log(2.0 + _COARSE * end) ** (-self.delta) / self.delta * np.exp(-m)
        return m + np.log(total), moment / total


MixtureMeasure = PointMasses | Density | RobbinsSiegmund


@dataclass(frozen=True)
class GaussianMixture(_Checked):
    """Zero-mean Gaussian mixing measure on R^m with precision matrix V."""
    precision: np.ndarray
    chol: np.ndarray = field(init=False, repr=False, compare=False)
    total_mass = 1.0  # a probability measure
    rules = {"precision": _rule("a square matrix of finite numbers", _square,
                                lambda v: np.asarray(v, dtype=float))}

    def _check(self):
        v = self.precision
        if not np.allclose(v, v.T, rtol=1e-10, atol=1e-12):
            raise DomainError("precision must be symmetric")
        try:
            object.__setattr__(self, "chol", np.linalg.cholesky(v))
        except np.linalg.LinAlgError as exc:
            raise DomainError("precision must be positive definite") from exc

    @property
    def dim(self) -> int:
        return self.precision.shape[0]

    @property
    def log_det_precision(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))


def _max_exponent(u: float, v: float, r: float, lambda0: float) -> float:
    """sup over lambda in (0, lambda0] of lambda*u - lambda^r v / r."""
    if u <= 0.0:
        return 0.0  # approached as lambda -> 0
    lam = min((u / v) ** (1.0 / (r - 1.0)), lambda0)
    return max(0.0, lam * u - lam**r * v / r)


def _quad(g, a: float, b: float) -> float:
    from scipy import integrate
    val, _ = integrate.quad(g, a, b, epsabs=0.0, epsrel=QUAD_REL_TOL * 0.1, limit=400)
    if not math.isfinite(val):
        raise QuadratureError(f"quadrature diverged on [{a}, {b}]")
    return val


@functools.cache
def _gauss_legendre():
    """Nodes and weights of the 20-point Gauss-Legendre rule on [-1, 1],
    made on first use: the eigensolver behind them costs every process that
    imports selfnorm 0.7 MB of memory."""
    x, w = np.polynomial.legendre.leggauss(20)
    return x[:, None], w[:, None]


@functools.lru_cache(maxsize=32)
def _rs_nodes(r: float, delta: float, coarse: bool, size: int):
    """lambda, lambda^r/r and the measure weight at the nodes of one
    Robbins-Siegmund lattice, as (nodes, panels) arrays over its first 2^size
    coarse steps [2 + 4k, 6 + 4k]: one panel a step on the coarse lattice,
    _PER_COARSE on the fine one, the first split into _GRADED + 1. Each
    element is a function of (r, delta, its index) alone, so a slab's slice is
    the same bits whichever size was built (numpy's exp and log give an
    element the same bits at any position in a contiguous array)."""
    steps = 1 << size
    if coarse:
        edges = 2.0 + _COARSE * np.arange(steps + 1.0)
    else:
        edges = 2.0 + _PANEL * np.concatenate(
            ([0.0], 0.5 ** np.arange(_GRADED, 0, -1), np.arange(1.0, _PER_COARSE * steps + 1)))
    half = 0.5 * np.diff(edges)
    gl_x, gl_w = _gauss_legendre()
    w = edges[:-1] + half * (1.0 + gl_x)
    nodes = np.exp(-w), np.exp(-r * w) / r, half * gl_w / (w * np.log(w) ** (1.0 + delta))
    for a in nodes:
        a.flags.writeable = False  # shared by every later call
    return nodes


def _ordered_sum(t: np.ndarray) -> np.ndarray:
    """Sum of t over its last two axes (nodes, panels) in one fixed order,
    node by node within each panel and then panel by panel, so that a row's
    total is the same bits in any batch (numpy's pairwise sum and BLAS kernels
    choose their order by array shape)."""
    s = t[..., 0, :].copy()
    for j in range(1, t.shape[-2]):
        s += t[..., j, :]
    return np.cumsum(s, axis=-1)[..., -1]


def log_psi(u, v, F: MixtureMeasure, r: float = 2.0):
    """log psi(u, v) = log int exp(lambda*u - lambda^r v/r) dF(lambda) and its
    u-derivative, the mean of lambda under F tilted by that exponential, as
    two arrays broadcast over u and v (0-d for scalars).

    Point masses: exact log-sum-exp. Robbins-Siegmund: a fixed composite
    Gauss-Legendre rule with a closed-form tail (`RobbinsSiegmund.log_psi`).
    Density: adaptive quadrature per element. log psi is convex and strictly
    increasing in u, and strictly decreasing in v.
    """
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    if not np.all(v > 0.0):
        raise DomainError("v must be positive")
    _order(r, "r")
    return F.log_psi(u, v, r)


def psi(u, v, F: MixtureMeasure, r: float = 2.0):
    """psi(u, v) = int_0^lambda0 exp(lambda*u - lambda^r v/r) dF(lambda),
    broadcast over u and v; a float for scalars, inf past e^709."""
    lp, _ = log_psi(u, v, F, r)
    out = np.where(lp > 709.0, np.inf, np.exp(np.minimum(lp, 709.0)))
    return float(out) if out.ndim == 0 else out


def boundary(v, c: float, F: MixtureMeasure, r: float = 2.0):
    """The unique u with psi(u, v) = c, for each element of v: a float for a
    scalar v, else an array of v's shape.

    Newton's method on log psi(u, v) - log c from u = 0. log psi is convex
    and strictly increasing in u, so the first step lands at or right of the
    root and the iterates then fall monotonically to it. Each element stops
    on its own test: its step is at most 4 ulp of u, or, after the first
    step, no longer moves u left (rounding or quadrature noise at the root).
    A stopped element keeps the last u evaluated, and no element depends on
    the others. The residual |log psi - log c| there must be at most 2e-9
    plus the rounding of u carried by the slope, 4 eps |u| d(log psi)/du;
    otherwise QuadratureError. A step that leaves the finite range, or more
    than 100 steps, raises BracketError.
    """
    _positive(c, "c")
    v = np.asarray(v, dtype=float)
    flat = v.reshape(-1)
    target = math.log(c)
    eps = np.finfo(float).eps
    u = np.zeros(flat.shape)
    rows = np.arange(flat.size)
    for n in range(NEWTON_MAX_STEPS):
        if not rows.size:
            break
        lp, slope = log_psi(u[rows], flat[rows], F, r)
        f = lp - target
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            step = f / slope
        if not np.all(np.isfinite(step)):
            raise BracketError(f"Newton step for boundary(c={c}) left the finite range "
                               f"at v={flat[rows][~np.isfinite(step)][0]}")
        ur = u[rows]
        stop = (np.abs(step) <= 4.0 * eps * np.abs(ur)) | ((n > 0) & (step <= 0.0))
        if np.any(stop & (np.abs(f) > RESIDUAL_TOL + 4.0 * eps * np.abs(ur * slope))):
            raise QuadratureError(f"boundary root residual too large, c={c}")
        u[rows[~stop]] = ur[~stop] - step[~stop]
        rows = rows[~stop]
    if rows.size:
        raise BracketError(f"boundary(c={c}) did not settle in {NEWTON_MAX_STEPS} "
                           f"Newton steps at v={flat[rows[0]]}")
    return float(u[0]) if v.ndim == 0 else u.reshape(v.shape)


def rs_asymptotic(v: float, c: float, delta: float) -> float:
    """{2v [loglog v + (3/2 + delta) log3 v + log(c/(2 sqrt(pi)))]}^(1/2),
    the large-v expansion of the Robbins-Siegmund boundary (o(1) dropped)."""
    _positive(c, "c")
    _positive(delta, "delta")
    if not v > math.exp(math.e):
        raise DomainError("v must exceed e^e for log3 v > 0")
    l2 = math.log(math.log(v))
    l3 = math.log(l2)
    inner = l2 + (1.5 + delta) * l3 + math.log(c / (2.0 * math.sqrt(math.pi)))
    return math.sqrt(2.0 * v * inner)


def general_r_asymptotic(v: float, r: float) -> float:
    """v^(1/r) {r loglog v / (r-1)}^((r-1)/r), the general-order boundary growth."""
    if not v > math.e:
        raise DomainError("v must exceed e")
    _order(r, "r")
    return v ** (1.0 / r) * (r * math.log(math.log(v)) / (r - 1.0)) ** ((r - 1.0) / r)


def crossing_bound(c: float, F: MixtureMeasure | GaussianMixture) -> float:
    """min(1, F's total mass / c): the ever-crossing probability bound."""
    _positive(c, "c")
    return min(1.0, F.total_mass / c)


def mv_statistic(s: Sequence[float], Q: np.ndarray, G: GaussianMixture) -> float:
    """log of the Gaussian-mixture supermartingale:
    (log|V| - log|V+Q|)/2 + s'(V+Q)^{-1} s / 2, via Cholesky solves."""
    from scipy import linalg
    s = np.asarray(s, dtype=float).reshape(-1)
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (G.dim, G.dim) or s.shape != (G.dim,):
        raise DomainError("shape mismatch between s, Q and the mixture dimension")
    A = G.precision + Q
    try:
        cf = linalg.cho_factor(A, lower=True)
    except linalg.LinAlgError as exc:
        raise DomainError("V + Q is not positive definite") from exc
    log_det_a = 2.0 * float(np.sum(np.log(np.diag(cf[0]))))
    quad = float(s @ linalg.cho_solve(cf, s))
    return 0.5 * (G.log_det_precision - log_det_a + quad)


def mv_boundary_test(s: Sequence[float], Q: np.ndarray, G: GaussianMixture,
                     c: float) -> bool:
    """True iff s'(V+Q)^{-1}s >= log|V+Q| + 2 log c - log|V|; identical to
    mv_statistic >= log c."""
    if not c > 1.0:
        raise DomainError("c must exceed 1")
    return mv_statistic(s, Q, G) >= math.log(c)


# ---------------------------------------------------------------------------
# JSON (de)serialization. Schema:
#   {"type": "point_masses", "atoms": [[lam, w], ...]}
#   {"type": "density_rs", "delta": d}
#   {"type": "gaussian", "precision": [[...], ...]}
# ---------------------------------------------------------------------------

_MEASURES = {"point_masses": PointMasses, "density_rs": RobbinsSiegmund,
             "gaussian": GaussianMixture}


def measure_to_json(m: MixtureMeasure | GaussianMixture) -> dict:
    return to_json(m, "type", _MEASURES)


def measure_from_json(obj: dict | str) -> MixtureMeasure | GaussianMixture:
    return from_json(obj, "type", _MEASURES)
