"""Scalar constants and special functions used throughout the package.

Closed forms are used where available; everything else is obtained by
bracketed root-finding or adaptive quadrature with explicit tolerances.
"""
from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

ROOT_TOL = 1e-12
ROOT_MAX_ITER = 200


class DomainError(ValueError):
    """Argument outside the mathematically valid range."""


class NormalizationError(RuntimeError):
    """The slowly-growing normalizer could not be constructed."""


# Input rules: each value read from outside (a config, a spec or mixture field,
# an op argument, a flag) passes one of these before any draw.

def _finite(v) -> bool:
    """v is a finite real number; a bool is not a number."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _rule(what: str, ok, out=lambda v: v):
    """rule(v, name): out(v) if ok(v), else a DomainError naming `name`."""
    def rule(v, name):
        if not ok(v):
            raise DomainError(f"{name} must be {what}, got {v!r}")
        return out(v)
    return rule


def _integer(least: int):
    """An integer >= least; an integral float, such as JSON's 1e5, is taken."""
    return _rule(f"an integer >= {least}", lambda v: (
        isinstance(v, numbers.Integral) and not isinstance(v, bool)
        or isinstance(v, float) and v.is_integer()) and v >= least, int)


def _one_of(*choices):
    return _rule(f"one of {choices}", lambda v: v in choices)


_count = _integer(1)
_number = _rule("a finite number", _finite)
_positive = _rule("positive and finite (a finite number > 0)", lambda v: _finite(v) and v > 0)
_unit = _rule("a number in (0, 1)", lambda v: _finite(v) and 0 < v < 1)
_unit0 = _rule("a number in [0, 1)", lambda v: _finite(v) and 0 <= v < 1)
_order = _rule("a number in (1, 2]", lambda v: _finite(v) and 1 < v <= 2)
# the order of a variant whose certified weight is of order 2 alone
_order2 = _rule("2, the order of its certified weight", lambda v: _finite(v) and v == 2)
_reals = _rule("a list of finite numbers",
               lambda v: isinstance(v, list | tuple) and all(map(_finite, v)), tuple)


def _at_most(limit: int, rule=_count):
    """rule(v, name): `rule`'s value, a count or a list, of at most `limit`
    items, each a float64 of the array it sizes; a larger one is a
    DomainError naming `name` and the bytes asked for, before anything of
    that size is made."""
    def checked(v, name):
        out = rule(v, name)
        n, what = (out, f"{name} {out}") if isinstance(out, int) else (
            len(out), f"{name} of {len(out)} items")
        if n > limit:
            raise DomainError(f"{what} asks for {8 * n} bytes, a float64 an item, "
                              f"above the limit of {limit} items")
        return out
    return checked


class _Checked:
    """Base of a frozen dataclass read from outside (a process spec, a mixture
    measure, a sample (A, B)): each init field is kept as its rule in the
    class's `rules` dict returns it, then `_check` tests what spans fields."""

    def __post_init__(self):
        for f in fields(self):
            if f.init:
                object.__setattr__(self, f.name, self.rules[f.name](getattr(self, f.name), f.name))
        self._check()

    def _check(self):
        pass


def fields_to_json(obj) -> dict:
    """A dataclass's init fields by name, tuples and arrays as lists."""
    def plain(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        return [plain(x) for x in v] if isinstance(v, tuple) else v
    return {f.name: plain(getattr(obj, f.name)) for f in fields(obj) if f.init}


def to_json(obj, key: str, table: dict) -> dict:
    """obj's JSON object: its class's name in `table` under `key`, then its fields."""
    name = {v: k for k, v in table.items()}.get(type(obj))
    if name is None:
        raise DomainError(f"{type(obj).__name__} has no JSON form")
    return {key: name, **fields_to_json(obj)}


def from_json(obj: dict | str, key: str, table: dict):
    """The object `to_json` wrote, built from the keys besides `key`; an unknown
    name, or a missing, unknown or bad field, is a DomainError."""
    obj = json.loads(obj) if isinstance(obj, str) else obj
    if not isinstance(obj, dict):
        raise DomainError(f"expected a JSON object with a {key!r} key, got {obj!r}")
    name = obj.get(key)
    cls = table.get(name) if isinstance(name, str) else None
    if cls is None:
        raise DomainError(f"unknown {key} {name!r}; known: {sorted(table)}")
    try:
        return cls(**{k: v for k, v in obj.items() if k != key})
    except TypeError as exc:
        raise DomainError(f"bad parameters for {name}: {exc}") from exc


def c_gamma(gamma: float) -> float:
    """C_gamma = -(gamma + log(1-gamma))/gamma^2, extended by its limit 1/2 at 0.

    Equals the series sum_{j>=2} gamma^(j-2)/j; strictly increasing on [0, 1).
    """
    if not 0.0 <= gamma < 1.0:
        raise DomainError(f"gamma must lie in [0, 1), got {gamma}")
    if gamma < 1e-4:
        # series to avoid cancellation: 1/2 + g/3 + g^2/4 + g^3/5 + ...
        return 0.5 + gamma / 3.0 + gamma**2 / 4.0 + gamma**3 / 5.0 + gamma**4 / 6.0
    return -(gamma + math.log1p(-gamma)) / gamma**2


def c_r_gamma_part(gamma: float, r: float) -> float:
    """c_r^(gamma) = -(gamma + log(1-gamma))/gamma^r for 0 <= gamma < 1, 1 < r <= 2;
    below gamma = 1e-4, gamma^(2-r) C_gamma, whose series loses no digits:
    at gamma = 0 it is 0 for r < 2 and 1/2 at r = 2."""
    _unit0(gamma, "gamma")
    _order(r, "r")
    if gamma < 1e-4:
        return c_gamma(gamma) * gamma ** (2.0 - r)
    return -(gamma + math.log1p(-gamma)) / gamma**r


def c_r_upper_bound(r: float) -> float:
    """(r-1)^(r-1) (2-r)^(2-r) / r with the convention 0^0 = 1."""
    a = (r - 1.0) ** (r - 1.0)
    b = 1.0 if r == 2.0 else (2.0 - r) ** (2.0 - r)
    return a * b / r


@functools.lru_cache(maxsize=64)
def c_r(r: float) -> float:
    """Smallest c with exp(x - c x^r) <= 1 + x for all x >= 0: the sup over
    x > 0 of phi(x) = (x - log(1+x))/x^r, as the smallest double at or above it.

    At r = 2, phi falls from its limit 1/2 at 0. For r < 2, phi' has the sign
    of x^2/(1+x) - r(x - log(1+x)), which is positive up to (2-r)/(r-1) and
    has one root x* past it, where phi peaks; x* is bisected for, and phi(x*)
    evaluated, in 50-digit decimal. Memoized, as callers ask per step.
    """
    import decimal  # at the call: importing it adds 0.4 MB to every process's peak RSS
    _order(r, "r")
    if r == 2.0:
        return 0.5
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        rr = decimal.Decimal(r)

        def rises(x):
            return x * x / (1 + x) > rr * (x - (1 + x).ln())

        lo = (2 - rr) / (rr - 1)
        hi = 2 * lo
        while rises(hi):
            lo, hi = hi, 2 * hi
        for _ in range(100):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if rises(mid) else (lo, mid)
        sup = (lo - (1 + lo).ln()) / lo**rr
    c = float(sup)
    return c if decimal.Decimal(c) >= sup else math.nextafter(c, math.inf)


def c_gamma_r(gamma: float, r: float) -> float:
    """c_{gamma,r} = max(c_r, c_r^(gamma)). c_r never exceeds
    c_r_upper_bound(r), so c_r^(gamma) at or above it is the max, bit for
    bit, and c_r is not computed."""
    part = c_r_gamma_part(gamma, r)
    if part >= c_r_upper_bound(r):
        return part
    return max(c_r(r), part)


def h_of_lambda(lam: float) -> float:
    """Unique positive root h of h - log(1+h) = lam^2."""
    from scipy import optimize
    _positive(lam, "lambda")
    target = lam * lam

    def f(h: float) -> float:
        return h - math.log1p(h) - target

    # h - log(1+h) ~ h^2/2 near 0 and ~ h for large h
    lo = min(math.sqrt(2.0) * lam, 1.0) * 0.5
    while f(lo) > 0.0:
        lo *= 0.5
        if lo < 1e-300:
            break
    hi = 2.0 * target + 2.0  # f(hi) >= 2 - log 3: x + 2 - log(3 + 2x) rises from x = 0
    h = optimize.brentq(f, lo, hi, xtol=ROOT_TOL, rtol=1e-15, maxiter=ROOT_MAX_ITER)
    return float(h)


@dataclass(frozen=True)
class LilConstants:
    """The constants of the universal truncated-centering LIL."""
    lam: float
    h: float
    b_lambda: float
    gamma: float
    a_lambda: float


def lil_constants(lam: float) -> LilConstants:
    """b = h/lam, gamma = h/(1+h), a = lam/(gamma * C_gamma)."""
    h = h_of_lambda(lam)
    gamma = h / (1.0 + h)
    b = h / lam
    a = lam / (gamma * c_gamma(gamma))
    return LilConstants(lam=lam, h=h, b_lambda=b, gamma=gamma, a_lambda=a)


@dataclass(frozen=True)
class LConfig:
    """Parameters of the slowly-growing normalizer L(y)."""
    alpha: float
    delta: float
    beta: float


# The smallest shift of the form e^{e^k} (k an integer) meeting the paper's
# condition L(y^2) <= 3 L(y) at delta = 1: the certified sup of the ratio is
# 2.897 (at y ~ 6.6e24), against 3.365 for e^{e^3} and 3.583 for e^{e^e}.
# The sup equals 3 at loglog(alpha) ~ 3.709; see notes/decisions.md.
DEFAULT_ALPHA = math.exp(math.exp(4.0))
DEFAULT_DELTA = 1.0


def _l_factors(y: float | np.ndarray, alpha: float, delta: float):
    """log(y+a) * loglog(y+a) * (logloglog(y+a))^(1+delta), without beta."""
    w1 = np.log(np.asarray(y, dtype=float) + alpha)
    if not np.all(w1 > 0.0):
        raise DomainError("alpha too small: log(y + alpha) not positive")
    w2 = np.log(w1)
    if not np.all(w2 > 0.0):
        raise DomainError("alpha too small: loglog(y + alpha) not positive")
    w3 = np.log(w2)
    if not np.all(w3 > 0.0):
        raise DomainError("alpha too small: loglogloglog(y + alpha) not positive")
    return w1 * w2 * w3 ** (1.0 + delta)


def _iterated_logs(t, log_alpha: float):
    """(log(y+a), loglog(y+a), logloglog(y+a)) at y = e^t, finite for any real t."""
    w1 = np.logaddexp(t, log_alpha)
    w2 = np.log(w1)
    return w1, w2, np.log(w2)


def _log_l(t, log_alpha: float, delta: float):
    """log of the iterated-log product of L (without beta) at y = e^t."""
    w1, w2, w3 = _iterated_logs(t, log_alpha)
    return np.log(w1) + np.log(w2) + (1.0 + delta) * np.log(w3)


def unnormalized_integral(alpha: float, delta: float) -> float:
    """int_1^inf dx / (x * l(x + alpha)) with l the product of iterated logs."""
    return _integral_with_error(alpha, delta)[0]


def _integral_with_error(alpha: float, delta: float) -> tuple[float, float]:
    """unnormalized_integral and the sum of the quadrature error estimates.

    Split as an exact closed-form piece plus a fast-converging correction:
      int_1^inf dx/(x l(x+a)) = int_{1+a}^inf dy/(y l(y))
                                + int_1^inf [1/x - 1/(x+a)] dx / l(x+a)
    and the first piece telescopes under t = logloglog(y) to t0^(-delta)/delta.
    The correction is integrated in s = log x, where its integrand
    a/(e^s + a) / l(e^s + a) is flat up to s = log a and decays like
    e^(log a - s) after it, so the breakpoints follow log a.
    """
    from scipy import integrate
    if not (alpha > 0.0 and delta > 0.0):
        raise DomainError("alpha and delta must be positive")
    t0 = math.log(math.log(math.log(1.0 + alpha)))
    if not t0 > 0.0:
        raise NormalizationError("alpha too small: iterated logs not positive at y = 1")
    main = t0 ** (-delta) / delta
    la = math.log(alpha)

    def corr_integrand(s: float) -> float:
        return math.exp(la - np.logaddexp(s, la) - _log_l(s, la, delta))

    pts = [0.0] + [la + k for k in (-20.0, -5.0, 0.0, 5.0, 20.0, 40.0) if la + k > 0.0]
    total, err = 0.0, 0.0
    for a, b in zip(pts, pts[1:] + [np.inf]):
        val, e = integrate.quad(corr_integrand, a, b, epsabs=1e-15, epsrel=1e-12, limit=400)
        total += val
        err += e
    return main + total, err


def normalize_L(alpha: float = DEFAULT_ALPHA, delta: float = DEFAULT_DELTA) -> LConfig:
    """Find beta making int_1^inf dx/(x L(x)) = 1/2 and certify the growth bounds.

    Raises NormalizationError when the quadrature's summed error estimates
    exceed 1e-8 of the integral, and unless l_growth_violations proves, for
    every y > 0 and c >= 1, that L(cy) <= 3c L(y) and L(y^2) <= 3 L(y).
    """
    integral, err = _integral_with_error(alpha, delta)
    if not err <= 1e-8 * integral:
        raise NormalizationError(
            f"quadrature error estimate {err:.3e} exceeds 1e-8 of the integral {integral:.6g}")
    cfg = LConfig(alpha=alpha, delta=delta, beta=2.0 * integral)
    violations = l_growth_violations(cfg)
    if violations:
        raise NormalizationError(
            f"alpha={alpha} too small: growth bounds violated at {violations[:3]}")
    return cfg


def _bounded_sup(rise, fall, edges: np.ndarray) -> tuple[float, float, float]:
    """Maximize rise(t) + fall(t) over [edges[0], edges[-1]] by branch and bound.

    rise must be nondecreasing and fall nonincreasing, so on a cell [a, b]
    the objective never exceeds rise(b) + fall(a). Cells whose bound is more
    than log1p(1e-9) above the best value seen are bisected, for at most 60
    rounds. Returns (best value, t attaining it, proven upper bound on the
    range).
    """
    r, f = rise(edges), fall(edges)
    v = r + f
    k = int(np.argmax(v))
    best, t_best = float(v[k]), float(edges[k])
    a, b, fa, rb = edges[:-1], edges[1:], f[:-1], r[1:]
    tol = math.log1p(1e-9)
    for _ in range(60):
        open_ = rb + fa > best + tol
        if not open_.any():
            break
        a, b, fa, rb = a[open_], b[open_], fa[open_], rb[open_]
        m = 0.5 * (a + b)
        rm, fm = rise(m), fall(m)
        vm = rm + fm
        j = int(np.argmax(vm))
        if vm[j] > best:
            best, t_best = float(vm[j]), float(m[j])
        a, b = np.concatenate([a, m]), np.concatenate([m, b])
        fa, rb = np.concatenate([fa, fm]), np.concatenate([rm, rb])
    return best, t_best, max(best, float(np.max(rb + fa)))


def _certified_sup(rise, fall, tail, lo: float, hi: float) -> tuple[float, float, float]:
    """sup over t >= lo of rise + fall, with a proven upper bound.

    Runs _bounded_sup on [lo, hi] on a grid of step 1e-3 in log(1 + t - lo), then
    on [hi, 2 hi - lo], and so on, until tail(hi), a proven bound on the
    objective for all t >= hi, drops to the best value found (or t passes
    1e300, where tail(hi) joins the upper bound). Returns log-space
    (sup, t attaining it, upper bound).
    """
    best, t_best, upper = -math.inf, lo, -math.inf
    seg_lo = lo
    while True:
        n = int(math.ceil((math.log1p(hi - lo) - math.log1p(seg_lo - lo)) / 1e-3)) + 1
        edges = lo + np.expm1(np.linspace(math.log1p(seg_lo - lo), math.log1p(hi - lo), n))
        s, ts, u = _bounded_sup(rise, fall, edges)
        if s > best:
            best, t_best = s, ts
        upper = max(upper, u)
        bound = float(tail(hi))
        if bound <= best or hi >= 1e300:
            return best, t_best, max(upper, bound)
        seg_lo, hi = hi, min(2.0 * hi - lo, 1e300)


@dataclass(frozen=True)
class GrowthCertificate:
    """Suprema over y of the two growth ratios of L, each with a proven bound.

    square: sup_{y >= 1} L(y^2)/L(y), attained at y = exp(square_log_y);
    elasticity: sup_{y > 0} y L'(y)/L(y), attained at y = exp(elasticity_log_y).
    The *_upper fields bound the same suprema for every y, not only where
    they were evaluated; the attained values are within 1e-9 of them
    (relative) unless a search reached t = log y = 1e300.
    """
    square: float
    square_log_y: float
    square_upper: float
    elasticity: float
    elasticity_log_y: float
    elasticity_upper: float


def l_growth_certificate(alpha: float, delta: float) -> GrowthCertificate:
    """Certify sup L(y^2)/L(y) and sup y L'(y)/L(y) over all y (beta cancels).

    Square ratio, over t = log y >= 0: L(e^{2t}) rises and 1/L(e^t) falls in
    t, so each grid cell is bounded by its end values and the branch and
    bound search proves the maximum. For y >= 1, y^2 + a <= (y + a)^2, so
    with w2 = loglog(y+a), w3 = logloglog(y+a),
      L(y^2)/L(y) <= 2 (1 + log2/w2) (1 + log1p(log2/w2)/w3)^(1+delta),
    which decreases to 2 and bounds every y past the searched range.

    Elasticity, over all real t: it is y/(y+a) (rising) times
    (1 + 1/w2 + (1+delta)/(w2 w3)) / w1 (falling), with w1 = log(y+a), so
    the same search applies; below t = log a - 50 it is at most e^(t - log a)
    times the falling factor's value at y = 0, and past the searched range at
    most the falling factor.
    """
    if not alpha > math.exp(math.e):
        raise DomainError(f"alpha must exceed e^e so that L is defined on y > 0, got {alpha}")
    _positive(delta, "delta")
    la = math.log(alpha)
    log2 = math.log(2.0)

    def square_tail(t):
        _, w2, w3 = _iterated_logs(t, la)
        return log2 + math.log1p(log2 / w2) + (1.0 + delta) * math.log1p(math.log1p(log2 / w2) / w3)

    sq, sq_t, sq_up = _certified_sup(lambda t: _log_l(2.0 * t, la, delta),
                                     lambda t: -_log_l(t, la, delta),
                                     square_tail, 0.0, max(64.0, 2.0 * la))

    def log_falling(t):
        w1, w2, w3 = _iterated_logs(t, la)
        return np.log1p(1.0 / w2 + (1.0 + delta) / (w2 * w3)) - np.log(w1)

    lo = la - 50.0
    el, el_t, el_up = _certified_sup(lambda t: t - np.logaddexp(t, la), log_falling,
                                     log_falling, lo, la + 64.0)
    el_up = max(el_up, (lo - la) + float(log_falling(-math.inf)))
    return GrowthCertificate(math.exp(sq), sq_t, math.exp(sq_up),
                             math.exp(el), el_t, math.exp(el_up))


def l_growth_violations(cfg: LConfig) -> list[tuple]:
    """List the growth bounds of L that l_growth_certificate cannot prove.

    ("square", y, ratio): L(y^2) <= 3 L(y) is not proven for all y; y is
    where L(y^2)/L(y) peaks and ratio its value there. (For y < 1 the bound
    is immediate, as L is increasing and y^2 < y.)
    ("scale", y, elasticity): L(cy) <= 3c L(y) for all c >= 1, y > 0 is not
    proven. It holds whenever y L'(y)/L(y) <= 1 everywhere, since then
    L(cy)/L(y) <= c; y is where the elasticity peaks.
    An empty list certifies both bounds for every y, not only on a grid.
    """
    cert = l_growth_certificate(cfg.alpha, cfg.delta)
    bad: list[tuple] = []
    if cert.elasticity_upper > 1.0:
        bad.append(("scale", _exp_or_inf(cert.elasticity_log_y), cert.elasticity))
    if cert.square_upper > 3.0:
        bad.append(("square", _exp_or_inf(cert.square_log_y), cert.square))
    return bad


def _exp_or_inf(t: float) -> float:
    return math.exp(t) if t < 709.0 else math.inf


def L_eval(y, cfg: LConfig):
    """L(y) = beta * log(y+a) * loglog(y+a) * (log3(y+a))^(1+delta)."""
    y_arr = np.asarray(y, dtype=float)
    if not np.all(y_arr > 0.0):
        raise DomainError("y must be positive")
    out = cfg.beta * _l_factors(y_arr, cfg.alpha, cfg.delta)
    return float(out) if np.isscalar(y) or out.ndim == 0 else out


def g_eval(x: float) -> float:
    """exp(x^2/2)/x for x >= 1, else 0; overflow returns +inf."""
    if x < 1.0:
        return 0.0
    e = 0.5 * x * x - math.log(x)
    if e > 709.0:
        return math.inf
    return math.exp(e)


def y_w_and_g_phi(w: float, r: float) -> tuple[float, float]:
    """(y_w, g_Phi(w)) for Phi(x) = x^r/r: y_w = w^(1/(r-1)),
    g_Phi(w) = w^(-1/(r-1)) exp{(1 - 1/r) w^(r/(r-1))}."""
    if not w > 0.0:
        raise DomainError(f"w must be positive, got {w}")
    _order(r, "r")
    p = 1.0 / (r - 1.0)
    y_w = w**p
    e = (1.0 - 1.0 / r) * w ** (r * p) - p * math.log(w)
    g = math.inf if e > 709.0 else math.exp(e)
    return y_w, g


def gamma_fn(p: float) -> float:
    """Gamma(p) for 0 < p <= 50 via the C library implementation (Lanczos-class
    accuracy, relative error well under 1e-10 on this range)."""
    if not 0.0 < p <= 50.0:
        raise DomainError(f"p must lie in (0, 50], got {p}")
    return math.gamma(p)
