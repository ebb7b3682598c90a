"""Deterministic evaluators for the explicit tail/moment bounds and the
self-normalized statistics they control. All functions are pure.

Each normalized statistic is one broadcasting numpy expression
(`thm21_normalized`, `cor22_normalized`, `v_normalized`, and A over
`lil_denominator`) that checks nothing, because the Monte Carlo engine
applies it to whole blocks of paths and meets B = 0 there. The public statistics validate their
scalar inputs and evaluate the same expression."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import DomainError, _Checked, _number, _order, _positive, gamma_fn

SQRT2 = math.sqrt(2.0)
DEFAULT_LOG_FLOOR = math.e**2


@dataclass(frozen=True)
class SelfNormSample(_Checked):
    """A numerator/normalizer pair (A, B) with an optional norm order r."""
    a: float
    b: float
    r: float = 2.0
    rules = {"a": _number, "b": _positive, "r": _order}


def thm21_integrand(s: SelfNormSample, y: float) -> float:
    """y/sqrt(B^2+y^2) * exp(A^2 / (2(B^2+y^2))).

    Has mean <= 1 over samples whose exponential moment condition holds for
    all real lambda.
    """
    if not y > 0.0:
        raise DomainError("y must be positive")
    q = s.b * s.b + y * y
    e = 0.5 * s.a * s.a / q + math.log(y) - 0.5 * math.log(q)
    return math.inf if e > 709.0 else math.exp(e)


def mgf_bound(x: float) -> float:
    """sqrt(2) * exp(x^2), the exponential-moment bound."""
    if not x > 0.0:
        raise DomainError("x must be positive")
    return SQRT2 * math.exp(x * x)


def moment_bound_thm21(p: float) -> float:
    """2^(p-1/2) * p * Gamma(p/2), the p-th moment bound for |A|/sqrt(B^2+(EB)^2)."""
    if not p > 0.0:
        raise DomainError("p must be positive")
    return 2.0 ** (p - 0.5) * p * gamma_fn(p / 2.0)


def tail_bound_cor22(x: float) -> float:
    """exp(-x^2/2) for x >= sqrt(2); the trivial bound 1 below the validity region."""
    if x < SQRT2:
        return 1.0
    return math.exp(-0.5 * x * x)


def moment_bound_cor22(p: float) -> float:
    """2^(p/2) + 2^((p-2)/2) * p * Gamma(p/2)."""
    if not p > 0.0:
        raise DomainError("p must be positive")
    return 2.0 ** (p / 2.0) + 2.0 ** ((p - 2.0) / 2.0) * p * gamma_fn(p / 2.0)


def iterated_log(x, floor: float = DEFAULT_LOG_FLOOR):
    """(x v floor, loglog(x v floor)); the floor e^2 keeps the iterated
    logarithm at least log 2."""
    x = np.maximum(x, floor)
    return x, np.log(np.log(x))


def thm21_normalized(a, b_sq, y):
    """|A| / sqrt(B^2 + y), the Thm 2.1 ratio (y = (EB)^2); unchecked."""
    return np.abs(a) / np.sqrt(b_sq + y)


def cor22_normalized(a, b_sq, y):
    """|A| / sqrt((B^2 + y)(1 + log(B^2/y + 1)/2)); unchecked."""
    return np.abs(a) / np.sqrt((b_sq + y) * (1.0 + 0.5 * np.log1p(b_sq / y)))


def lil_denominator(b, r: float = 2.0, floor: float = DEFAULT_LOG_FLOOR):
    """(b v floor) (loglog(b v floor))^((r-1)/r), the normalizer of the lil
    statistic; unchecked. A function of b alone, so the engine
    evaluates it once per step on a deterministic normalizer."""
    bb, ll = iterated_log(b, floor)
    return bb * ll ** ((r - 1.0) / r)


def v_normalized(s, centering, v, floor: float = DEFAULT_LOG_FLOOR):
    """(s - centering) / {(v v floor) (loglog(v v floor))^(1/2)}; unchecked.
    Normalizes by V_n (universal, centering 0 for uncentered) or by a
    deterministic s_n (conditional variance)."""
    vv, ll = iterated_log(v, floor)
    return (s - centering) / (vv * np.sqrt(ll))


def _check_floor(floor: float) -> None:
    if not floor >= math.e**2 - 1e-12:
        raise DomainError("floor must be at least e^2")


def cor22_statistic(s: SelfNormSample, y: float) -> float:
    """|A| / sqrt((B^2 + y)(1 + log(B^2/y + 1)/2)); tail controlled by
    tail_bound_cor22. Invariant under (a, b, sqrt(y)) -> (ta, tb, t*sqrt(y))."""
    if not y > 0.0:
        raise DomainError("y must be positive")
    return float(cor22_normalized(s.a, s.b * s.b, y))


def lil_statistic(a: float, b: float, r: float = 2.0,
                  floor: float = DEFAULT_LOG_FLOOR) -> float:
    """a / {(b v floor) * (loglog(b v floor))^((r-1)/r)} with an iterated-log floor."""
    _check_floor(floor)
    if not b > 0.0:
        raise DomainError("b must be positive")
    _order(r, "r")
    return float(a / lil_denominator(b, r, floor))


def universal_statistic(s_n: float, truncated_mean_sum: float, v_n: float,
                        floor: float = DEFAULT_LOG_FLOOR) -> float:
    """(S_n - centering) / {(V_n v floor) * (loglog(V_n v floor))^(1/2)}.

    The almost-sure limsup of this statistic is b_lambda when the centering is
    the running truncated-mean sum at levels (-lam*v_n, a_lam*v_n).
    """
    _check_floor(floor)
    if not v_n > 0.0:
        raise DomainError("v_n must be positive")
    return float(v_normalized(s_n, truncated_mean_sum, v_n, floor))
