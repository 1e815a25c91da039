"""Closed-form collar geometry for curvature -1 surfaces.

Every function here is a pure map on positive reals.  Lengths are measured
along geodesics, areas in the hyperbolic metric, and ``eps`` always denotes
a Margulis-type thinness parameter in (0, arcsinh(1)).  A geodesic of length
``l`` is called eps-thin when l < 2*eps.

Out-of-domain input raises :class:`DomainError`; no function returns NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "ARCSINH_ONE",
    "DomainError",
    "CuspCollar",
    "NetBuildParams",
    "check_margulis",
    "check_delta",
    "collar_width",
    "thin_half_width",
    "thin_boundary_length",
    "thin_collar_area",
    "cusp_collar",
    "delta1",
]

ARCSINH_ONE = math.asinh(1.0)

# Below this offset, acosh(1+t) loses half its digits to cancellation and we
# switch to the series branch.
_ACOSH_SERIES_CUTOFF = 1e-8


class DomainError(ValueError):
    """Raised when an argument leaves the geometric domain of a formula."""


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _require_positive(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value <= 0.0:
        raise DomainError(f"{name} must be positive, got {value!r}")
    return value


def _acosh_stable(x: float) -> float:
    """acosh with a series branch near 1: acosh(1+t) = sqrt(2t)(1 - t/12 + ...)."""
    t = x - 1.0
    if t < 0.0:
        # Tolerate rounding dust just below 1; anything worse is a caller bug.
        if t > -1e-12:
            return 0.0
        raise DomainError(f"acosh argument below 1: {x!r}")
    if t < _ACOSH_SERIES_CUTOFF:
        return math.sqrt(2.0 * t) * (1.0 - t / 12.0 + 3.0 * t * t / 160.0)
    return math.acosh(x)


def check_margulis(eps: float) -> float:
    """Validate 0 < eps < arcsinh(1) and return eps as a float."""
    eps = _require_finite("eps", eps)
    if not 0.0 < eps < ARCSINH_ONE:
        raise DomainError(
            f"eps must lie in (0, arcsinh(1)) = (0, {ARCSINH_ONE!r}), got {eps!r}"
        )
    return eps


def check_delta(eps: float, delta: float) -> float:
    """Validate eps and 0 < delta < delta1(eps); return delta."""
    bound = delta1(eps)
    if not 0.0 < delta < bound:
        raise DomainError(f"delta must lie in (0, delta1(eps)) = (0, {bound!r}), got {delta!r}")
    return delta


@dataclass(frozen=True)
class NetBuildParams:
    """Thinness eps and net scale delta, checked by check_delta when built."""

    eps: float
    delta: float

    def __post_init__(self):
        check_delta(self.eps, self.delta)

    @property
    def density(self) -> float:
        return 1.0 / self.delta


def collar_width(l: float) -> float:
    """Half-width arccosh(coth(l/2)) of the standard collar around a closed
    geodesic of length l.  Strictly decreasing in l."""
    l = _require_positive("l", l)
    th = math.tanh(0.5 * l)
    return _acosh_stable(1.0 / th)


def _check_thin(l: float, eps: float) -> tuple[float, float]:
    """l and eps, checked for an eps-thin collar of core length l:
    eps a Margulis scale, l positive and l <= 2*eps."""
    eps = check_margulis(eps)
    l = _require_positive("l", l)
    if l > 2.0 * eps:
        raise DomainError(f"need l <= 2*eps for a thin collar, got l={l!r}, eps={eps!r}")
    return l, eps


def thin_half_width(l: float, eps: float) -> float:
    """Half-width arccosh(sinh(eps)/sinh(l/2)) of the eps-thin collar.

    Defined for 0 < l <= 2*eps; equals 0 at l = 2*eps and is smaller than
    collar_width(l) on the open range.
    """
    l, eps = _check_thin(l, eps)
    ratio = math.sinh(eps) / math.sinh(0.5 * l)
    if ratio < 1.0:
        # l == 2*eps up to rounding; the exact value is 1.
        ratio = 1.0
    return _acosh_stable(ratio)


def thin_boundary_length(l: float, eps: float) -> float:
    """Length l*sinh(eps)/sinh(l/2) of either boundary curve of the eps-thin
    collar.  Bounded above by 2*sinh(eps) < 2 and increasing toward that bound
    as l -> 0+."""
    l, eps = _check_thin(l, eps)
    return l * math.sinh(eps) / math.sinh(0.5 * l)


def thin_collar_area(l: float, eps: float) -> float:
    """Area (2l/sinh(l/2)) * sqrt(sinh(eps)^2 - sinh(l/2)^2) of the eps-thin
    collar; identical to 2*l*sinh(thin_half_width(l, eps))."""
    l, eps = _check_thin(l, eps)
    s = math.sinh(0.5 * l)
    gap = math.sinh(eps) ** 2 - s * s
    if gap < 0.0:
        gap = 0.0
    return (2.0 * l / s) * math.sqrt(gap)


class CuspCollar(NamedTuple):
    """Horocyclic cusp collar: boundary length and area both equal lam < 2."""

    lam: float

    @property
    def boundary_length(self) -> float:
        return self.lam

    @property
    def area(self) -> float:
        return self.lam


def cusp_collar(eps: float) -> CuspCollar:
    """Cusp collar with boundary horocycle of length lam = 2*sinh(eps)."""
    eps = check_margulis(eps)
    return CuspCollar(lam=2.0 * math.sinh(eps))


def delta1(eps: float) -> float:
    """Net scale min(ln(1/sinh(eps)), arcsinh((sqrt(3)/4)*sinh(eps))).

    Always smaller than eps; net constructions require delta < delta1(eps).
    """
    eps = check_margulis(eps)
    return min(-math.log(math.sinh(eps)), math.asinh(math.sqrt(3.0) / 4.0 * math.sinh(eps)))
