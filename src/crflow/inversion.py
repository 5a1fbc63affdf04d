"""Exact inversion map on the punctured Heisenberg group.

The model space is ``R^3`` with coordinates ``(t, x, y)``, complex horizontal
coordinate ``z = x + iy``, and contact form

    ``theta_0 = dt - 2y dx + 2x dy``.

Packaging ``w = t + i|z|^2`` into a single complex number, the inversion

    ``I(t, z) = (-t / |w|^2, z / w)``

is a well-defined automorphism of the punctured group (it is singular only at
the origin, where ``w = 0``).  The functions here evaluate it on the gauges
``2**-255 <= |w| <= 2**255``, a range that ``w -> -1/w`` maps onto itself;
past it a square in the formulas (``q = |w|^2``, ``q^2``) under- or
overflows, so the origin and every point outside raise
``InversionDomainError``.  At an edge, rounding can put an image a few ulps
outside, and inverting that image is refused too.  It satisfies these
closed-form identities, which the ``inversion`` entries of
``crflow.invariants`` check:

* ``w(I(p)) = -1/w(p)``, so spheres ``|w| = r`` and ``|w| = 1/r`` swap;
* ``I circ I = (t, -z)``;
* ``I`` pulls ``theta_0`` back to ``|w|^{-2} theta_0``;
* the differential of ``I`` has determinant ``|w|^{-4} > 0`` (orientation
  preserving).

The differential is evaluated by closed-form partial derivatives (quotient
rule on the three coordinate formulas); an independent complex-step
cross-check lives in the test suite.  All functions are pure and stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HeisenbergPoint",
    "InversionDomainError",
    "contact_coefficients",
    "double_invert",
    "invert",
    "jacobian",
    "jacobian_det",
    "pullback_residual",
    "sample_points",
    "wnorm",
]


class InversionDomainError(ValueError):
    """Raised when the inversion is evaluated at the origin, its singular
    point, or at a gauge |w| outside [2**-255, 2**255]."""


@dataclass(frozen=True)
class HeisenbergPoint:
    """A point ``(t, z)`` of the Heisenberg group, ``z = x + iy``.

    The derived coordinate ``w = t + i|z|^2`` vanishes exactly at the origin,
    which is the one point excluded from the inversion's domain.
    """

    t: float
    x: float
    y: float

    def __post_init__(self) -> None:
        for name in ("t", "x", "y"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"coordinate {name!r} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)

    @property
    def zsq(self) -> float:
        """``|z|^2``, the squared horizontal radius."""
        return self.x * self.x + self.y * self.y

    @property
    def w(self) -> complex:
        return complex(self.t, self.zsq)

    def is_origin(self) -> bool:
        return self.t == 0.0 and self.x == 0.0 and self.y == 0.0


def _require_in_domain(p: HeisenbergPoint) -> None:
    """Refuse the origin, and a point whose |w|^2 = t^2 + |z|^4 lies
    outside [2**-510, 2**510]."""
    if p.is_origin():
        raise InversionDomainError("the inversion is undefined at the origin")
    if not 2.0 ** -510 <= p.t * p.t + p.zsq * p.zsq <= 2.0 ** 510:
        raise InversionDomainError("the inversion is evaluated only at gauges 2**-255"
                                   f" <= |w| <= 2**255, got |w| = {wnorm(p)!r}")


def wnorm(p: HeisenbergPoint) -> float:
    """``|w| = |t + i|z|^2|``, the anisotropic gauge of ``p``."""
    return math.hypot(p.t, p.zsq)


def invert(p: HeisenbergPoint) -> HeisenbergPoint:
    """Evaluate ``I(t, z) = (-t/|w|^2, z/w)``; the origin is excluded."""
    _require_in_domain(p)
    q = p.t * p.t + p.zsq * p.zsq
    zp = p.z / p.w
    return HeisenbergPoint(-p.t / q, zp.real, zp.imag)


def double_invert(p: HeisenbergPoint) -> HeisenbergPoint:
    """``I(I(p))``; algebraically equal to ``(t, -z)``."""
    return invert(invert(p))


def contact_coefficients(p: HeisenbergPoint) -> np.ndarray:
    """Components of ``theta_0 = dt - 2y dx + 2x dy`` in the frame (dt, dx, dy)."""
    return np.array([1.0, -2.0 * p.y, 2.0 * p.x])


def jacobian(p: HeisenbergPoint) -> np.ndarray:
    """Closed-form differential of the inversion at ``p``.

    Rows are the image coordinates ``(T, X, Y)``, columns the derivatives
    with respect to ``(t, x, y)``.  Writing ``s = |z|^2``, ``q = t^2 + s^2``,
    the image is ``T = -t/q``, ``X = (x t + y s)/q``, ``Y = (y t - x s)/q``
    and each entry below is the quotient rule applied to those formulas.
    """
    _require_in_domain(p)
    t, x, y = p.t, p.x, p.y
    s = p.zsq
    q = t * t + s * s
    q2 = q * q
    nx = x * t + y * s
    ny = y * t - x * s
    return np.array(
        [
            [
                (t * t - s * s) / q2,
                4.0 * t * x * s / q2,
                4.0 * t * y * s / q2,
            ],
            [
                (x * q - 2.0 * t * nx) / q2,
                ((t + 2.0 * x * y) * q - 4.0 * x * s * nx) / q2,
                ((s + 2.0 * y * y) * q - 4.0 * y * s * nx) / q2,
            ],
            [
                (y * q - 2.0 * t * ny) / q2,
                (-(s + 2.0 * x * x) * q - 4.0 * x * s * ny) / q2,
                ((t - 2.0 * x * y) * q - 4.0 * y * s * ny) / q2,
            ],
        ]
    )


def jacobian_det(p: HeisenbergPoint) -> float:
    """Determinant of the differential; asserts orientation preservation.

    The closed-form value is ``|w|^{-4}``, so a non-positive result can only
    come from a broken derivative formula and is treated as an error.
    """
    det = float(np.linalg.det(jacobian(p)))
    if not det > 0.0:
        raise ArithmeticError(
            f"inversion differential must preserve orientation; det={det!r} at {p}"
        )
    return det


def pullback_residual(p: HeisenbergPoint) -> float:
    """Max-abs component of ``(I* theta_0)_p - |w|^{-2} (theta_0)_p``.

    The pullback is assembled from the closed-form differential: component
    ``b`` of ``I* theta_0`` at ``p`` is ``sum_a theta_a(I(p)) dI_a/dp_b``.
    The returned residual is absolute; near the origin the comparison scale
    grows like ``|w|^{-2}``, so relative statements should divide by it.
    """
    _require_in_domain(p)
    pulled = jacobian(p).T @ contact_coefficients(invert(p))
    q = p.t * p.t + p.zsq * p.zsq
    target = contact_coefficients(p) / q
    return float(np.max(np.abs(pulled - target)))


def _point_with_gauge(r: float, rng: np.random.Generator) -> HeisenbergPoint:
    """A random point with ``wnorm`` equal to ``r`` (up to rounding)."""
    phi = rng.uniform(0.0, math.pi)
    t = r * math.cos(phi)
    s = r * math.sin(phi)
    psi = rng.uniform(0.0, 2.0 * math.pi)
    rho = math.sqrt(s)
    return HeisenbergPoint(t, rho * math.cos(psi), rho * math.sin(psi))


def sample_points(n: int, wnorm_min: float, wnorm_max: float, seed: int) -> list:
    """``n`` random points with gauge log-uniform in ``[wnorm_min, wnorm_max]``;
    equal bounds sample the gauge sphere ``|w| = wnorm_min``."""
    if n < 1:
        raise ValueError("need at least one sample point")
    if not (0.0 < wnorm_min <= wnorm_max):
        raise ValueError("need 0 < wnorm_min <= wnorm_max")
    rng = np.random.default_rng(seed)
    ratio = wnorm_max / wnorm_min
    return [
        _point_with_gauge(wnorm_min * ratio ** rng.uniform(), rng) for _ in range(n)
    ]
