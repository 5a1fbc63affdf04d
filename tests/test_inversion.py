"""Group inversion: closed-form map, differential, contact identities.

The Jacobian entries were derived symbolically (tests/oracles/
inversion_differential.py); here they are cross-checked numerically with
complex-step differentiation, which is exact to machine precision and
fully independent of the closed forms under test.
"""

import math

import numpy as np
import pytest

import crflow.inversion as inversion
from crflow.invariants import _wide_panel
from crflow.inversion import (
    HeisenbergPoint,
    InversionDomainError,
    contact_coefficients,
    double_invert,
    invert,
    jacobian,
    jacobian_det,
    pullback_residual,
    sample_points,
    wnorm,
)


# ---------------------------------------------------------------------------
# points


def test_point_accessors():
    # coordinates are stored as Python floats, whatever number type built them
    p = HeisenbergPoint(3, 2, np.float32(0.0))
    assert all(type(c) is float for c in (p.t, p.x, p.y))
    assert p.z == complex(2.0, 0.0)
    assert p.zsq == 4.0
    assert p.w == complex(3.0, 4.0)
    assert wnorm(p) == 5.0


def test_point_rejects_non_finite_coordinates():
    with pytest.raises(ValueError):
        HeisenbergPoint(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        HeisenbergPoint(0.0, float("inf"), 0.0)


def test_origin_detection():
    assert HeisenbergPoint(0.0, 0.0, 0.0).is_origin()
    assert not HeisenbergPoint(1e-300, 0.0, 0.0).is_origin()


# ---------------------------------------------------------------------------
# the map on landmark points


def test_invert_pure_time_point():
    q = invert(HeisenbergPoint(1.0, 0.0, 0.0))
    assert (q.t, q.x, q.y) == (-1.0, 0.0, 0.0)


def test_invert_pure_space_point():
    # t=0, z=i: |z|^2 = 1 so w = i and z' = z/w = i/i = 1
    q = invert(HeisenbergPoint(0.0, 0.0, 1.0))
    assert q.t == 0.0
    assert q.x == pytest.approx(1.0, rel=1e-15, abs=0)
    assert q.y == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize(
    "func", [invert, double_invert, jacobian, jacobian_det, pullback_residual]
)
def test_origin_is_excluded(func):
    with pytest.raises(InversionDomainError, match="^the inversion is undefined at the origin$"):
        func(HeisenbergPoint(0.0, 0.0, 0.0))


# points just past each edge of the gauge range, then points whose squares
# under- or overflow in the formulas: a division by zero, a determinant
# that is NaN, 0 or inf
OUT_OF_RANGE = [(math.nextafter(2.0 ** -255, 0.0), 0.0, 0.0),
                (math.nextafter(2.0 ** 255, math.inf), 0.0, 0.0),
                (1e-320, 0.0, 0.0), (0.0, 1e-170, 0.0), (0.0, 1e200, 0.0),
                (1e100, 0.0, 0.0), (1e308, 1e308, 1e308), (1e-80, 0.0, 0.0)]


@pytest.mark.parametrize(
    "func", [invert, double_invert, jacobian, jacobian_det, pullback_residual]
)
def test_gauges_outside_the_range_are_excluded(func):
    for t, x, y in OUT_OF_RANGE:
        with pytest.raises(InversionDomainError, match=r"2\*\*-255 <= \|w\| <= 2\*\*255"):
            func(HeisenbergPoint(t, x, y))


@pytest.mark.parametrize("edge", [2.0 ** -255, 2.0 ** 255], ids=["low", "high"])
def test_the_gauge_range_edges_are_evaluated(edge):
    # on the t axis at the edge itself, and at six angles 2**-40 inside it
    # (rounding can put an image of an edge point a few ulps outside): no
    # warning, an error under the suite's filter, and the closed forms hold
    inside = edge * (1.0 + 2.0 ** -40 if edge < 1.0 else 1.0 - 2.0 ** -40)
    points = [HeisenbergPoint(edge, 0.0, 0.0), HeisenbergPoint(-edge, 0.0, 0.0)]
    points += sample_points(6, wnorm_min=inside, wnorm_max=inside, seed=17)
    for p in points:
        assert jacobian_det(p) == pytest.approx(wnorm(p) ** -4, rel=1e-12, abs=0)
        back = double_invert(p)
        scale = max(abs(p.t), abs(p.x), abs(p.y))
        assert max(abs(back.t - p.t), abs(back.x + p.x), abs(back.y + p.y)) <= 1e-12 * scale
        target = np.max(np.abs(contact_coefficients(p))) / wnorm(p) ** 2
        assert pullback_residual(p) <= 1e-12 * target


# ---------------------------------------------------------------------------
# differential: independent numerical cross-check


def _complex_step_jacobian(p: HeisenbergPoint, h: float = 1e-30) -> np.ndarray:
    """Machine-exact derivative via f(x + ih).imag / h, no closed forms."""

    def components(t, x, y):
        s = x * x + y * y
        q = t * t + s * s
        big_t = -t / q
        big_x = (x * t + y * s) / q
        big_y = (y * t - x * s) / q
        return big_t, big_x, big_y

    cols = []
    base = (p.t, p.x, p.y)
    for k in range(3):
        args = list(map(complex, base))
        args[k] += 1j * h
        cols.append([val.imag / h for val in components(*args)])
    return np.array(cols).T


def test_jacobian_matches_complex_step():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        t, x, y = rng.uniform(-2.0, 2.0, size=3)
        p = HeisenbergPoint(t, x, y)
        if wnorm(p) < 0.05:
            continue
        closed = jacobian(p)
        numeric = _complex_step_jacobian(p)
        scale = np.max(np.abs(numeric)) or 1.0
        worst = max(worst, float(np.max(np.abs(closed - numeric))) / scale)
    assert worst <= 1e-13


def test_determinant_closed_form():
    for p in sample_points(100, wnorm_min=1e-3, wnorm_max=1e3, seed=11):
        det = jacobian_det(p)
        q = wnorm(p) ** 2
        assert det > 0.0
        assert det == pytest.approx(q**-2, rel=1e-12, abs=0)


def test_a_broken_differential_fails_the_determinant_and_the_pullback(monkeypatch):
    # the closed form |w|^-4 is positive, so only a broken differential
    # gives det <= 0, and jacobian_det refuses it.  At p = (1, 0, 0) this
    # one pulls theta_0 back to (-1, 0, 0) against the target (1, 0, 0):
    # the residual is the largest component of the difference
    monkeypatch.setattr(inversion, "jacobian", lambda p: np.diag([-1.0, 1.0, 1.0]))
    p = HeisenbergPoint(1.0, 0.0, 0.0)
    with pytest.raises(ArithmeticError, match="orientation"):
        jacobian_det(p)
    assert pullback_residual(p) == 2.0


# ---------------------------------------------------------------------------
# contact form


def test_contact_coefficients_ordering():
    p = HeisenbergPoint(0.3, 0.5, -0.7)
    np.testing.assert_allclose(contact_coefficients(p), [1.0, 1.4, 1.0])


def test_pullback_identity_on_a_landmark_point():
    assert pullback_residual(HeisenbergPoint(1.0, 0.0, 0.0)) <= 1e-12


def test_pullback_identity_near_the_origin():
    # relative accuracy survives tiny |w|: residual / |w|^{-2} stays small
    for p in sample_points(20, wnorm_min=1e-8, wnorm_max=1e-7, seed=9):
        rel = pullback_residual(p) * wnorm(p) ** 2
        assert rel <= 1e-6


# ---------------------------------------------------------------------------
# global structure


def test_sample_points_validation():
    with pytest.raises(ValueError):
        sample_points(0, 0.1, 10.0, 1)
    with pytest.raises(ValueError):
        sample_points(10, 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        sample_points(10, 2.0, 1.0, 1)


def test_sample_points_is_deterministic_and_in_range():
    a = sample_points(50, wnorm_min=0.5, wnorm_max=2.0, seed=29)
    b = sample_points(50, wnorm_min=0.5, wnorm_max=2.0, seed=29)
    assert [(p.t, p.x, p.y) for p in a] == [(p.t, p.x, p.y) for p in b]
    for p in a:
        assert 0.5 * (1.0 - 1e-12) <= wnorm(p) <= 2.0 * (1.0 + 1e-12)
    # the registry's wide panel, 1e-3..1e3, reaches both end decades and
    # holds points on both sides of t = 0 and of y = 0
    wide = _wide_panel()
    assert min(map(wnorm, wide)) < 1e-2 and max(map(wnorm, wide)) > 1e2
    for coordinate in ("t", "y"):
        values = [getattr(p, coordinate) for p in wide]
        assert min(values) < 0.0 < max(values)
