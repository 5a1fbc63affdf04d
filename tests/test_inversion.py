"""Group inversion: closed-form map, differential, contact identities.

The Jacobian entries were derived symbolically (tests/oracles/
inversion_differential.py); here they are cross-checked numerically with
complex-step differentiation, which is exact to machine precision and
fully independent of the closed forms under test.
"""

import cmath
import math

import numpy as np
import pytest

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
    p = HeisenbergPoint(3.0, 2.0, 0.0)
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


def test_double_inversion_is_the_flip():
    # I o I = (t, z) -> (t, -z) on exact-arithmetic-friendly points
    q = double_invert(HeisenbergPoint(0.0, 0.0, 1.0))
    assert q.t == pytest.approx(0.0, abs=1e-15)
    assert q.x == pytest.approx(0.0, abs=1e-15)
    assert q.y == pytest.approx(-1.0, rel=1e-14, abs=0)


@pytest.mark.parametrize(
    "func", [invert, double_invert, jacobian, jacobian_det, pullback_residual]
)
def test_origin_is_excluded(func):
    with pytest.raises(InversionDomainError):
        func(HeisenbergPoint(0.0, 0.0, 0.0))


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


def test_determinant_scales_with_the_inverse_fourth_power():
    # log-log slope of det against wnorm across six decades
    radii = np.logspace(-3, 3, 25)
    rng = np.random.default_rng(5)
    logs_r, logs_d = [], []
    for r in radii:
        phi = rng.uniform(0.0, math.pi)
        psi = rng.uniform(0.0, 2.0 * math.pi)
        s = r * math.sin(phi)
        z = cmath.rect(math.sqrt(s), psi)
        p = HeisenbergPoint(r * math.cos(phi), z.real, z.imag)
        logs_r.append(math.log(wnorm(p)))
        logs_d.append(math.log(jacobian_det(p)))
    slope = np.polyfit(logs_r, logs_d, 1)[0]
    assert slope == pytest.approx(-4.0, abs=0.01)


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


def test_wnorm_reciprocal():
    for p in sample_points(100, wnorm_min=1e-3, wnorm_max=1e3, seed=19):
        assert wnorm(invert(p)) * wnorm(p) == pytest.approx(1.0, rel=1e-12)


def test_sample_points_validation():
    with pytest.raises(ValueError):
        sample_points(0)
    with pytest.raises(ValueError):
        sample_points(10, wnorm_min=-1.0)
    with pytest.raises(ValueError):
        sample_points(10, wnorm_min=2.0, wnorm_max=1.0)


def test_sample_points_is_deterministic_and_in_range():
    a = sample_points(50, wnorm_min=0.5, wnorm_max=2.0, seed=29)
    b = sample_points(50, wnorm_min=0.5, wnorm_max=2.0, seed=29)
    assert [(p.t, p.x, p.y) for p in a] == [(p.t, p.x, p.y) for p in b]
    for p in a:
        assert 0.5 * (1.0 - 1e-12) <= wnorm(p) <= 2.0 * (1.0 + 1e-12)
