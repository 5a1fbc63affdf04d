"""Stencil operators: symbols, adjointness, curvature, calibration, solver."""

import math

import numpy as np
import pytest

from crflow import (
    CalibrationError,
    GeometryError,
    LinearSolveError,
    ScalarField,
    auto_dt,
    build_geometry,
    calibrate_sphere_curvature,
    conformal_sublap,
    extremal_profile,
    integrate,
    linear_solve,
    stability_symbol_max,
    sublap,
    webster_curvature,
    webster_pointwise,
    yamabe_apply,
)
from crflow.conventions import (
    C_STAB,
    HEISENBERG_HORIZONTAL_FACTOR,
    SPHERE_CS,
    YAMABE_COEFFICIENT,
)
from crflow.operators import _div_form_values, shifted_bilap_inverse


def sector(n=16, periods=(1.0, 1.0)):
    return build_geometry(
        {"kind": "HeisenbergSector2D", "resolution": [n, n], "periods": list(periods)}
    )


def sphere(n=64):
    return build_geometry(
        {"kind": "SphereReduced1D", "resolution": [n], "periods": [1.0]}
    )


def lattice():
    return build_geometry(
        {
            "kind": "HeisenbergLattice3D",
            "resolution": [8, 8, 16],
            "periods": [1.0, 1.0, 1.0],
        }
    )


def rand_field(geom, seed, amplitude=1.0):
    rng = np.random.default_rng(seed)
    return ScalarField(geom, amplitude * rng.standard_normal(geom.resolution))


def dot_weighted(geom, f, g, lam=None):
    w = np.ones(geom.resolution) if lam is None else np.exp(4.0 * lam)
    return float(integrate(ScalarField(geom, f * g * w)))


# ---------------------------------------------------------------------------
# plain stencil


@pytest.mark.parametrize("k", [1, 2, 5])
def test_sector_symbol_matches_discrete_dispersion(k):
    # one-axis cosine modes are exact eigenvectors; their eigenvalue is the
    # half-weighted five-point symbol 0.5 * (4/dx^2) * sin^2(pi k dx)
    n = 32
    geom = sector(n)
    dx = geom.spacing[0]
    xs = geom.axes()[0]
    mode = np.cos(2.0 * np.pi * k * xs)[:, None] * np.ones((1, n))
    out = sublap(ScalarField(geom, mode)).values
    sigma = 0.5 * (4.0 / dx**2) * math.sin(math.pi * k * dx) ** 2
    assert np.max(np.abs(out - sigma * mode)) <= 1e-9 * sigma


def test_sphere_stencil_exact_on_linear_profiles():
    geom = sphere(64)
    s = geom.axes()[0]
    out = sublap(ScalarField(geom, s)).values
    c_s = SPHERE_CS
    expected = -c_s * (1.0 - 2.0 * s)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


def test_sphere_stencil_quadratic_defect_is_the_exact_grid_term():
    # on f = s^2 the flux rule is exact for the smooth part and leaves the
    # uniform second-difference remainder c_s * ds^2 / 2 = 4 / n^2
    n = 64
    geom = sphere(n)
    s = geom.axes()[0]
    out = sublap(ScalarField(geom, s**2)).values
    continuum = -SPHERE_CS * (4.0 * s - 6.0 * s**2)
    defect = out - continuum
    np.testing.assert_allclose(defect, 4.0 / n**2, rtol=1e-10)


@pytest.mark.parametrize("make", [sector, sphere, lattice])
def test_self_adjointness_unweighted(make):
    geom = make()
    f = rand_field(geom, 1)
    g = rand_field(geom, 2)
    lf = sublap(f).values
    lg = sublap(g).values
    lhs = dot_weighted(geom, lf, g.values)
    rhs = dot_weighted(geom, f.values, lg)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("make", [sector, sphere, lattice])
def test_positivity_and_constants(make):
    geom = make()
    f = rand_field(geom, 3)
    assert dot_weighted(geom, sublap(f).values, f.values) > 0.0
    const = ScalarField(geom, np.full(geom.resolution, 1.37))
    assert np.all(sublap(const).values == 0.0)


def test_sublap_rejects_non_finite_input():
    geom = sector(8)
    values = np.zeros((8, 8))
    values[1, 1] = np.nan
    with pytest.raises(ValueError):
        sublap(ScalarField(geom, values))


# ---------------------------------------------------------------------------
# weighted stencil


@pytest.mark.parametrize("make", [sector, sphere, lattice])
def test_conformal_sublap_weighted_self_adjoint(make):
    geom = make()
    lam = rand_field(geom, 4, amplitude=0.2)
    f = rand_field(geom, 5)
    g = rand_field(geom, 6)
    lf = conformal_sublap(lam, f).values
    lg = conformal_sublap(lam, g).values
    lhs = dot_weighted(geom, lf, g.values, lam.values)
    rhs = dot_weighted(geom, f.values, lg, lam.values)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("make", [sector, sphere, lattice])
def test_conformal_sublap_image_has_weighted_mean_zero(make):
    geom = make()
    lam = rand_field(geom, 7, amplitude=0.2)
    f = rand_field(geom, 8)
    image = conformal_sublap(lam, f).values
    total = dot_weighted(geom, image, np.ones(geom.resolution), lam.values)
    norm = dot_weighted(geom, np.abs(image), np.ones(geom.resolution), lam.values)
    assert abs(total) <= 1e-12 * norm


def test_conformal_sublap_at_zero_exponent_is_the_plain_stencil():
    geom = sector(16)
    f = rand_field(geom, 9)
    zero = ScalarField(geom, np.zeros(geom.resolution))
    np.testing.assert_array_equal(
        conformal_sublap(zero, f).values, sublap(f).values
    )


def test_conformal_sublap_annihilates_constants_exactly():
    geom = sector(16)
    lam = rand_field(geom, 10, amplitude=0.3)
    const = ScalarField(geom, np.full(geom.resolution, -0.8))
    assert np.all(conformal_sublap(lam, const).values == 0.0)


# ---------------------------------------------------------------------------
# flux form against the three-point formulas


def three_point_div_form(geom, v, g=None):
    """The stencil as first written: both neighbour differences per cell,
    face weights from both sides, ``np.diff`` on the sphere."""
    if geom.kind == "SphereReduced1D":
        n, ds = geom.resolution[0], geom.spacing[0]
        faces = np.arange(n + 1) / n
        mu = faces * (1.0 - faces)
        d = np.diff(v)
        if g is not None:
            d = (0.5 * (g[1:] + g[:-1])) * d
        flux = np.zeros(n + 1)
        flux[1:-1] = mu[1:-1] * d / ds
        return -SPHERE_CS * np.diff(flux) / ds
    acc = np.zeros_like(v)
    for axis in (0, 1):
        d = geom.spacing[axis]
        fp = geom.shift(v, axis, 1)
        fm = geom.shift(v, axis, -1)
        if g is None:
            acc += ((fp - v) - (v - fm)) / (d * d)
        else:
            wp = 0.5 * (g + geom.shift(g, axis, 1))
            wm = 0.5 * (g + geom.shift(g, axis, -1))
            acc += (wp * (fp - v) - wm * (v - fm)) / (d * d)
    return -HEISENBERG_HORIZONTAL_FACTOR * acc


STENCIL_GEOMETRIES = {
    "sector12x20": {"kind": "HeisenbergSector2D", "resolution": [12, 20]},
    "sector7x9": {"kind": "HeisenbergSector2D", "resolution": [7, 9]},
    "lattice8x8x16": {"kind": "HeisenbergLattice3D", "resolution": [8, 8, 16],
                      "periods": [1.0, 1.0, 1.0]},
    "lattice16x16x32": {"kind": "HeisenbergLattice3D", "resolution": [16, 16, 32],
                        "periods": [1.0, 1.0, 0.5]},
    "sphere64": {"kind": "SphereReduced1D", "resolution": [64]},
}


@pytest.mark.parametrize("name", list(STENCIL_GEOMETRIES))
def test_flux_form_stencil_is_bitwise_the_three_point_stencil(name):
    geom = build_geometry(STENCIL_GEOMETRIES[name])
    v = rand_field(geom, 21).values
    g = np.exp(2.0 * rand_field(geom, 22, amplitude=0.3).values)
    for weight in (None, g):
        assert np.array_equal(_div_form_values(geom, v, weight),
                              three_point_div_form(geom, v, weight))
    if geom.kind == "HeisenbergLattice3D":
        # the flux form reads e[S^-1 p]: the -1 gather must invert the +1
        cells = np.arange(v.size).reshape(geom.resolution)
        for axis in (0, 1, 2):
            there = geom.shift(cells, axis, 1)
            assert np.array_equal(geom.shift(there, axis, -1), cells)
            assert np.array_equal(geom.shift(geom.shift(cells, axis, -1), axis, 1),
                                  cells)


# ---------------------------------------------------------------------------
# curvature


@pytest.mark.parametrize("make", [sector, sphere, lattice])
def test_constant_state_curvature_is_exactly_scaled_background(make):
    geom = make()
    for c in (0.0, 0.3, -0.6):
        lam = ScalarField(geom, np.full(geom.resolution, c))
        w = webster_curvature(lam).values
        expected = math.exp(-2.0 * c) * geom.background_curvature
        assert np.all(w == expected)


def test_webster_curvature_rejects_non_finite():
    geom = sector(8)
    values = np.full((8, 8), np.inf)
    with pytest.raises(ValueError):
        webster_curvature(ScalarField(geom, values))


def test_webster_pointwise_flat_profile_vanishes():
    flat = lambda t, x, y: 1.0
    for p in [(0.0, 0.0, 0.0), (0.5, -0.2, 0.3)]:
        assert abs(webster_pointwise(flat, p, 0.05)) <= 1e-10


def test_webster_pointwise_refines_at_second_order():
    p = (0.3, 0.1, -0.2)
    w_h = webster_pointwise(extremal_profile, p, 0.04)
    w_h2 = webster_pointwise(extremal_profile, p, 0.02)
    rich = (4.0 * w_h2 - w_h) / 3.0
    # the Richardson value is an order better than either sample
    assert abs(w_h - rich) / abs(rich) > 3.0 * abs(w_h2 - rich) / abs(rich)


def test_webster_pointwise_rejects_nonpositive_profiles():
    dips = lambda t, x, y: t  # changes sign near the sample path
    with pytest.raises(ValueError):
        webster_pointwise(dips, (0.0, 0.0, 0.0), 0.05)


def test_extremal_profile_closed_form():
    assert extremal_profile(0.0, 0.0, 0.0) == pytest.approx(1.0)
    assert extremal_profile(1.0, 0.0, 0.0) == pytest.approx(1.0 / math.sqrt(2.0))
    assert extremal_profile(0.0, 1.0, 0.0) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# calibration


def test_calibration_is_deterministic_and_constant():
    details = {}
    value = calibrate_sphere_curvature(details=details)
    again = calibrate_sphere_curvature()
    assert value == again
    assert value > 0.0
    assert details["n_points"] >= 100
    assert details["rel_std"] <= 1e-3


def test_calibration_flat_profile_reads_zero():
    flat = lambda t, x, y: 1.0
    assert abs(calibrate_sphere_curvature(candidate=flat, n_points=32)) <= 1e-9


def test_calibration_scales_as_minus_two_conformal_weights():
    base = calibrate_sphere_curvature()
    c = 0.25
    scaled = lambda t, x, y: math.exp(c) * extremal_profile(t, x, y)
    value = calibrate_sphere_curvature(candidate=scaled, n_points=64)
    assert value == pytest.approx(math.exp(-2.0 * c) * base, rel=1e-6)


def test_calibration_rejects_non_constant_candidates():
    warped = lambda t, x, y: extremal_profile(t, x, y) * (1.0 + 0.05 * math.tanh(t))
    with pytest.raises(CalibrationError):
        calibrate_sphere_curvature(candidate=warped, n_points=64)


def test_sphere_geometry_carries_the_calibrated_constant():
    geom = sphere(16)
    assert geom.background_curvature == calibrate_sphere_curvature()


# ---------------------------------------------------------------------------
# covariant operator


def test_yamabe_apply_covariance_residual_refines_at_second_order():
    b = YAMABE_COEFFICIENT
    residuals = {}
    for n in (16, 32, 64):
        geom = sector(n)
        xs, ys = np.meshgrid(geom.axes()[0], geom.axes()[1], indexing="ij")
        lam_v = 0.25 * np.sin(2 * np.pi * xs) * np.cos(2 * np.pi * ys)
        phi_v = 0.40 * np.cos(2 * np.pi * xs) + 0.30 * np.sin(2 * np.pi * ys)
        lam = ScalarField(geom, lam_v)
        phi = ScalarField(geom, phi_v)
        u = np.exp(lam_v)
        lhs = yamabe_apply(lam, phi).values
        rhs = np.exp(-3.0 * lam_v) * (
            b * sublap(ScalarField(geom, u * phi_v)).values
            + geom.background_curvature * u * phi_v
        )
        residuals[n] = float(np.sqrt(((lhs - rhs) ** 2).mean()))
    slope_coarse = math.log2(residuals[16] / residuals[32])
    slope_fine = math.log2(residuals[32] / residuals[64])
    assert slope_coarse >= 1.9
    assert slope_fine >= 1.9


def test_yamabe_apply_rejects_mismatched_geometries():
    lam = ScalarField(sector(8), np.zeros((8, 8)))
    phi = ScalarField(sector(8), np.zeros((8, 8)))
    with pytest.raises(GeometryError):
        yamabe_apply(lam, phi)


# ---------------------------------------------------------------------------
# linear solver


def test_linear_solve_resolvent_amplitude_on_an_eigenmode():
    # for A = I + alpha * L^2 and an eigenmode L v = sigma v the solution of
    # A x = v is x = v / (1 + alpha * sigma^2); sigma is measured from the
    # operator itself, not assumed
    n = 32
    geom = sector(n)
    xs = geom.axes()[0]
    mode = np.cos(2 * np.pi * 3 * xs)[:, None] * np.ones((1, n))
    v = ScalarField(geom, mode)
    sigma = float(np.max(np.abs(sublap(v).values)) / np.max(np.abs(mode)))
    alpha = 1.0 / sigma**2

    def operator(values):
        inner = sublap(ScalarField(geom, values)).values
        return values + alpha * sublap(ScalarField(geom, inner)).values

    x = linear_solve(operator, v, tol=1e-12)
    np.testing.assert_allclose(
        x.values, mode / 2.0, rtol=0, atol=1e-9 * np.max(np.abs(mode))
    )


def test_linear_solve_zero_rhs_returns_zeros():
    geom = sector(8)
    rhs = ScalarField(geom, np.zeros((8, 8)))
    out = linear_solve(lambda v: v + sublap(ScalarField(geom, v)).values, rhs)
    np.testing.assert_array_equal(out.values, np.zeros((8, 8)))


def test_linear_solve_reports_breakdown_on_indefinite_systems():
    geom = sector(8)
    rhs = ScalarField(geom, np.ones((8, 8)))
    with pytest.raises(LinearSolveError):
        linear_solve(lambda v: -v, rhs)


def test_linear_solve_reports_non_convergence():
    geom = sector(8)

    def stiff(values):
        inner = sublap(ScalarField(geom, values)).values
        return values + 10.0 * sublap(ScalarField(geom, inner)).values

    rhs = rand_field(geom, 13)
    with pytest.raises(LinearSolveError):
        linear_solve(stiff, rhs, tol=1e-14, max_iter=2)


# ---------------------------------------------------------------------------
# exact spectral inverse of the IMEX operator


@pytest.mark.parametrize("kx, ky", [(0, 1), (3, 0), (5, 7), (6, 10), (11, 19)])
def test_fourier_modes_diagonalize_the_sector_stencil(kx, ky):
    # the symbol the spectral inverse divides by, checked against the
    # stencil itself on a non-square grid with unequal spacings
    geom = build_geometry(
        {"kind": "HeisenbergSector2D", "resolution": [12, 20], "periods": [1.0, 1.7]}
    )
    nx, ny = geom.resolution
    dx, dy = geom.spacing
    h = HEISENBERG_HORIZONTAL_FACTOR
    i, j = np.indices((nx, ny))
    mode = np.exp(2j * np.pi * (kx * i / nx + ky * j / ny))
    sigma = h * (4.0 * math.sin(math.pi * kx / nx) ** 2 / dx**2
                 + 4.0 * math.sin(math.pi * ky / ny) ** 2 / dy**2)
    out = _div_form_values(geom, mode.real) + 1j * _div_form_values(geom, mode.imag)
    assert np.max(np.abs(out - sigma * mode)) <= 1e-12 * sigma


@pytest.mark.parametrize("mult", [10.0, 1e3, 1e4])
@pytest.mark.parametrize("make", [lambda: sector(64), lambda: sphere(64)],
                         ids=["sector", "sphere"])
def test_exact_preconditioner_solves_in_one_matvec(make, mult):
    geom = make()
    s = mult * auto_dt(geom) * C_STAB
    matvecs = []

    def operator(v):
        matvecs.append(1)
        return v + s * _div_form_values(geom, _div_form_values(geom, v))

    b = rand_field(geom, 21)
    plain = linear_solve(operator, b)
    assert len(matvecs) > 1
    matvecs.clear()
    pcg = linear_solve(operator, b, preconditioner=shifted_bilap_inverse(geom, s))
    assert len(matvecs) == 1
    scale = np.max(np.abs(plain.values))
    assert np.max(np.abs(pcg.values - plain.values)) <= 1e-9 * scale


def test_lattice_has_no_spectral_inverse():
    assert shifted_bilap_inverse(lattice(), 1.0) is None


# ---------------------------------------------------------------------------
# stability symbol


def test_stability_symbol_sector_closed_form():
    geom = sector(32, periods=(1.0, 2.0))
    dx, dy = geom.spacing
    assert stability_symbol_max(geom) == pytest.approx(
        2.0 / dx**2 + 2.0 / dy**2, rel=1e-15
    )


def test_stability_symbol_dominates_measured_eigenvalues():
    for geom in (sector(16), sphere(32), lattice()):
        bound = stability_symbol_max(geom)
        f = rand_field(geom, 12)
        quad = dot_weighted(geom, sublap(f).values, f.values)
        norm = dot_weighted(geom, f.values, f.values)
        assert quad / norm <= bound * (1.0 + 1e-12)
