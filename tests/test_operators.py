"""Stencil operators: symbols, adjointness, curvature, calibration, solver."""

import math
import tracemalloc

import numpy as np
import pytest

from crflow.conventions import (
    C_STAB,
    HEISENBERG_HORIZONTAL_FACTOR,
    SPHERE_CS,
    YAMABE_COEFFICIENT,
)
from crflow.flow import auto_dt, run
from crflow.manifold import GeometryError, ScalarField, build_geometry, initial_data
from crflow.operators import (
    CalibrationError,
    Workspace,
    _div_form_values,
    _measure_curvature,
    calibrate_sphere_curvature,
    conformal_sublap,
    extremal_profile,
    linear_solve,
    shifted_bilap_inverse,
    spectral_basis,
    stability_symbol_max,
    sublap,
    webster_curvature,
    webster_pointwise,
    yamabe_apply,
)


def sector(n=16, periods=(1.0, 1.0)):
    return build_geometry(
        {"kind": "HeisenbergSector2D", "resolution": [n, n], "periods": list(periods)}
    )


def sphere(n=64):
    return build_geometry({"kind": "SphereReduced1D", "resolution": [n]})


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


# ---------------------------------------------------------------------------
# plain stencil


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


def test_sublap_rejects_non_finite_input():
    geom = sector(8)
    values = np.zeros((8, 8))
    values[1, 1] = np.nan
    with pytest.raises(ValueError):
        sublap(ScalarField(geom, values))


# ---------------------------------------------------------------------------
# weighted stencil


def test_conformal_sublap_at_zero_exponent_is_the_plain_stencil():
    geom = sector(16)
    f = rand_field(geom, 9)
    zero = ScalarField(geom, np.zeros(geom.resolution))
    np.testing.assert_array_equal(
        conformal_sublap(zero, f).values, sublap(f).values
    )


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


# Power-of-two squared spacings, which the flat stencil multiplies by the
# reciprocal of, unless it is infinite as for the subnormal 2^-1040.  Not
# in STENCIL_GEOMETRIES: the flow tests would get an automatic dt of 0
# there.  The tiny sector's field is scaled by 1e-300 so v / (d * d)
# stays finite.
RECIPROCAL_GEOMETRIES = {
    "sector16x32": {"kind": "HeisenbergSector2D", "resolution": [16, 32]},
    "sector8x8-subnormal": {"kind": "HeisenbergSector2D", "resolution": [8, 8],
                            "periods": [2.0 ** -517, 1.0]},
}


@pytest.mark.parametrize("name", [*STENCIL_GEOMETRIES, *RECIPROCAL_GEOMETRIES])
def test_flux_form_stencil_is_bitwise_the_three_point_stencil(name):
    geom = build_geometry({**STENCIL_GEOMETRIES, **RECIPROCAL_GEOMETRIES}[name])
    v = rand_field(geom, 21).values
    if name == "sector8x8-subnormal":
        v = 1e-300 * v
    g = np.exp(2.0 * rand_field(geom, 22, amplitude=0.3).values)
    for weight in (None, g):
        assert np.array_equal(_div_form_values(geom, v, weight),
                              three_point_div_form(geom, v, weight))
    # signed zeros: the zero-initialised sum's 0.0 + t turns -0.0 into 0.0
    zeros = np.where(rand_field(geom, 23).values > 0.0, 0.0, -0.0)
    for weight in (None, g):
        assert _div_form_values(geom, zeros, weight).tobytes() \
            == three_point_div_form(geom, zeros, weight).tobytes()
    if geom.kind == "HeisenbergLattice3D":
        # the flux form reads e[S^-1 p]: the -1 gather must invert the +1
        cells = np.arange(v.size).reshape(geom.resolution)
        for axis in (0, 1, 2):
            there = geom.shift(cells, axis, 1)
            assert np.array_equal(geom.shift(there, axis, -1), cells)
            assert np.array_equal(geom.shift(geom.shift(cells, axis, -1), axis, 1),
                                  cells)


def test_the_sphere_stencil_allocates_no_grid_array_on_a_workspace():
    # numpy reports its data buffers to tracemalloc: given a workspace and
    # ``out``, a call leaves only small objects
    geom = sphere(4096)
    work = Workspace(geom)
    out = np.empty(geom.resolution)
    v = rand_field(geom, 4).values
    _div_form_values(geom, v, out=out, work=work)    # warm-up
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _div_form_values(geom, v, out=out, work=work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < v.nbytes
    assert np.array_equal(out, three_point_div_form(geom, v))


# ---------------------------------------------------------------------------
# curvature


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


def test_calibration_flat_profile_reads_zero():
    flat = lambda t, x, y: 1.0
    assert abs(_measure_curvature(flat)[0]) <= 1e-9


def test_calibration_scales_as_minus_two_conformal_weights():
    base = calibrate_sphere_curvature()
    c = 0.25
    scaled = lambda t, x, y: np.exp(c) * extremal_profile(t, x, y)
    value = _measure_curvature(scaled)[0]
    assert value == pytest.approx(math.exp(-2.0 * c) * base, rel=1e-6)


def test_calibration_rejects_non_constant_candidates():
    warped = lambda t, x, y: extremal_profile(t, x, y) * (1.0 + 0.05 * np.tanh(t))
    with pytest.raises(CalibrationError):
        _measure_curvature(warped)


def test_calibration_is_bitwise_the_per_point_loop():
    # one broadcast evaluation per step size, exactly a loop over points
    n_points, h = 128, 0.02
    rng = np.random.default_rng(20210818)
    ts = rng.uniform(-2.0, 2.0, n_points)
    xs = rng.uniform(-1.5, 1.5, n_points)
    ys = rng.uniform(-1.5, 1.5, n_points)
    values = np.empty(n_points)
    for i in range(n_points):
        p = (ts[i], xs[i], ys[i])
        w_h = webster_pointwise(extremal_profile, p, h)
        w_h2 = webster_pointwise(extremal_profile, p, 0.5 * h)
        values[i] = (4.0 * w_h2 - w_h) / 3.0
    assert calibrate_sphere_curvature() == float(values.mean())
    batch = webster_pointwise(extremal_profile, (ts, xs, ys), h)
    loop = [webster_pointwise(extremal_profile, (ts[i], xs[i], ys[i]), h)
            for i in range(n_points)]
    assert np.array_equal(batch, loop)


def test_sphere_geometry_carries_the_calibrated_constant():
    geom = sphere(16)
    assert geom.background_curvature == calibrate_sphere_curvature()


# ---------------------------------------------------------------------------
# covariant operator


def test_yamabe_apply_rejects_mismatched_geometries():
    # geometries compare by value: separately built equal sectors are one
    values = np.arange(64.0).reshape(8, 8) / 64.0
    lam = ScalarField(sector(8), 0.1 * values)
    phi = ScalarField(sector(8), values)
    shared = ScalarField(lam.geometry, values)
    other = ScalarField(sector(8, periods=(2.0, 1.0)), values)
    for fn in (yamabe_apply, conformal_sublap):
        assert np.array_equal(fn(lam, phi).values, fn(lam, shared).values)
        with pytest.raises(GeometryError):
            fn(lam, other)


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
    x = shifted_bilap_inverse(geom, alpha)(mode)
    np.testing.assert_allclose(
        x, mode / 2.0, rtol=0, atol=1e-9 * np.max(np.abs(mode))
    )


@pytest.mark.parametrize("make", [lambda: sector(8), lambda: sphere(16), lattice],
                         ids=["sector", "sphere", "lattice"])
def test_linear_solve_applies_the_inverse_to_every_rhs(make):
    # a zero right-hand side is solved like any other, and the spectral
    # inverse maps it to zeros; a tiny one, whose 2-norm underflows to 0,
    # is not mistaken for zero
    geom = make()
    inverse = shifted_bilap_inverse(geom, 10.0 * auto_dt(geom))
    calls = []

    def counted(v):
        calls.append(v)
        return inverse(v)

    tiny = 1e-170 * rand_field(geom, 5).values
    assert np.linalg.norm(tiny) == 0.0
    for b in (np.zeros(geom.resolution), tiny):
        out = linear_solve(counted, b)
        assert calls.pop() is b and not calls
        assert out.tobytes() == inverse(b).tobytes()
        assert out.any() == (b is tiny)


# ---------------------------------------------------------------------------
# the spectral basis of each geometry and the exact IMEX inverse


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


def lattice_geometry(resolution, periods):
    return build_geometry({"kind": "HeisenbergLattice3D", "resolution": resolution,
                           "periods": periods})


def chain_order(geom):
    """Longest chain of the lattice basis, in x-wraps: the order of
    l * degree in the y-modes, over the tau-modes l."""
    nx, ny, nt = geom.resolution
    return max(ny // math.gcd(ny, ell * geom.lattice_degree % ny)
               for ell in range(nt // 2 + 1))


BASIS_GEOMETRIES = {
    "sector12x20": lambda: build_geometry(
        {"kind": "HeisenbergSector2D", "resolution": [12, 20], "periods": [1.0, 1.7]}),
    "sphere64": lambda: sphere(64),
    "lattice8x8x16": lambda: lattice_geometry([8, 8, 16], [1.0, 1.0, 1.0]),
    "lattice16x16x32": lambda: lattice_geometry([16, 16, 32], [1.0, 1.0, 0.5]),
    "lattice8x8x32": lambda: lattice_geometry([8, 8, 32], [1.0, 1.0, 2.0]),
    "lattice8x8x64": lambda: lattice_geometry([8, 8, 64], [1.0, 1.0, 4.0]),
    "lattice32x32x32": lambda: lattice_geometry([32, 32, 32], [1.0, 1.0, 0.125]),
}


@pytest.mark.parametrize("name", list(BASIS_GEOMETRIES))
def test_spectral_basis_diagonalizes_the_stencil(name):
    geom = BASIS_GEOMETRIES[name]()
    if name in ("lattice8x8x16", "lattice16x16x32"):
        assert chain_order(geom) == 2       # twisted: chains cross x-wraps
    if name in ("lattice8x8x32", "lattice8x8x64"):
        assert chain_order(geom) >= 4
    forward, inverse, sigma = spectral_basis(geom)
    v = rand_field(geom, 31).values
    lv = _div_form_values(geom, v)
    scale = np.max(np.abs(lv))
    assert np.max(np.abs(inverse(sigma * forward(v)) - lv)) <= 1e-12 * scale
    c, cl = forward(v), forward(lv)
    assert np.max(np.abs(cl - sigma * c)) <= 1e-12 * np.max(np.abs(cl))
    assert np.max(np.abs(inverse(c) - v)) <= 1e-13 * np.max(np.abs(v))
    assert spectral_basis(geom) is spectral_basis(BASIS_GEOMETRIES[name]())


def dense_stencil(geom):
    """The matrix of _div_form_values, column by column."""
    n = int(np.prod(geom.resolution))
    cols = [_div_form_values(geom, e.reshape(geom.resolution)).ravel()
            for e in np.eye(n)]
    return np.array(cols).T


@pytest.mark.parametrize("mult", [1.0, 10.0, 1e4, 1e6, 1e8])
@pytest.mark.parametrize("make", [
    lambda: build_geometry({"kind": "HeisenbergSector2D", "resolution": [12, 20]}),
    lambda: sphere(32),
    lattice,
], ids=["sector12x20", "sphere32", "lattice8x8x16"])
def test_shifted_bilap_inverse_matches_a_dense_solve(make, mult):
    # the reference divides by 1 + s sigma^2 in the dense stencil's own
    # eigenbasis: a dense solve of I + s L^2 loses digits at large s, an
    # orthonormal change of basis does not, so the error stays at n eps
    geom = make()
    s = mult * auto_dt(geom) * C_STAB
    sigma, vecs = np.linalg.eigh(dense_stencil(geom))
    b = rand_field(geom, 23).values
    ref = (vecs @ ((vecs.T @ b.ravel()) / (1.0 + s * sigma * sigma))).reshape(geom.resolution)
    x = shifted_bilap_inverse(geom, s)(b)
    n = b.size
    assert np.linalg.norm(x - ref) <= n * np.finfo(float).eps * np.linalg.norm(b)


@pytest.mark.parametrize("mult", [10.0, 1e3, 1e4])
@pytest.mark.parametrize("make", [lambda: sector(64), lambda: sphere(64), lattice],
                         ids=["sector", "sphere", "lattice"])
def test_exact_preconditioner_solves_in_one_matvec(make, mult):
    # the exact spectral inverse solves the shifted system, whatever the
    # step size
    geom = make()
    s = mult * auto_dt(geom) * C_STAB
    b = rand_field(geom, 21).values
    x = shifted_bilap_inverse(geom, s)(b)
    residual = b - (x + s * _div_form_values(geom, _div_form_values(geom, x)))
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("n", [8, 64, 256])
def test_sphere_spectrum_is_the_closed_form(n):
    # The sphere stencil is c_s / ds^2 = 8 n^2 times the three-point
    # operator with face weights s (1 - s) at s = j / n, that is
    # j (n - j) / n^2: 8 times the difference operator of the Hahn
    # polynomials Q_k(x; 0, 0, n - 1), whose eigenvalues are k (k + 1)
    # (Koekoek, Lesky & Swarttouw 2010, section 9.5).  eigh is backward
    # stable, so its eigenvalues are off by a small multiple of
    # eps * sigma_max; 8 ulps of sigma_max bound them
    sigma = np.sort(spectral_basis(sphere(n))[2])
    k = np.arange(n, dtype=float)
    assert np.max(np.abs(sigma - 8.0 * k * (k + 1.0))) <= 8 * np.finfo(float).eps * sigma[-1]


def test_explicit_runs_build_no_spectral_basis():
    before = spectral_basis.cache_info().misses
    for geom in (build_geometry({"kind": "HeisenbergSector2D", "resolution": [9, 11]}),
                 sphere(24), lattice_geometry([8, 8, 32], [1.0, 1.0, 2.0])):
        lam = initial_data(geom, {"kind": "random", "seed": 3})
        run(lam, max_steps=2)
    assert spectral_basis.cache_info().misses == before


# ---------------------------------------------------------------------------
# stability symbol


def test_stability_symbol_sector_closed_form():
    geom = sector(32, periods=(1.0, 2.0))
    dx, dy = geom.spacing
    assert stability_symbol_max(geom) == pytest.approx(
        2.0 / dx**2 + 2.0 / dy**2, rel=1e-15
    )


def test_stability_symbol_against_the_spectral_basis():
    # flat kinds: an upper bound, attained on even grids; sphere: the
    # largest diagonal entry, which the spectrum exceeds by up to 2x
    for geom in (sector(16), sector(16, periods=(1.0, 2.0)), lattice(),
                 lattice_geometry([16, 16, 32], [1.0, 1.0, 0.5])):
        top = float(spectral_basis(geom)[2].max())
        assert top <= stability_symbol_max(geom) * (1.0 + 1e-15)
    for n in (8, 64, 256):
        geom = sphere(n)
        bound = stability_symbol_max(geom)
        top = float(spectral_basis(geom)[2].max())
        assert bound <= top <= 2.0 * bound
        # the explicit step still keeps RK4 inside its real-axis limit
        rate = C_STAB * top * top \
            + 4.0 * YAMABE_COEFFICIENT * abs(geom.background_curvature) * top
        assert auto_dt(geom) * rate < 1.0
