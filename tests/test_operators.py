"""Stencil operators: symbols, adjointness, curvature, calibration, solver."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

import crflow.operators as operators
from crflow.conventions import (
    C_STAB,
    HEISENBERG_HORIZONTAL_FACTOR,
    SPHERE_CS,
    YAMABE_COEFFICIENT,
)
from crflow.flow import auto_dt, run
from crflow.invariants import (
    _lattice,
    _noise,
    _sector,
    _sphere,
    conformal_sublap,
    sublap,
    three_point_div_form,
    webster_curvature,
    yamabe_apply,
)
from crflow.manifold import GeometryError, ScalarField, build_geometry, initial_data
from crflow.operators import (
    CalibrationError,
    Workspace,
    _div_form_values,
    _flat_constants,
    _measure_curvature,
    calibrate_sphere_curvature,
    extremal_profile,
    linear_solve,
    shifted_bilap_inverse,
    spectral_basis,
    stability_symbol_max,
    webster_pointwise,
)


# ---------------------------------------------------------------------------
# plain stencil


def test_sphere_stencil_exact_on_linear_profiles():
    geom = _sphere(64)
    s = geom.axes()[0]
    out = sublap(ScalarField(geom, s)).values
    c_s = SPHERE_CS
    expected = -c_s * (1.0 - 2.0 * s)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


def test_sphere_stencil_quadratic_defect_is_the_exact_grid_term():
    # on f = s^2 the flux rule is exact for the smooth part and leaves the
    # uniform second-difference remainder c_s * ds^2 / 2 = 4 / n^2
    n = 64
    geom = _sphere(n)
    s = geom.axes()[0]
    out = sublap(ScalarField(geom, s**2)).values
    continuum = -SPHERE_CS * (4.0 * s - 6.0 * s**2)
    defect = out - continuum
    np.testing.assert_allclose(defect, 4.0 / n**2, rtol=1e-10)


def test_sublap_rejects_non_finite_input():
    geom = _sector(8)
    values = np.zeros((8, 8))
    values[1, 1] = np.nan
    with pytest.raises(ValueError):
        sublap(ScalarField(geom, values))


# ---------------------------------------------------------------------------
# weighted stencil


def test_conformal_sublap_at_zero_exponent_is_the_plain_stencil():
    geom = _sector(16)
    f = _noise(geom, 9, 1.0)
    zero = ScalarField(geom, np.zeros(geom.resolution))
    np.testing.assert_array_equal(
        conformal_sublap(zero, f).values, sublap(f).values
    )


# ---------------------------------------------------------------------------
# flux form against the three-point formulas


STENCIL_GEOMETRIES = {
    "sector12x20": {"kind": "HeisenbergSector2D", "resolution": [12, 20]},
    "sector7x9": {"kind": "HeisenbergSector2D", "resolution": [7, 9]},
    "lattice8x8x16": {"kind": "HeisenbergLattice3D", "resolution": [8, 8, 16],
                      "periods": [1.0, 1.0, 1.0]},
    "lattice16x16x32": {"kind": "HeisenbergLattice3D", "resolution": [16, 16, 32],
                        "periods": [1.0, 1.0, 0.5]},
    "sphere64": {"kind": "SphereReduced1D", "resolution": [64]},
}


# Power-of-two squared spacings, where the flat stencil divides the
# finer term by a power-of-two divisor and multiplies the sum by one
# folded factor: the non-square sector and lattice divide their Y term by
# 1/4, and the tiny sector its X term by the subnormal 2^-1034.  Not in
# STENCIL_GEOMETRIES, whose flow tests would get an automatic dt of 0 on
# the tiny sector.  The tiny sector's field is scaled by 1e-300 so
# v / (d * d) stays finite.
FOLDED_GEOMETRIES = {
    "sector16x32": {"kind": "HeisenbergSector2D", "resolution": [16, 32]},
    "lattice8x16x32": {"kind": "HeisenbergLattice3D", "resolution": [8, 16, 32],
                       "periods": [1.0, 1.0, 1.0]},
    "sector8x8-subnormal": {"kind": "HeisenbergSector2D", "resolution": [8, 8],
                            "periods": [2.0 ** -517, 1.0]},
}


@pytest.mark.parametrize("name", [*STENCIL_GEOMETRIES, *FOLDED_GEOMETRIES])
def test_flux_form_stencil_is_bitwise_the_three_point_stencil(name):
    geom = build_geometry({**STENCIL_GEOMETRIES, **FOLDED_GEOMETRIES}[name])
    v = _noise(geom, 21, 1.0).values
    if name == "sector8x8-subnormal":
        v = 1e-300 * v
    ones = np.ones(geom.resolution)
    # signed zeros: the sum starts from the X term, so -0.0 + -0.0 stays -0.0
    zeros = np.where(_noise(geom, 23, 1.0).values > 0.0, 0.0, -0.0)
    for x in (v, zeros):
        ref = three_point_div_form(geom, x, ones)
        # the run path's kernel, whose constants include the 4, and the
        # public operator, which divides it out exactly
        assert _div_form_values(geom, x, work=Workspace(geom)).tobytes() \
            == (YAMABE_COEFFICIENT * ref).tobytes()
        assert sublap(ScalarField(geom, x)).values.tobytes() == ref.tobytes()
    if geom.kind == "HeisenbergLattice3D":
        # the flux form reads e[S^-1 p]: the -1 gather must invert the +1
        cells = np.arange(v.size).reshape(geom.resolution)
        for axis in (0, 1, 2):
            there = geom.shift(cells, axis, 1)
            assert np.array_equal(geom.shift(there, axis, -1), cells)
            assert np.array_equal(geom.shift(geom.shift(cells, axis, -1), axis, 1),
                                  cells)


@pytest.mark.parametrize("name, folds", [("sector16x32", (None, 0.25)),
                                         ("lattice8x8x16", (None, None)),
                                         ("sector12x20", None),
                                         ("sector8x8-subnormal", (2.0 ** -1034, None))])
def test_flat_constants_fold_where_every_factor_is_a_power_of_two(name, folds):
    # a folded call divides a finer axis term by d^2 / max(d^2), a power
    # of two (exact even where subnormal, as 2^-1034), and the sum by
    # -1/2 * 4 / max(d^2) alone; 1/144 and 1/400 are no powers of two, so
    # each term is divided by its d^2 and the sum multiplied by -2
    geom = build_geometry({**STENCIL_GEOMETRIES, **FOLDED_GEOMETRIES}[name])
    d2 = tuple(d * d for d in geom.spacing[:2])
    divisors, factor = _flat_constants(geom.spacing)
    if folds is None:
        assert divisors == d2
        assert factor == -HEISENBERG_HORIZONTAL_FACTOR * YAMABE_COEFFICIENT == -2.0
    else:
        assert divisors == folds
        assert factor == -HEISENBERG_HORIZONTAL_FACTOR * YAMABE_COEFFICIENT / max(d2)


def test_the_sphere_stencil_allocates_no_grid_array_on_a_workspace():
    # numpy reports its data buffers to tracemalloc: given a workspace and
    # ``out``, a call leaves only small objects
    geom = _sphere(4096)
    work = Workspace(geom)
    out = np.empty(geom.resolution)
    v = _noise(geom, 4, 1.0).values
    _div_form_values(geom, v, out=out, work=work)    # warm-up
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _div_form_values(geom, v, out=out, work=work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < v.nbytes
    assert np.array_equal(out, YAMABE_COEFFICIENT
                          * three_point_div_form(geom, v, np.ones(geom.resolution)))


# ---------------------------------------------------------------------------
# curvature


def test_webster_curvature_rejects_non_finite():
    geom = _sector(8)
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


def test_webster_pointwise_rejects_a_nonpositive_step():
    for h in (0.0, -0.05):
        with pytest.raises(ValueError, match="step h must be positive"):
            webster_pointwise(extremal_profile, (0.0, 0.5, 0.5), h)


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


def test_calibration_flat_profile_reads_zero(monkeypatch):
    flat = lambda t, x, y: 1.0
    assert abs(_measure_curvature(flat)[0]) <= 1e-9
    # a constant, but not a positive one: the calibration refuses it
    monkeypatch.setattr(operators, "extremal_profile", flat)
    with pytest.raises(CalibrationError, match="not positive"):
        calibrate_sphere_curvature.__wrapped__()


def test_calibration_scales_as_minus_two_conformal_weights():
    base = calibrate_sphere_curvature()
    c = 0.25
    scaled = lambda t, x, y: np.exp(c) * extremal_profile(t, x, y)
    value = _measure_curvature(scaled)[0]
    assert value == pytest.approx(math.exp(-2.0 * c) * base, rel=1e-6)


def test_calibration_rejects_non_constant_candidates():
    # relative spreads 0.74 and 2.7e-3 (the bound is 1e-3), and 7e-8 about
    # a mean of -5e-9 (the absolute bound is 1e-9)
    for eps in (0.05, 2e-4):
        warped = lambda t, x, y: extremal_profile(t, x, y) * (1.0 + eps * np.tanh(t))
        with pytest.raises(CalibrationError):
            _measure_curvature(warped)
    with pytest.raises(CalibrationError):
        _measure_curvature(lambda t, x, y: 1.0 + 1e-8 * np.tanh(t))
    # a NaN profile passes the positivity test (NaN <= 0 is false) and
    # is refused as non-finite
    with pytest.raises(CalibrationError, match="non-finite"):
        _measure_curvature(lambda t, x, y: np.full(np.broadcast(t, x, y).shape, np.nan))


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
    geom = _sphere(16)
    assert geom.background_curvature == calibrate_sphere_curvature()


# ---------------------------------------------------------------------------
# covariant operator


def test_yamabe_apply_rejects_mismatched_geometries():
    # geometries compare by value: separately built equal sectors are one
    values = np.arange(64.0).reshape(8, 8) / 64.0
    lam = ScalarField(_sector(8), 0.1 * values)
    phi = ScalarField(_sector(8), values)
    shared = ScalarField(lam.geometry, values)
    other = ScalarField(_sector(8, periods=(2.0, 1.0)), values)
    for fn in (yamabe_apply, conformal_sublap):
        assert np.array_equal(fn(lam, phi).values, fn(lam, shared).values)
        with pytest.raises(GeometryError):
            fn(lam, other)


# ---------------------------------------------------------------------------
# linear solver


@pytest.mark.parametrize("make", [lambda: _sector(8), lambda: _sphere(16),
                                  lambda: _lattice((8, 8, 16), lt=1.0)],
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

    tiny = 1e-170 * _noise(geom, 5, 1.0).values
    assert np.linalg.norm(tiny) == 0.0
    for b in (np.zeros(geom.resolution), tiny):
        out = linear_solve(counted, b)
        assert calls.pop() is b and not calls
        assert out.tobytes() == inverse(b).tobytes()
        assert out.any() == (b is tiny)


# ---------------------------------------------------------------------------
# the spectral basis of each geometry and the exact IMEX inverse


def chain_order(geom):
    """Longest chain of the lattice basis, in x-wraps: the order of
    l * degree in the y-modes, over the tau-modes l."""
    nx, ny, nt = geom.resolution
    return max(ny // math.gcd(ny, ell * geom.lattice_degree % ny)
               for ell in range(nt // 2 + 1))


BASIS_GEOMETRIES = {
    "sector12x20": lambda: build_geometry(
        {"kind": "HeisenbergSector2D", "resolution": [12, 20], "periods": [1.0, 1.7]}),
    "sphere64": lambda: _sphere(64),
    "lattice8x8x16": lambda: _lattice((8, 8, 16), lt=1.0),
    "lattice16x16x32": _lattice,
    "lattice8x8x32": lambda: _lattice((8, 8, 32), lt=2.0),
    "lattice8x8x64": lambda: _lattice((8, 8, 64), lt=4.0),
    "lattice32x32x32": lambda: _lattice((32, 32, 32), lt=0.125),
    # shift unit 2**37: the twist phase is reduced mod nt in integers
    "lattice4x4x8-unit2**37": lambda: _lattice((4, 4, 8), lt=2.0**-36),
}


@pytest.mark.parametrize("name", list(BASIS_GEOMETRIES))
def test_spectral_basis_diagonalizes_the_stencil(name):
    geom = BASIS_GEOMETRIES[name]()
    if name in ("lattice8x8x16", "lattice16x16x32"):
        assert chain_order(geom) == 2       # twisted: chains cross x-wraps
    if name in ("lattice8x8x32", "lattice8x8x64"):
        assert chain_order(geom) >= 4
    forward, inverse, sigma = spectral_basis(geom)
    v = _noise(geom, 31, 1.0).values
    lv = _div_form_values(geom, v, work=Workspace(geom)) / YAMABE_COEFFICIENT   # sublap
    scale = np.max(np.abs(lv))
    assert np.max(np.abs(inverse(sigma * forward(v)) - lv)) <= 1e-12 * scale
    c, cl = forward(v), forward(lv)
    assert np.max(np.abs(cl - sigma * c)) <= 1e-12 * np.max(np.abs(cl))
    assert np.max(np.abs(inverse(c) - v)) <= 1e-13 * np.max(np.abs(v))
    assert spectral_basis(geom) is spectral_basis(BASIS_GEOMETRIES[name]())


def dense_stencil(geom):
    """The matrix of sublap, _div_form_values / 4, column by column."""
    n = int(np.prod(geom.resolution))
    work = Workspace(geom)
    cols = [_div_form_values(geom, e.reshape(geom.resolution), work=work).ravel()
            / YAMABE_COEFFICIENT for e in np.eye(n)]
    return np.array(cols).T


@functools.lru_cache(maxsize=None)
def dense_eigh(geom):
    """``eigh`` of ``dense_stencil(geom)``, once per geometry value: each
    step multiple below reuses it.  Read-only."""
    sigma, vecs = np.linalg.eigh(dense_stencil(geom))
    for arr in (sigma, vecs):
        arr.setflags(write=False)
    return sigma, vecs


@pytest.mark.parametrize("mult", [1.0, 10.0, 1e4, 1e6, 1e8])
@pytest.mark.parametrize("make", [
    lambda: build_geometry({"kind": "HeisenbergSector2D", "resolution": [12, 20]}),
    lambda: _sphere(32),
    lambda: _lattice((8, 8, 16), lt=1.0),
], ids=["sector12x20", "sphere32", "lattice8x8x16"])
def test_shifted_bilap_inverse_matches_a_dense_solve(make, mult):
    # the reference divides by 1 + s sigma^2 in the dense stencil's own
    # eigenbasis: a dense solve of I + s L^2 loses digits at large s, an
    # orthonormal change of basis does not, so the error stays at n eps
    geom = make()
    s = mult * auto_dt(geom) * C_STAB
    sigma, vecs = dense_eigh(geom)
    b = _noise(geom, 23, 1.0).values
    ref = (vecs @ ((vecs.T @ b.ravel()) / (1.0 + s * sigma * sigma))).reshape(geom.resolution)
    x = shifted_bilap_inverse(geom, s)(b)
    n = b.size
    assert np.linalg.norm(x - ref) <= n * np.finfo(float).eps * np.linalg.norm(b)


@pytest.mark.parametrize("s", [1e-9, 1e-3, 1e3])
@pytest.mark.parametrize("make", [
    lambda: build_geometry({"kind": "HeisenbergSector2D", "resolution": [64, 48]}),
    lambda: _sphere(64),
    _lattice,
], ids=["sector64x48", "sphere64", "lattice16x16x32"])
def test_shifted_bilap_inverse_divides_the_fresh_transform_in_place(make, s, monkeypatch):
    # bitwise inverse(forward(v) / denom), with the quotient written over
    # the forward transform: the array the inverse gets is the one
    # forward returned, and v is never written
    geom = make()
    forward, inverse, sigma = spectral_basis(geom)
    seen = []

    def recorded(fn):
        def call(a):
            seen.append(a)
            out = fn(a)
            seen.append(out)
            return out
        return call

    monkeypatch.setattr("crflow.operators.spectral_basis",
                        lambda g: (recorded(forward), recorded(inverse), sigma))
    v = _noise(geom, 29, 1.0).values
    before = v.copy()
    x = shifted_bilap_inverse(geom, s)(v)
    assert x.tobytes() == inverse(forward(v) / (1.0 + s * sigma * sigma)).tobytes()
    assert v.tobytes() == before.tobytes()
    v_in, c, c_in, x_out = seen
    assert v_in is v and c_in is c and x_out is x


@pytest.mark.parametrize("n", [8, 64, 256])
def test_sphere_spectrum_is_the_closed_form(n):
    # The sphere stencil is c_s / ds^2 = 8 n^2 times the three-point
    # operator with face weights s (1 - s) at s = j / n, that is
    # j (n - j) / n^2: 8 times the difference operator of the Hahn
    # polynomials Q_k(x; 0, 0, n - 1), whose eigenvalues are k (k + 1)
    # (Koekoek, Lesky & Swarttouw 2010, section 9.5).  eigh is backward
    # stable, so its eigenvalues are off by a small multiple of
    # eps * sigma_max; 8 ulps of sigma_max bound them
    sigma = np.sort(spectral_basis(_sphere(n))[2])
    k = np.arange(n, dtype=float)
    assert np.max(np.abs(sigma - 8.0 * k * (k + 1.0))) <= 8 * np.finfo(float).eps * sigma[-1]


def test_explicit_runs_build_no_spectral_basis():
    before = spectral_basis.cache_info().misses
    for geom in (build_geometry({"kind": "HeisenbergSector2D", "resolution": [9, 11]}),
                 _sphere(24), _lattice((8, 8, 32), lt=2.0)):
        lam = initial_data(geom, {"kind": "random", "seed": 3})
        run(lam, max_steps=2)
    assert spectral_basis.cache_info().misses == before


# ---------------------------------------------------------------------------
# stability symbol


def test_stability_symbol_sector_closed_form():
    geom = _sector(32, periods=(1.0, 2.0))
    dx, dy = geom.spacing
    assert stability_symbol_max(geom) == pytest.approx(
        2.0 / dx**2 + 2.0 / dy**2, rel=1e-15
    )


def test_stability_symbol_against_the_spectral_basis():
    # flat kinds: an upper bound, attained on even grids; sphere: the
    # largest diagonal entry, which the spectrum exceeds by up to 2x
    for geom in (_sector(16), _sector(16, periods=(1.0, 2.0)), _lattice((8, 8, 16), lt=1.0),
                 _lattice()):
        top = float(spectral_basis(geom)[2].max())
        assert top <= stability_symbol_max(geom) * (1.0 + 1e-15)
    for n in (8, 64, 256):
        geom = _sphere(n)
        bound = stability_symbol_max(geom)
        top = float(spectral_basis(geom)[2].max())
        assert bound <= top <= 2.0 * bound
        # the explicit step still keeps RK4 inside its real-axis limit
        rate = C_STAB * top * top \
            + 4.0 * YAMABE_COEFFICIENT * abs(geom.background_curvature) * top
        assert auto_dt(geom) * rate < 1.0
