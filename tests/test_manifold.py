"""Geometry construction, quadrature, twisted indexing, and initial data."""

import dataclasses
import math
import re

import numpy as np
import pytest

import crflow.manifold as manifold
from crflow.manifold import (
    GeometryError,
    ScalarField,
    build_geometry,
    initial_data,
    lattice_mode,
)
from crflow.conventions import HEISENBERG_VOLUME_WEIGHT
from crflow.invariants import _lattice, _sector, _smooth, _sphere, integrate, reduce_index
from crflow.operators import spectral_basis


# ---------------------------------------------------------------------------
# construction and validation


def test_known_kinds_construct():
    assert _sector(16).kind == "HeisenbergSector2D"
    assert _sphere().kind == "SphereReduced1D"
    assert _lattice((8, 8, 16), lt=1.0).kind == "HeisenbergLattice3D"


def test_unknown_kind_rejected():
    with pytest.raises(GeometryError, match="unknown kind"):
        build_geometry({"kind": "Moebius"})


def test_non_mapping_rejected():
    with pytest.raises(GeometryError):
        build_geometry("HeisenbergSector2D")


@pytest.mark.parametrize(
    "config",
    [
        {"kind": "HeisenbergSector2D", "resolution": [3, 8]},
        {"kind": "SphereReduced1D", "resolution": [3]},
        {"kind": "HeisenbergLattice3D", "resolution": [8, 8, 3], "periods": [1, 1, 1]},
    ],
)
def test_resolution_floor(config):
    with pytest.raises(GeometryError, match="resolution too small"):
        build_geometry(config)


def test_minimum_resolution_is_buildable():
    geom = build_geometry({"kind": "HeisenbergSector2D", "resolution": [4, 4]})
    assert geom.resolution == (4, 4)


def test_period_validation():
    with pytest.raises(GeometryError, match="periods"):
        build_geometry(
            {"kind": "HeisenbergSector2D", "resolution": [8, 8], "periods": [1.0]}
        )
    for kind, periods in (("HeisenbergSector2D", [1.0, -1.0]),
                          ("HeisenbergLattice3D", [1.0, 1.0, 0.0])):
        with pytest.raises(GeometryError, match="periods must be positive"):
            build_geometry({"kind": kind, "resolution": [8] * len(periods),
                            "periods": periods})
    for periods in ([1, "inf"], [1.0, math.inf], [1.0, math.nan], [1.0, True], 1.0,
                    [1, 2, 10**400], [1, 2, 10**5000], {"a": 10**5000}, {10**5000}):
        with pytest.raises(GeometryError, match="periods") as exc:
            build_geometry(
                {"kind": "HeisenbergSector2D", "resolution": [8, 8], "periods": periods}
            )
        assert len(str(exc.value)) <= 200    # a huge integer is named by its size
    # a long key or kind is shown by its head and length
    for spec in ({"kind": "HeisenbergSector2D", "resolution": [8, 8], "k" * 300: 1},
                 {"kind": "k" * 300}):
        with pytest.raises(GeometryError, match="characters") as exc:
            build_geometry(spec)
        assert len(str(exc.value)) <= 200
    for t_fiber in ([1], "1.0", math.inf, math.nan, None, 0.0, -0.0, -1.0):
        with pytest.raises(GeometryError, match="t_fiber"):
            build_geometry({"kind": "HeisenbergSector2D", "resolution": [8, 8],
                            "t_fiber": t_fiber})
    for resolution in ([8, 1e400], [8, 8, 8], [8]):
        with pytest.raises(GeometryError, match="resolution"):
            build_geometry({"kind": "HeisenbergSector2D", "resolution": resolution})
    # a key the kind does not read is named, not ignored
    for spec, key in (({"kind": "HeisenbergSector2D", "resolution": [8, 8],
                        "period": [2, 1]}, "period"),
                      ({"kind": "HeisenbergSector2D", "resolution": [8, 8],
                        "cutoff_t": 2}, "cutoff_t"),
                      ({"kind": "HeisenbergLattice3D", "resolution": [8, 8, 16],
                        "t_fiber": 1.0}, "t_fiber"),
                      ({"kind": "SphereReduced1D", "resolution": [16],
                        "periods": [5.0]}, "periods")):
        with pytest.raises(GeometryError, match=re.escape(f"does not read the keys ['{key}']")):
            build_geometry(spec)
    # dx^2 underflows to 0 or overflows to inf: the stencil divides by it
    for kind, periods in (("HeisenbergSector2D", [1e-320, 1.0]),
                          ("HeisenbergSector2D", [1.0, 1e-320]),
                          ("HeisenbergSector2D", [1e308, 1e308]),
                          ("HeisenbergLattice3D", [1e-320, 1.0, 1.0]),
                          ("HeisenbergLattice3D", [1e308, 1.0, 1.0])):
        with pytest.raises(GeometryError, match="degenerate"):
            build_geometry({"kind": kind, "resolution": [8] * len(periods),
                            "periods": periods})


def test_a_cell_weight_of_zero_or_inf_is_refused():
    # each spacing's square is positive and finite, but the volume, the
    # energy and every integral scale by the weight, and it underflows to
    # 0 or overflows to inf: on the sector through t_fiber, on the
    # lattice through dx * dy * dtau
    for spec, weight in (
            ({"kind": "HeisenbergSector2D", "resolution": [8, 8], "t_fiber": 5e-324},
             "t_fiber = 0.0"),
            ({"kind": "HeisenbergSector2D", "resolution": [8, 8], "t_fiber": 1e308,
              "periods": [1e10, 1e10]}, "t_fiber = inf"),
            ({"kind": "HeisenbergLattice3D", "resolution": [4, 4, 16],
              "periods": [4e-154, 4e-154, 6.4e-307]}, "dtau = 0.0"),
            ({"kind": "HeisenbergLattice3D", "resolution": [4, 4, 16],
              "periods": [4e153, 4e153, 6.4e307]}, "dtau = inf")):
        with pytest.raises(GeometryError, match=re.escape(f"cell weight 4*dx*dy*{weight}")):
            build_geometry(spec)


def test_unsatisfiable_wrap_shift_rejected(monkeypatch):
    # 16 tau-cells on a unit fiber make the frame shift a quarter cell
    with pytest.raises(GeometryError, match="wrap-shift constraint unsatisfiable"):
        _lattice((16, 16, 16), lt=1.0)
    # the degree 4 Px Py / Lt = 4/3 or 0.04: the quotient does not close
    for periods in ([1.0, 1.0, 3.0], [0.1, 0.1, 1.0]):
        with pytest.raises(GeometryError, match="the degree 4\\*Px\\*Py/Lt"):
            build_geometry({"kind": "HeisenbergLattice3D", "resolution": [8, 8, 16],
                            "periods": periods})
    # the degree 1024 + 2**-10, 9.5e-7 of it past an integer (the bound is
    # 1e-9), with the shift unit 4 dx dy / dtau = 1048577 whole
    with pytest.raises(GeometryError, match="the degree 4\\*Px\\*Py/Lt"):
        build_geometry({"kind": "HeisenbergLattice3D", "resolution": [4, 4, 16384],
                        "periods": [1.0, 1.0, 4.0 / (1024 + 2**-10)]})
    # a shift unit of 9.3e-10 rounds to 0 within the tolerance, on a grid
    # of 2**34 cells whose gathers are never built
    monkeypatch.setattr(manifold, "_lattice_gathers", lambda *args: {})
    with pytest.raises(GeometryError, match="4\\*dx\\*dy/dtau"):
        build_geometry({"kind": "HeisenbergLattice3D", "resolution": [65536, 65536, 4],
                        "periods": [1.0, 1.0, 4.0]})
    # degree * nt = 4e19 * 16 (a shift unit of 1e19, past int64) and
    # 1.6e18 * 12 (a shift unit of 3e17, whose int64 index products
    # wrap): past 2**53 every float is an integer, so only the size of
    # the products can refuse them; so can a product of exactly 2**53
    for resolution, lt in (([8, 8, 16], 1e-19), ([8, 8, 12], 2.5e-18),
                           ([8, 8, 16], 2**-47)):
        with pytest.raises(GeometryError, match="must be below 2\\*\\*53"):
            build_geometry({"kind": "HeisenbergLattice3D", "resolution": resolution,
                            "periods": [1.0, 1.0, lt]})


def test_lattice_wrap_numbers():
    geom = _lattice((8, 8, 16), lt=1.0)
    assert geom.shift_unit == 1
    assert geom.t_wrap_shift == 8
    assert geom.lattice_degree == 4
    # the identification closes: Ny full y-turns shift tau by a whole period
    assert (geom.resolution[1] * geom.t_wrap_shift) % geom.resolution[2] == 0


def test_reference_lattice_sixteen_cubed():
    geom = _lattice((16, 16, 16), lt=0.25)
    assert geom.shift_unit == 1
    assert geom.t_wrap_shift == 16
    assert geom.lattice_degree == 16


def test_lattice_geometries_compare_by_their_description():
    # the precomputed gathers are arrays; equality and hashing must not
    # touch them
    small = (8, 8, 16)
    assert _lattice(small, lt=1.0) == _lattice(small, lt=1.0)
    assert _lattice((16, 16, 32), lt=0.5) == _lattice((16, 16, 32), lt=0.5)
    assert _lattice(small, lt=1.0) != _lattice(small, lt=0.5)
    assert _lattice((16, 16, 32), lt=0.5) != _lattice((16, 16, 32), lt=0.25)
    assert hash(_lattice(small, lt=1.0)) == hash(_lattice(small, lt=1.0))
    assert hash(_lattice((16, 16, 32), lt=0.5)) == hash(_lattice((16, 16, 32), lt=0.5))
    # a value: no field can be assigned once built
    geom = _lattice(small, lt=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        geom.spacing = (1.0, 1.0, 1.0)
    # separately built equal geometries share one spectral basis
    assert spectral_basis(_lattice(small, lt=1.0)) is spectral_basis(_lattice(small, lt=1.0))


def test_spacing_and_cell_volume():
    geom = _sector(8, periods=(2.0, 4.0), t_fiber=0.5)
    assert geom.spacing == pytest.approx((0.25, 0.5))
    # the weight is the volume-form weight times the coordinate cell
    # volume, bit for bit as that product groups
    assert geom.cell_weight == HEISENBERG_VOLUME_WEIGHT * ((2.0 / 8) * (4.0 / 8) * 0.5)
    geom = _lattice((8, 8, 32), lt=0.5)
    assert geom.spacing == (1.0 / 8, 1.0 / 8, 0.5 / 32)
    assert geom.cell_weight == HEISENBERG_VOLUME_WEIGHT * ((1.0 / 8) * (1.0 / 8) * (0.5 / 32))
    geom = _sphere(24)
    assert geom.spacing == (1.0 / 24,)
    assert geom.cell_weight == math.pi**2 * (1.0 / 24)     # kappa = pi^2


# ---------------------------------------------------------------------------
# quadrature


def test_integrate_rejects_non_finite():
    geom = _sector(8)
    values = np.zeros((8, 8))
    values[3, 4] = np.inf
    with pytest.raises(ValueError):
        integrate(ScalarField(geom, values))


def test_heisenberg_volume_carries_fiber_and_weight():
    # volume element 4 * dx dy dt: a unit box with half fiber gives 4 * 1/2
    geom = _sector(8, t_fiber=0.5)
    total = integrate(ScalarField(geom, np.ones((8, 8))))
    assert total == pytest.approx(HEISENBERG_VOLUME_WEIGHT * 0.5, rel=1e-15, abs=0)


# ---------------------------------------------------------------------------
# twisted lattice indexing


def test_stencil_commutes_with_wrap_on_delta_fields():
    """Applying a shift stencil then wrapping equals wrapping then shifting."""
    geom = _lattice((8, 8, 16), lt=1.0)
    nx, ny, nt = geom.resolution
    for cell in [(0, 0, 0), (3, 5, 7), (7, 2, 15)]:
        delta = np.zeros(geom.resolution)
        delta[cell] = 1.0
        for axis in range(3):
            for direction in (1, -1):
                shifted = geom.shift(delta, axis, direction)
                # the shifted delta must sit at the stencil-translated cell,
                # reduced by the same wrap rules the gather tables encode
                target = list(cell)
                if axis == 0:
                    target[0] -= direction
                elif axis == 1:
                    target[1] -= direction
                    target[2] += direction * cell[0] * geom.shift_unit
                else:
                    target[2] -= direction
                i, j, k = reduce_index(geom, *target)
                expect = np.zeros(geom.resolution)
                expect[i, j, k] = 1.0
                np.testing.assert_array_equal(shifted, expect)


def test_lattice_mode_satisfies_the_deck_identity():
    # crossing the x-period in polarized coordinates carries tau along by
    # 4 * Px * y; the generated modes obey that identification pointwise
    geom = _lattice((8, 8, 16), lt=1.0)
    px, py, lt = geom.periods
    rng = np.random.default_rng(13)
    worst = 0.0
    for ell, n0 in [(1, 0), (2, 1), (1, -2)]:
        mode = lattice_mode(geom, ell, n0)
        for x, y, tau in rng.uniform(-1.5, 1.5, size=(25, 3)):
            lhs = mode(x + px, y, tau)
            rhs = mode(x, y, tau + 4.0 * px * y)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    assert worst <= 1e-10


def test_lattice_mode_sampled_on_grid_matches_twisted_wrap():
    geom = _lattice((8, 8, 16), lt=1.0)
    px = geom.periods[0]
    mode = lattice_mode(geom, 1, 0)
    nx, ny, nt = geom.resolution
    xs, ys, ts = geom.axes()
    grid = np.array(
        [
            [[mode(xs[i], ys[j], ts[k]) for k in range(nt)] for j in range(ny)]
            for i in range(nx)
        ]
    )
    worst = 0.0
    for j in range(ny):
        for k in range(0, nt, 5):
            wrapped = mode(xs[0] + px, ys[j], ts[k])
            direct = grid[reduce_index(geom, 0, j, k + j * geom.t_wrap_shift)]
            worst = max(worst, abs(wrapped - direct))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# grid shifts against their reference definitions


@pytest.mark.parametrize("shape", [(12, 20), (7, 9)], ids=["even", "odd"])
def test_sector_shift_is_the_periodic_roll(shape):
    geom = build_geometry({"kind": "HeisenbergSector2D", "resolution": list(shape)})
    values = np.random.default_rng(13).standard_normal(shape)
    for axis in (0, 1):
        for step in (1, -1):
            got = geom.shift(values, axis, step)
            assert got.shape == values.shape
            assert np.array_equal(got, np.roll(values, -step, axis=axis))
            out = np.full(shape, np.nan)
            assert geom.shift(values, axis, step, out=out) is out
            assert np.array_equal(out, got)


# twisted lattices: (resolution, tau period, x-wrap twist t_wrap_shift mod nt)
LATTICES = {
    "8x8x16": ((8, 8, 16), 1.0, 8),
    "16x16x32": ((16, 16, 32), 0.5, 16),
    "8x16x32": ((8, 16, 32), 1.0, 8),       # nx != ny: catches a seam on the wrong axes
    "32x32x32": ((32, 32, 32), 0.125, 0),   # the benchmark lattice: an identity twist
}


@pytest.mark.parametrize("name", list(LATTICES))
def test_lattice_shift_is_the_twisted_gather(name):
    resolution, lt, twist = LATTICES[name]
    geom = _lattice(resolution, lt=lt)
    assert geom.t_wrap_shift % resolution[2] == twist
    values = np.random.default_rng(17).standard_normal(resolution)
    before = values.tobytes()
    i, j, k = np.indices(resolution)
    s = geom.shift_unit
    offsets = {
        (0, 1): (i + 1, j, k),
        (0, -1): (i - 1, j, k),
        (1, 1): (i, j + 1, k - i * s),
        (1, -1): (i, j - 1, k + i * s),
        (2, 1): (i, j, k + 1),
        (2, -1): (i, j, k - 1),
    }
    for (axis, step), idx in offsets.items():
        reference = values[reduce_index(geom, *idx)]
        got = geom.shift(values, axis, step)
        assert np.array_equal(got, reference)
        # a fresh array that callers may write in place; the input is untouched
        assert got.flags.writeable and not np.shares_memory(got, values)
        assert values.tobytes() == before
        # or every cell of a given array, the seam slab included
        out = np.full(resolution, np.nan)
        assert geom.shift(values, axis, step, out=out) is out
        assert np.array_equal(out, reference)


SHIFT_GEOMETRIES = {
    "sector": ({"kind": "HeisenbergSector2D", "resolution": [12, 20]}, (0, 1)),
    "lattice": ({"kind": "HeisenbergLattice3D", "resolution": [8, 8, 16]}, (0, 1, 2)),
}


@pytest.mark.parametrize("name", list(SHIFT_GEOMETRIES))
def test_shift_moves_exactly_one_cell(name):
    config, axes = SHIFT_GEOMETRIES[name]
    geom = build_geometry(config)
    values = np.zeros(geom.resolution)
    for axis in axes:
        for step in (2, -2, 0, 3, geom.resolution[axis]):
            with pytest.raises(GeometryError, match="step"):
                geom.shift(values, axis, step)
    # numpy's negative axes and axes past the grid are refused, not
    # wrapped onto another axis's flow or left to numpy
    for axis in (-1, -2, values.ndim):
        for step in (1, -1):
            with pytest.raises(GeometryError, match="axis"):
                geom.shift(values, axis, step)


def test_shift_is_not_defined_on_the_sphere_kind():
    with pytest.raises(GeometryError, match="not defined on the sphere"):
        _sphere(8).shift(np.zeros(8), 0, 1)


def test_deck_reduction_and_lattice_modes_are_lattice_only():
    for geom in (_sphere(8), _sector(8)):
        with pytest.raises(GeometryError, match="only defined on the 3D lattice"):
            reduce_index(geom, 0, 0, 0)
        with pytest.raises(GeometryError, match="only defined on the 3D lattice"):
            lattice_mode(geom, 1, 0)


# ---------------------------------------------------------------------------
# initial data


def test_constant_initial_data():
    geom = _sector(8)
    lam = initial_data(geom, {"kind": "constant", "value": 0.3})
    np.testing.assert_array_equal(lam.values, np.full((8, 8), 0.3))


@pytest.mark.parametrize("geom", [_sector(16), _sphere(64), _lattice((8, 8, 16), lt=1.0)],
                         ids=["sector", "sphere", "lattice"])
def test_random_initial_data_is_seed_deterministic(geom):
    spec = {"kind": "random", "seed": 9, "amplitude": 0.2, "cutoff": 3}
    a = initial_data(geom, spec)
    b = initial_data(geom, spec)
    np.testing.assert_array_equal(a.values, b.values)
    c = initial_data(geom, {**spec, "seed": 10})
    assert not np.array_equal(a.values, c.values)


def test_random_data_are_band_limited_series():
    # the sector's modes are periodic on unequal periods, and the sphere's
    # coefficients on the cosines cos(n pi s), orthogonal on the cell
    # centres, are amplitude / sqrt(K) times the seed's normal draws
    geom = build_geometry({"kind": "HeisenbergSector2D", "resolution": [12, 20],
                           "periods": [1.0, 1.7]})
    c = np.abs(np.fft.fft2(initial_data(geom, {"kind": "random", "cutoff": 3}).values))
    kx, ky = (np.abs(np.fft.fftfreq(n, 1.0 / n)) for n in geom.resolution)
    assert c[(kx[:, None] > 3) | (ky[None, :] > 3)].max() <= 1e-13 * c.max()
    values = _smooth(_sphere(64), 3, 0.05, 16).values
    cosines = np.cos(np.pi * np.arange(1, 17)[:, None] * _sphere(64).axes()[0])
    draws = np.random.default_rng(3).standard_normal(16)
    assert np.max(np.abs(cosines @ values / 32.0 - 0.05 / 4.0 * draws)) <= 1e-15


def dense_random_lattice(geom, spec):
    """The twisted vertical modes as first written: every window and every
    exponential of ``lattice_mode`` evaluated on the dense (x, y, tau) grid."""
    px, py, lt = geom.periods
    k_deg, sigma = geom.lattice_degree, px / 6.0
    seed, amplitude, cutoff, cutoff_t = (spec[key] for key in
                                         ("seed", "amplitude", "cutoff", "cutoff_t"))
    out = initial_data(geom, {**spec, "cutoff_t": 0}).values.copy()
    x, y, tau = np.meshgrid(*geom.axes(), indexing="ij")
    rng = np.random.default_rng(seed + 0x5EED)
    scale = amplitude / np.sqrt(cutoff_t)
    for ell in range(1, cutoff_t + 1):
        n0 = int(rng.integers(-cutoff, cutoff + 1))
        c_re, c_im = rng.standard_normal(2)
        g = np.zeros(np.broadcast(x, y, tau).shape, dtype=complex)
        for r in range(-4, 5):
            window = np.exp(-0.5 * ((x - (r + 0.5) * px) / sigma) ** 2)
            g = g + window * np.exp(2j * np.pi * (n0 + r * ell * k_deg) * y / py)
        atom = np.exp(2j * np.pi * ell * tau / lt) * g
        out += scale * (c_re * atom.real + c_im * atom.imag)
    return out


@pytest.mark.parametrize("name", list(LATTICES))
def test_random_lattice_data_is_bitwise_the_dense_grid_evaluation(name):
    resolution, lt, _ = LATTICES[name]
    geom = _lattice(resolution, lt=lt)
    for seed in range(3, 11):
        for cutoff_t in (1, 2, 3):
            spec = {"kind": "random", "seed": seed, "amplitude": 0.1, "cutoff": 3,
                    "cutoff_t": cutoff_t}
            assert initial_data(geom, spec).values.tobytes() \
                == dense_random_lattice(geom, spec).tobytes()


def test_random_lattice_data_respects_the_twisted_wrap():
    geom = _lattice((8, 8, 16), lt=1.0)
    lam = initial_data(
        geom, {"kind": "random", "seed": 5, "amplitude": 0.2, "cutoff": 2, "cutoff_t": 2}
    )
    assert np.isfinite(lam.values).all()
    nx, ny, nt = geom.resolution
    rng = np.random.default_rng(0)
    for _ in range(50):
        i = int(rng.integers(0, nx))
        j = int(rng.integers(0, ny))
        k = int(rng.integers(0, nt))
        lhs = lam.values[reduce_index(geom, i + nx, j, k)]
        rhs = lam.values[reduce_index(geom, i, j, k + j * geom.t_wrap_shift)]
        assert lhs == rhs


def test_initial_data_validation_errors():
    geom = _sector(8)
    with pytest.raises(GeometryError):
        initial_data(geom, {"kind": "perlin"})
    with pytest.raises(GeometryError):
        initial_data(geom, {"kind": "random", "cutoff": 0})
    with pytest.raises(GeometryError):
        initial_data(geom, {"kind": "constant", "value": float("nan")})
    with pytest.raises(GeometryError):
        initial_data(geom, "random")
    bad_specs = [
        {"kind": "random", "amplitude": [1]},
        {"kind": "random", "amplitude": math.inf},
        {"kind": "random", "seed": None},
        {"kind": "random", "seed": 2.5},
        {"kind": "random", "cutoff": math.inf},  # JSON 1e400
        {"kind": "random", "cutoff": "3"},
        {"kind": "constant", "value": "0.0"},
    ]
    for spec in bad_specs:
        with pytest.raises(GeometryError):
            initial_data(geom, spec)
    # numpy would refuse a negative seed without naming the key
    with pytest.raises(GeometryError, match=r"^seed must be a non-negative integer, got -1$"):
        initial_data(geom, {"kind": "random", "seed": -1})
    # past the bound the set-up would loop cutoff times on the sphere and
    # build about 2 cutoff^2 planar modes: the key is refused, by name,
    # before any mode is built; so is a negative cutoff_t
    bound = 64      # README: cutoff in 1..64, cutoff_t in 0..64
    lattice = _lattice((8, 8, 16), lt=1.0)
    for geom, key, value in ((_sphere(16), "cutoff", bound + 1),
                             (_sector(8), "cutoff", bound + 1),
                             (lattice, "cutoff", bound + 1),
                             (lattice, "cutoff_t", bound + 1),
                             (lattice, "cutoff_t", -1)):
        with pytest.raises(GeometryError, match=f"^{key} must be between"):
            initial_data(geom, {"kind": "random", key: value})
    for geom, spec in ((_sphere(16), {"kind": "random", "cutoff": bound}),
                       (lattice, {"kind": "random", "cutoff": 2, "cutoff_t": bound})):
        assert np.isfinite(initial_data(geom, spec).values).all()
    # a key the kind does not read is named, not ignored; cutoff_t is read
    # on the lattice only
    for geom, spec, key in ((_sector(8), {"kind": "random", "sed": 4}, "sed"),
                            (_sector(8), {"kind": "constant", "valu": 2}, "valu"),
                            (_sector(8), {"kind": "random", "cutoff_t": 2}, "cutoff_t"),
                            (_sphere(16), {"kind": "random", "cutoff_t": 2}, "cutoff_t")):
        with pytest.raises(GeometryError, match=re.escape(f"does not read the keys ['{key}']")):
            initial_data(geom, spec)
    for geom in (_sector(8), _sphere(16)):
        with pytest.raises(GeometryError, match="unknown initial-data kind 'bump'"):
            initial_data(geom, {"kind": "bump"})
    # a long key or kind is shown by its head and length
    for spec in ({"kind": "constant", "k" * 300: 1}, {"kind": "k" * 300}):
        with pytest.raises(GeometryError, match="characters") as exc:
            initial_data(_sector(8), spec)
        assert len(str(exc.value)) <= 200


# ---------------------------------------------------------------------------
# fields


def test_field_shape_must_match_geometry():
    geom = _sector(8)
    with pytest.raises(GeometryError):
        ScalarField(geom, np.zeros((8, 9)))


def test_field_copy_is_independent():
    geom = _sector(8)
    a = ScalarField(geom, np.zeros((8, 8)))
    b = a.copy()
    b.values[0, 0] = 1.0
    assert a.values[0, 0] == 0.0
