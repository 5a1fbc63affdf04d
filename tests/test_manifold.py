"""Geometry construction, quadrature, twisted indexing, and initial data."""

import math

import numpy as np
import pytest

from crflow import (
    GeometryError,
    ScalarField,
    build_geometry,
    initial_data,
    integrate,
    lattice_mode,
)
from crflow.conventions import HEISENBERG_VOLUME_WEIGHT, SPHERE_KAPPA


def sector(n=16, periods=(1.0, 1.0), t_fiber=1.0):
    return build_geometry(
        {
            "kind": "HeisenbergSector2D",
            "resolution": [n, n],
            "periods": list(periods),
            "t_fiber": t_fiber,
        }
    )


def sphere(n=64):
    return build_geometry(
        {"kind": "SphereReduced1D", "resolution": [n], "periods": [1.0]}
    )


def lattice(nx=8, ny=8, nt=16, lt=1.0):
    return build_geometry(
        {
            "kind": "HeisenbergLattice3D",
            "resolution": [nx, ny, nt],
            "periods": [1.0, 1.0, lt],
        }
    )


# ---------------------------------------------------------------------------
# construction and validation


def test_known_kinds_construct():
    assert sector().kind == "HeisenbergSector2D"
    assert sphere().kind == "SphereReduced1D"
    assert lattice().kind == "HeisenbergLattice3D"


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
    with pytest.raises(GeometryError, match="positive"):
        build_geometry(
            {"kind": "HeisenbergSector2D", "resolution": [8, 8], "periods": [1.0, -1.0]}
        )
    for periods in ([1, "inf"], [1.0, math.inf], [1.0, math.nan], [1.0, True], 1.0):
        with pytest.raises(GeometryError, match="periods"):
            build_geometry(
                {"kind": "HeisenbergSector2D", "resolution": [8, 8], "periods": periods}
            )
    for t_fiber in ([1], "1.0", math.inf, math.nan, None):
        with pytest.raises(GeometryError, match="t_fiber"):
            build_geometry({"kind": "HeisenbergSector2D", "resolution": [8, 8],
                            "t_fiber": t_fiber})
    with pytest.raises(GeometryError, match="resolution"):
        build_geometry({"kind": "HeisenbergSector2D", "resolution": [8, 1e400]})


def test_unsatisfiable_wrap_shift_rejected():
    # 16 tau-cells on a unit fiber make the frame shift a quarter cell
    with pytest.raises(GeometryError, match="wrap-shift constraint unsatisfiable"):
        lattice(16, 16, 16, lt=1.0)


def test_lattice_wrap_numbers():
    geom = lattice(8, 8, 16, lt=1.0)
    assert geom.shift_unit == 1
    assert geom.t_wrap_shift == 8
    assert geom.lattice_degree == 4
    # the identification closes: Ny full y-turns shift tau by a whole period
    assert (geom.resolution[1] * geom.t_wrap_shift) % geom.resolution[2] == 0


def test_reference_lattice_sixteen_cubed():
    geom = lattice(16, 16, 16, lt=0.25)
    assert geom.shift_unit == 1
    assert geom.t_wrap_shift == 16
    assert geom.lattice_degree == 16


def test_lattice_geometries_compare_by_their_description():
    # the precomputed gathers are arrays; equality must not touch them
    assert lattice() == lattice()
    assert lattice(16, 16, 32, lt=0.5) == lattice(16, 16, 32, lt=0.5)
    assert lattice() != lattice(lt=0.5)
    assert lattice(16, 16, 32, lt=0.5) != lattice(16, 16, 32, lt=0.25)


def test_spacing_and_cell_volume():
    geom = sector(8, periods=(2.0, 4.0), t_fiber=0.5)
    assert geom.spacing == pytest.approx((0.25, 0.5))
    assert geom.cell_coord_volume == pytest.approx(0.25 * 0.5 * 0.5)


# ---------------------------------------------------------------------------
# quadrature


@pytest.mark.parametrize("make", [sector, sphere, lattice])
def test_integrate_is_linear(make):
    geom = make()
    rng = np.random.default_rng(3)
    f = ScalarField(geom, rng.standard_normal(geom.resolution))
    g = ScalarField(geom, rng.standard_normal(geom.resolution))
    combo = integrate(ScalarField(geom, 2.5 * f.values - 0.75 * g.values))
    parts = 2.5 * integrate(f) - 0.75 * integrate(g)
    assert combo == pytest.approx(parts, rel=1e-14)


def test_integrate_rejects_non_finite():
    geom = sector(8)
    values = np.zeros((8, 8))
    values[3, 4] = np.inf
    with pytest.raises(ValueError):
        integrate(ScalarField(geom, values))


def test_sphere_measure_constants_and_linears_exact():
    kappa = SPHERE_KAPPA
    geom = sphere(64)
    s = geom.axes()[0]
    assert integrate(ScalarField(geom, np.ones(64))) == pytest.approx(kappa, rel=1e-15)
    assert integrate(ScalarField(geom, s)) == pytest.approx(kappa / 2.0, rel=1e-14)


@pytest.mark.parametrize("power, exact_fraction", [(2, 1.0 / 3.0), (3, 1.0 / 4.0)])
def test_sphere_measure_polynomials_refine_at_second_order(power, exact_fraction):
    kappa = SPHERE_KAPPA
    errs = {}
    for n in (64, 128):
        geom = sphere(n)
        s = geom.axes()[0]
        value = integrate(ScalarField(geom, s**power))
        errs[n] = abs(value - kappa * exact_fraction)
    assert errs[64] / errs[128] == pytest.approx(4.0, rel=0.05)


def test_heisenberg_volume_carries_fiber_and_weight():
    # volume element 4 * dx dy dt: a unit box with half fiber gives 4 * 1/2
    geom = sector(8, t_fiber=0.5)
    total = integrate(ScalarField(geom, np.ones((8, 8))))
    assert total == pytest.approx(HEISENBERG_VOLUME_WEIGHT * 0.5, rel=1e-15)


# ---------------------------------------------------------------------------
# twisted lattice indexing


def test_wrap_identity_exact_on_random_fields():
    geom = lattice()
    rng = np.random.default_rng(11)
    values = rng.standard_normal(geom.resolution)
    nx, ny, nt = geom.resolution
    m = geom.t_wrap_shift
    for _ in range(100):
        i = int(rng.integers(-2 * nx, 2 * nx))
        j = int(rng.integers(-2 * ny, 2 * ny))
        k = int(rng.integers(-2 * nt, 2 * nt))
        assert geom.value_at(values, i + nx, j, k) == geom.value_at(
            values, i, j, k + j * m
        )
        # the other two wraps are plain periodic
        assert geom.value_at(values, i, j + ny, k) == geom.value_at(values, i, j, k)
        assert geom.value_at(values, i, j, k + nt) == geom.value_at(values, i, j, k)


def test_stencil_commutes_with_wrap_on_delta_fields():
    """Applying a shift stencil then wrapping equals wrapping then shifting."""
    geom = lattice()
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
                i, j, k = geom.reduce_index(*target)
                expect = np.zeros(geom.resolution)
                expect[i, j, k] = 1.0
                np.testing.assert_array_equal(shifted, expect)


def test_x_holonomy_is_a_vertical_translation():
    geom = lattice()
    rng = np.random.default_rng(12)
    values = rng.standard_normal(geom.resolution)
    turned = geom.x_holonomy(values)
    # row j comes back tau-shifted by j * m: not the identity, but a
    # permutation that is trivial on the j = 0 slab
    np.testing.assert_array_equal(turned[:, 0, :], values[:, 0, :])
    assert not np.array_equal(turned, values)
    ny = geom.resolution[1]
    full = values
    for _ in range(ny):
        full = geom.x_holonomy(full)
    # Ny turns close up exactly
    np.testing.assert_array_equal(full, values)


def test_lattice_mode_satisfies_the_deck_identity():
    # crossing the x-period in polarized coordinates carries tau along by
    # 4 * Px * y; the generated modes obey that identification pointwise
    geom = lattice()
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
    geom = lattice()
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
            direct = geom.value_at(grid, 0, j, k + j * geom.t_wrap_shift)
            worst = max(worst, abs(wrapped - direct))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# grid shifts against their reference definitions


@pytest.mark.parametrize("shape", [(12, 20), (7, 9)], ids=["even", "odd"])
def test_sector_shift_is_the_periodic_roll(shape):
    geom = build_geometry({"kind": "HeisenbergSector2D", "resolution": list(shape)})
    values = np.random.default_rng(13).standard_normal(shape)
    for axis in (0, 1):
        for step in (1, -1, 2, -3, shape[axis]):
            got = geom.shift(values, axis, step)
            assert got.shape == values.shape
            assert np.array_equal(got, np.roll(values, -step, axis=axis))


@pytest.mark.parametrize("resolution, lt", [((8, 8, 16), 1.0), ((16, 16, 32), 0.5)],
                         ids=["8x8x16", "16x16x32"])
def test_lattice_shift_is_the_twisted_gather(resolution, lt):
    geom = lattice(*resolution, lt=lt)
    nt = resolution[2]
    assert geom.t_wrap_shift % nt != 0           # a non-trivial x-wrap twist
    values = np.random.default_rng(17).standard_normal(resolution)
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
        reference = values[geom.reduce_index(*idx)]
        assert np.array_equal(geom.shift(values, axis, step), reference)


def test_shift_is_not_defined_on_the_sphere_kind():
    with pytest.raises(GeometryError, match="not defined on the sphere"):
        sphere(8).shift(np.zeros(8), 0, 1)


# ---------------------------------------------------------------------------
# initial data


def test_constant_initial_data():
    geom = sector(8)
    lam = initial_data(geom, {"kind": "constant", "value": 0.3})
    np.testing.assert_array_equal(lam.values, np.full((8, 8), 0.3))


@pytest.mark.parametrize("make", [sector, sphere, lattice])
def test_random_initial_data_is_seed_deterministic(make):
    geom = make()
    spec = {"kind": "random", "seed": 9, "amplitude": 0.2, "cutoff": 3}
    a = initial_data(geom, spec)
    b = initial_data(geom, spec)
    np.testing.assert_array_equal(a.values, b.values)
    c = initial_data(geom, {**spec, "seed": 10})
    assert not np.array_equal(a.values, c.values)


def test_random_lattice_data_respects_the_twisted_wrap():
    geom = lattice()
    lam = initial_data(
        geom, {"kind": "random", "seed": 5, "amplitude": 0.2, "cutoff": 2, "cutoff_t": 2}
    )
    assert lam.is_finite()
    nx, ny, nt = geom.resolution
    rng = np.random.default_rng(0)
    for _ in range(50):
        i = int(rng.integers(0, nx))
        j = int(rng.integers(0, ny))
        k = int(rng.integers(0, nt))
        lhs = geom.value_at(lam.values, i + nx, j, k)
        rhs = geom.value_at(lam.values, i, j, k + j * geom.t_wrap_shift)
        assert lhs == rhs


def test_bump_initial_data_peaks_at_center():
    geom = sector(32)
    lam = initial_data(geom, {"kind": "bump", "amplitude": 0.5, "width": 0.1})
    peak = np.unravel_index(np.argmax(lam.values), lam.values.shape)
    assert abs(peak[0] - 16) <= 1 and abs(peak[1] - 16) <= 1
    assert lam.values.max() == pytest.approx(0.5, rel=1e-2)


def test_initial_data_validation_errors():
    geom = sector(8)
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
        {"kind": "bump", "amplitude": [1]},
        {"kind": "bump", "width": "nan"},
        {"kind": "bump", "width": math.nan},
        {"kind": "bump", "center": 0.5},
        {"kind": "bump", "center": [0.5]},
        {"kind": "bump", "center": [0.5, math.inf]},
        {"kind": "constant", "value": "0.0"},
    ]
    for spec in bad_specs:
        with pytest.raises(GeometryError):
            initial_data(geom, spec)
    for center in ([], 0.5, [math.nan], [0.5, 0.5]):
        with pytest.raises(GeometryError, match="center"):
            initial_data(sphere(16), {"kind": "bump", "center": center})


# ---------------------------------------------------------------------------
# fields


def test_field_shape_must_match_geometry():
    geom = sector(8)
    with pytest.raises(GeometryError):
        ScalarField(geom, np.zeros((8, 9)))


def test_field_copy_is_independent():
    geom = sector(8)
    a = ScalarField(geom, np.zeros((8, 8)))
    b = a.copy()
    b.values[0, 0] = 1.0
    assert a.values[0, 0] == 0.0


def test_is_finite_flags_bad_cells():
    geom = sector(8)
    values = np.zeros((8, 8))
    assert ScalarField(geom, values).is_finite()
    values[2, 2] = np.nan
    assert not ScalarField(geom, values).is_finite()
