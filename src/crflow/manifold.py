"""Discretized model geometries, quadrature, and initial data.

Three background models are supported:

``HeisenbergSector2D``
    Fields on the flat group quotient that are constant along the Reeb
    (vertical) direction.  In the cell coordinates used here the
    horizontal frame reduces to d/dx, d/dy on a flat periodic torus, and
    the vertical fiber only contributes its length to the volume.

``HeisenbergLattice3D``
    The compact quotient of the full group by a discrete cocompact
    subgroup.  We work in polarized coordinates (x, y, tau) in which the
    contact form is dtau + 4x dy, the horizontal frame is X = d/dx and
    Y = d/dy - 4x d/dtau, and the three deck transformations are

        (x, y, tau) -> (x + Px, y, tau - 4 Px y)     (twisted x-wrap)
        (x, y, tau) -> (x, y + Py, tau)              (plain y-wrap)
        (x, y, tau) -> (x, y, tau + Lt)              (plain tau-wrap).

    Because grid shifts along the X/Y flows are right translations and
    deck maps are left translations, the two commute *exactly*, provided
    the twist moves points by whole grid cells.  That requires

        s_unit = 4 * dx * dy / dtau   to be a positive integer,

    and then the x-wrap carries the integer tau-shift ``t_wrap_shift =
    s_unit * Nx`` per y-cell.  The quotient itself must close up, i.e.
    the degree 4 * Px * Py / Lt must be a positive integer as well.
    ``build_geometry`` validates both.

``SphereReduced1D``
    The round model restricted to torus-invariant functions of
    s = |zeta_1|^2 in (0, 1), discretized at cell centers (i + 1/2) ds so
    the degenerate endpoints are never sampled.  The pushforward of the
    round volume is the uniform measure kappa * ds with kappa = pi^2
    (derivation: tests/oracles/sphere_reduction.py).

In every model the grid is uniform, so the quadrature weight per cell is
the constant ``cell_volume_weight * cell_coord_volume`` and plain sums
integrate exactly linearly.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .conventions import HEISENBERG_VOLUME_WEIGHT, SPHERE_KAPPA

HEISENBERG_SECTOR = "HeisenbergSector2D"
HEISENBERG_LATTICE = "HeisenbergLattice3D"
SPHERE_REDUCED = "SphereReduced1D"

KNOWN_KINDS = (HEISENBERG_SECTOR, HEISENBERG_LATTICE, SPHERE_REDUCED)

MIN_RESOLUTION = 4


class GeometryError(ValueError):
    """Invalid geometry description."""


@dataclass
class ModelGeometry:
    """An immutable discretized background model.

    Attributes
    ----------
    kind : str
        One of ``HeisenbergSector2D``, ``HeisenbergLattice3D``,
        ``SphereReduced1D``.
    resolution : tuple of int
        Cells per coordinate axis.
    periods : tuple of float
        Coordinate periods per axis.  For the Heisenberg kinds this is
        (Px, Py, Lt) where Lt is the vertical period (the fiber length
        for the 2D sector).  For the sphere kind it is (1.0,).
    cell_volume_weight : float
        Weight of the background volume form per coordinate cell volume
        (4 on the Heisenberg kinds, kappa = pi^2 on the sphere kind).
    background_curvature : float
        Curvature of the background structure: 0 for the flat kinds, the
        runtime-calibrated positive constant for the sphere kind.
    t_wrap_shift : int
        Lattice only: integer tau-cell shift applied per y-cell on an
        x-wrap (0 for the other kinds).
    """

    kind: str
    resolution: tuple
    periods: tuple
    cell_volume_weight: float
    background_curvature: float
    t_wrap_shift: int = 0
    # derived quantities, filled in by build_geometry
    spacing: tuple = ()
    cell_coord_volume: float = 0.0
    shift_unit: int = 0          # lattice: tau-cells a Y-step moves per x-cell
    lattice_degree: int = 0      # lattice: 4 Px Py / Lt
    # derived from the fields above, so left out of == (arrays have no truth value)
    _gather: dict = dataclass_field(default_factory=dict, repr=False, compare=False)

    # -- basic helpers -------------------------------------------------

    def cell_weight(self) -> float:
        """Quadrature weight of a single cell."""
        return self.cell_volume_weight * self.cell_coord_volume

    def axes(self):
        """Cell-center coordinate arrays, one per axis."""
        if self.kind == SPHERE_REDUCED:
            n = self.resolution[0]
            return ((np.arange(n) + 0.5) / n,)
        out = []
        for n, p in zip(self.resolution, self.periods):
            out.append(np.arange(n) * (p / n))
        return tuple(out)

    def zeros(self) -> "ScalarField":
        return ScalarField(self, np.zeros(self.resolution))

    def constant(self, value: float) -> "ScalarField":
        return ScalarField(self, np.full(self.resolution, float(value)))

    # -- grid shifts along the horizontal frame flows ------------------

    def shift(self, values: np.ndarray, axis: int, step: int) -> np.ndarray:
        """Values of a field at the point one frame-flow step away.

        ``shift(v, axis, +1)[p] = v[S_axis(p)]`` where S_axis moves one
        grid cell along the X (axis 0) or Y (axis 1) flow, or one cell
        along the vertical direction (axis 2, lattice only).  On the 2D
        sector these are plain periodic shifts (``np.roll(values, -step,
        axis)``, done as two slice copies); on the 3D lattice the gathers
        are precomputed flat indices that include the tau-offsets making
        the shifts commute exactly with the deck transformations.
        """
        if self.kind == SPHERE_REDUCED:
            raise GeometryError("grid shifts are not defined on the sphere kind")
        if self.kind == HEISENBERG_SECTOR:
            out = np.empty_like(values)
            src, dst = np.swapaxes(values, 0, axis), np.swapaxes(out, 0, axis)
            n = len(src)
            k = step % n
            dst[:n - k] = src[k:]
            dst[n - k:] = src[:k]
            return out
        return values.take(self._gather[(axis, step)])

    def reduce_index(self, i, j, k):
        """Deck-reduce arbitrary integer cell indices into the stored domain.

        The twisted identification is built into indexing through the
        extension rules (m = t_wrap_shift)

            F[i + Nx, j, k] = F[i, j, k + j*m]     (x-wrap twist)
            F[i, j + Ny, k] = F[i, j, k]           (y-wrap plain)
            F[i, j, k + Nt] = F[i, j, k]           (vertical period)

        which are mutually consistent because Ny*m is a multiple of Nt.
        Returns the reduced index triple; accepts arrays.
        """
        if self.kind != HEISENBERG_LATTICE:
            raise GeometryError("reduce_index is only defined on the 3D lattice")
        nx, ny, nt = self.resolution
        qx, i0 = np.divmod(i, nx)
        j0 = j % ny
        k0 = (k + qx * j0 * self.t_wrap_shift) % nt
        return i0, j0, k0

    def value_at(self, values: np.ndarray, i, j, k) -> np.ndarray:
        """Evaluate a stored field at arbitrary integer cell indices,
        out-of-range indices wrapped through the twisted identification."""
        return values[self.reduce_index(i, j, k)]

    def x_holonomy(self, values: np.ndarray, turns: int = 1) -> np.ndarray:
        """Transport a field once around the x-circle (lattice only).

        Composing Nx elementary X-flow steps is not the identity on the
        twisted quotient: it lands on the deck-related copy,

            out[i, j, k] = values[i, j, k + turns * j * t_wrap_shift]

        (tau-index modulo Nt).  This is the discrete holonomy of the
        x-circle; it is trivial exactly when t_wrap_shift*j = 0 mod Nt
        for every j.
        """
        if self.kind != HEISENBERG_LATTICE:
            raise GeometryError("x_holonomy is only defined on the 3D lattice")
        nx, ny, nt = self.resolution
        i, j, k = np.indices((nx, ny, nt), sparse=True)
        return self.value_at(values, i + turns * nx, j, k)

    def _build_lattice_gathers(self):
        nx, ny, nt = self.resolution
        s_unit = self.shift_unit
        i, j, k = np.indices((nx, ny, nt))
        offsets = {
            # X flow: (x, y, tau) -> (x +- dx, y, tau) — plain in polarized
            # coordinates; crossing the seam applies the deck twist via
            # reduce_index.
            (0, 1): (i + 1, j, k),
            (0, -1): (i - 1, j, k),
            # Y flow: (x, y, tau) -> (x, y +- dy, tau -+ 4 x dy); the tau
            # offset is i*s_unit cells, exact by the grid constraint.
            (1, 1): (i, j + 1, k - i * s_unit),
            (1, -1): (i, j - 1, k + i * s_unit),
            # vertical direction: plain periodic shift
            (2, 1): (i, j, k + 1),
            (2, -1): (i, j, k - 1),
        }
        for key, idx in offsets.items():
            flat = np.ravel_multi_index(self.reduce_index(*idx), self.resolution)
            flat.setflags(write=False)
            self._gather[key] = flat


@dataclass
class ScalarField:
    """Real values sampled on the cells of a geometry."""

    geometry: ModelGeometry
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != tuple(self.geometry.resolution):
            raise GeometryError(
                f"field shape {self.values.shape} does not match geometry "
                f"resolution {tuple(self.geometry.resolution)}")

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.values).all())

    def copy(self) -> "ScalarField":
        return ScalarField(self.geometry, self.values.copy())


# ---------------------------------------------------------------------------
# construction


def _as_int(value, what) -> int:
    """An integer (or an integral float such as 3.0) from a JSON value."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)) \
            or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise GeometryError(f"{what} must be an integer, got {value!r}")


def _as_int_tuple(value, n_axes, what):
    if not isinstance(value, (list, tuple, np.ndarray)):
        value = [value] * n_axes
    out = tuple(_as_int(v, what) for v in value)
    if len(out) != n_axes:
        raise GeometryError(f"{what} must have {n_axes} entries, got {len(out)}")
    return out


def _as_finite(value, what) -> float:
    """A finite real number from a JSON value (booleans and strings refused)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond float range
            if math.isfinite(value):
                return float(value)
    raise GeometryError(f"{what} must be a finite number, got {value!r}")


def _as_finite_tuple(value, n_axes, what):
    if not isinstance(value, (list, tuple, np.ndarray)) or len(value) != n_axes:
        raise GeometryError(f"{what} must be a list of {n_axes} numbers, got {value!r}")
    return tuple(_as_finite(v, what) for v in value)


def build_geometry(config: dict) -> ModelGeometry:
    """Build a fully initialized geometry from a JSON-style description.

    Keys: ``kind`` (required), ``resolution`` (int or list), ``periods``
    (list, Heisenberg kinds only), and for the 2D sector an optional
    ``t_fiber`` (vertical fiber length, default 1.0).

    Raises ``GeometryError`` for an unknown kind, a resolution below 4
    cells per axis, or a 3D lattice whose grid cannot represent the
    twisted identification by whole-cell shifts.
    """
    if not isinstance(config, dict):
        raise GeometryError("geometry description must be a mapping")
    kind = config.get("kind")
    if kind not in KNOWN_KINDS:
        raise GeometryError(f"unknown kind {kind!r}; expected one of {KNOWN_KINDS}")

    if kind == SPHERE_REDUCED:
        (n,) = _as_int_tuple(config.get("resolution", 64), 1, "resolution")
        if n < MIN_RESOLUTION:
            raise GeometryError(f"resolution too small: {n} < {MIN_RESOLUTION}")
        from .operators import calibrate_sphere_curvature  # deferred: cycle-free
        geom = ModelGeometry(
            kind=kind,
            resolution=(n,),
            periods=(1.0,),
            cell_volume_weight=SPHERE_KAPPA,
            background_curvature=calibrate_sphere_curvature(),
        )
        geom.spacing = (1.0 / n,)
        geom.cell_coord_volume = 1.0 / n
        return geom

    n_axes = 2 if kind == HEISENBERG_SECTOR else 3
    resolution = _as_int_tuple(config.get("resolution", 32), n_axes, "resolution")
    if min(resolution) < MIN_RESOLUTION:
        raise GeometryError(
            f"resolution too small: {resolution} (minimum {MIN_RESOLUTION} per axis)")

    periods = _as_finite_tuple(config.get("periods", [1.0] * n_axes), n_axes, "periods")
    if min(periods) <= 0:
        raise GeometryError("periods must be positive")

    if kind == HEISENBERG_SECTOR:
        t_fiber = _as_finite(config.get("t_fiber", 1.0), "t_fiber")
        if t_fiber <= 0:
            raise GeometryError("t_fiber must be positive")
        px, py = periods
        nx, ny = resolution
        geom = ModelGeometry(
            kind=kind,
            resolution=resolution,
            periods=(px, py, t_fiber),
            cell_volume_weight=HEISENBERG_VOLUME_WEIGHT,
            background_curvature=0.0,
        )
        geom.spacing = (px / nx, py / ny)
        geom.cell_coord_volume = (px / nx) * (py / ny) * t_fiber
        return geom

    # 3D lattice
    px, py, lt = periods
    nx, ny, nt = resolution
    dx, dy, dtau = px / nx, py / ny, lt / nt

    degree_f = 4.0 * px * py / lt
    degree = int(round(degree_f))
    if degree < 1 or abs(degree_f - degree) > 1e-9 * max(1.0, degree_f):
        raise GeometryError(
            "wrap-shift constraint unsatisfiable: the degree 4*Px*Py/Lt = "
            f"{degree_f!r} must be a positive integer for the quotient to close")

    s_unit_f = 4.0 * dx * dy / dtau
    s_unit = int(round(s_unit_f))
    if s_unit < 1 or abs(s_unit_f - s_unit) > 1e-9 * max(1.0, s_unit_f):
        raise GeometryError(
            "wrap-shift constraint unsatisfiable: 4*dx*dy/dtau = "
            f"{s_unit_f!r} must be a positive integer so frame shifts move "
            "whole tau-cells (raise the tau resolution or shrink Lt)")

    geom = ModelGeometry(
        kind=kind,
        resolution=resolution,
        periods=periods,
        cell_volume_weight=HEISENBERG_VOLUME_WEIGHT,
        background_curvature=0.0,
        t_wrap_shift=s_unit * nx,
    )
    geom.spacing = (dx, dy, dtau)
    geom.cell_coord_volume = dx * dy * dtau
    geom.shift_unit = s_unit
    geom.lattice_degree = degree
    geom._build_lattice_gathers()
    return geom


# ---------------------------------------------------------------------------
# quadrature


def integrate(f: ScalarField) -> float:
    """Integral of f against the background volume form.

    Plain cell sum times the constant cell weight; exactly linear in f.
    """
    if not f.is_finite():
        raise ValueError("integrate: non-finite field values")
    return float(f.values.sum()) * f.geometry.cell_weight()


# ---------------------------------------------------------------------------
# initial data


def initial_data(geom: ModelGeometry, spec: dict) -> ScalarField:
    """Generate deterministic initial data on a geometry.

    ``spec`` kinds:

    * ``{"kind": "constant", "value": c}``
    * ``{"kind": "random", "seed": s, "amplitude": a, "cutoff": K}`` —
      a band-limited trigonometric sum; on the 3D lattice an optional
      ``"cutoff_t": Kt`` adds vertical-frequency atoms built to respect
      the twisted identification (default 0: vertical-invariant data,
      identical cell-for-cell to the 2D sector field of the same seed).
    * ``{"kind": "bump", "amplitude": a, "width": w, "center": [...]}``
      — a single smooth localized bump (named data for probe runs).

    The same seed always yields bitwise-identical values.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise GeometryError("initial-data spec must be a mapping with a 'kind'")
    kind = spec["kind"]

    if kind == "constant":
        return geom.constant(_as_finite(spec.get("value", 0.0), "constant value"))

    if kind == "random":
        seed = _as_int(spec.get("seed", 0), "seed")
        amplitude = _as_finite(spec.get("amplitude", 0.1), "amplitude")
        cutoff = _as_int(spec.get("cutoff", 4), "cutoff")
        if cutoff < 1:
            raise GeometryError("cutoff frequency must be >= 1")
        if geom.kind == SPHERE_REDUCED:
            return ScalarField(geom, _random_sphere(geom, seed, amplitude, cutoff))
        if geom.kind == HEISENBERG_SECTOR:
            return ScalarField(geom, _random_planar(geom, seed, amplitude, cutoff))
        cutoff_t = _as_int(spec.get("cutoff_t", 0), "cutoff_t")
        xs = geom.axes()[0]
        return ScalarField(
            geom, _random_lattice(geom, seed, amplitude, cutoff, cutoff_t, xs))

    if kind == "bump":
        amplitude = _as_finite(spec.get("amplitude", 0.1), "amplitude")
        width = _as_finite(spec.get("width", 0.15), "bump width")
        if width <= 0:
            raise GeometryError("bump width must be positive")
        if geom.kind == SPHERE_REDUCED:
            center = _as_finite_tuple(spec.get("center", [0.5]), 1, "bump center")
        else:
            default = [0.5 * geom.periods[0], 0.5 * geom.periods[1]]
            center = _as_finite_tuple(spec.get("center", default), 2, "bump center")
        return ScalarField(geom, _bump(geom, center, amplitude, width))

    raise GeometryError(f"unknown initial-data kind {kind!r}")


def _planar_modes(cutoff):
    """Fixed enumeration of the nonzero half-plane modes up to a cutoff."""
    modes = [(0, n) for n in range(1, cutoff + 1)]
    for m in range(1, cutoff + 1):
        for n in range(-cutoff, cutoff + 1):
            modes.append((m, n))
    return modes


def _random_planar(geom, seed, amplitude, cutoff, xs=None, ys=None):
    """Band-limited random field on a periodic (x, y) grid.

    Shared by the 2D sector and the vertical-invariant part of the 3D
    lattice so that equal seeds produce cell-for-cell equal values.
    """
    px, py = geom.periods[0], geom.periods[1]
    if xs is None:
        xs = np.arange(geom.resolution[0]) * (px / geom.resolution[0])
    if ys is None:
        ys = np.arange(geom.resolution[1]) * (py / geom.resolution[1])
    x, y = np.meshgrid(xs, ys, indexing="ij")
    rng = np.random.default_rng(seed)
    modes = _planar_modes(cutoff)
    scale = amplitude / np.sqrt(len(modes))
    out = np.zeros_like(x)
    for m, n in modes:
        a, b = rng.standard_normal(2)
        phase = 2.0 * np.pi * (m * x / px + n * y / py)
        out += scale * (a * np.cos(phase) + b * np.sin(phase))
    return out


def _random_sphere(geom, seed, amplitude, cutoff):
    s = geom.axes()[0]
    rng = np.random.default_rng(seed)
    scale = amplitude / np.sqrt(cutoff)
    out = np.zeros_like(s)
    for n in range(1, cutoff + 1):
        a = rng.standard_normal()
        out += scale * a * np.cos(n * np.pi * s)
    return out


def lattice_mode(geom: ModelGeometry, ell: int, n0: int):
    """A smooth complex mode on the twisted 3D quotient, as a callable.

    The mode with vertical frequency ell and planar offset n0 is

        f(x, y, tau) = exp(2 pi i ell tau / Lt) * g(x, y),
        g(x, y) = sum_r h(x - (r + 1/2) Px) exp(2 pi i (n0 + r ell k) y / Py),

    with h a Gaussian window and k the lattice degree.  The window sum
    gives g(x + Px, y) = exp(2 pi i ell k y / Py) g(x, y), which is the
    exact factor the twisted x-wrap demands, so f satisfies the deck
    identity f(x + Px, y, tau - 4 Px y) = f(x, y, tau) to rounding (the
    truncated window terms are below 1e-150 on the fundamental domain).
    """
    if geom.kind != HEISENBERG_LATTICE:
        raise GeometryError("lattice modes are only defined on the 3D lattice")
    px, py, lt = geom.periods
    k_deg = geom.lattice_degree
    sigma = px / 6.0

    def mode(x, y, tau):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        tau = np.asarray(tau, dtype=float)
        g = np.zeros(np.broadcast(x, y, tau).shape, dtype=complex)
        for r in range(-4, 5):
            window = np.exp(-0.5 * ((x - (r + 0.5) * px) / sigma) ** 2)
            g = g + window * np.exp(2j * np.pi * (n0 + r * ell * k_deg) * y / py)
        return np.exp(2j * np.pi * ell * tau / lt) * g

    return mode


def _random_lattice(geom, seed, amplitude, cutoff, cutoff_t, xs):
    """Random lattice field: planar modes plus twisted vertical modes.

    The planar (vertical-invariant) part reuses the 2D generator and is
    broadcast along tau; the vertical part combines the real and
    imaginary parts of ``lattice_mode`` samples with seeded Gaussian
    coefficients.
    """
    nx, ny, nt = geom.resolution

    planar = _random_planar(geom, seed, amplitude, cutoff)
    out = np.repeat(planar[:, :, None], nt, axis=2)
    if cutoff_t < 1:
        return out

    ys = np.arange(ny) * (geom.periods[1] / ny)
    taus = np.arange(nt) * (geom.periods[2] / nt)
    x, y, tau = np.meshgrid(xs, ys, taus, indexing="ij")
    rng = np.random.default_rng(seed + 0x5EED)
    scale = amplitude / np.sqrt(cutoff_t)
    for ell in range(1, cutoff_t + 1):
        n0 = int(rng.integers(-cutoff, cutoff + 1))
        c_re, c_im = rng.standard_normal(2)
        atom = lattice_mode(geom, ell, n0)(x, y, tau)
        out += scale * (c_re * atom.real + c_im * atom.imag)
    return out


def _bump(geom, center, amplitude, width):
    if geom.kind == SPHERE_REDUCED:
        s = geom.axes()[0]
        return amplitude * np.exp(-((s - center[0]) / width) ** 2)
    px, py = geom.periods[0], geom.periods[1]
    cx, cy = center
    xs, ys = geom.axes()[0], geom.axes()[1]
    x, y = np.meshgrid(xs, ys, indexing="ij")
    # periodic-smooth localized profile
    arg = (np.sin(np.pi * (x - cx) / px) ** 2
           + np.sin(np.pi * (y - cy) / py) ** 2) / width**2
    planar = amplitude * np.exp(-arg)
    if geom.kind == HEISENBERG_SECTOR:
        return planar
    return np.repeat(planar[:, :, None], geom.resolution[2], axis=2)
