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
the constant ``cell_weight`` and plain sums integrate exactly linearly.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .conventions import HEISENBERG_VOLUME_WEIGHT, SPHERE_KAPPA, _shown

__all__ = ["HEISENBERG_SECTOR", "HEISENBERG_LATTICE", "SPHERE_REDUCED",
           "GeometryError", "ModelGeometry", "ScalarField", "build_geometry",
           "integrate", "initial_data", "lattice_mode"]

HEISENBERG_SECTOR = "HeisenbergSector2D"
HEISENBERG_LATTICE = "HeisenbergLattice3D"
SPHERE_REDUCED = "SphereReduced1D"

KNOWN_KINDS = (HEISENBERG_SECTOR, HEISENBERG_LATTICE, SPHERE_REDUCED)

MIN_RESOLUTION = 4

_GEOMETRY_KEYS = {
    HEISENBERG_SECTOR: ("kind", "resolution", "periods", "t_fiber"),
    HEISENBERG_LATTICE: ("kind", "resolution", "periods"),
    SPHERE_REDUCED: ("kind", "resolution"),
}


class GeometryError(ValueError):
    """Invalid geometry description."""


@dataclass(frozen=True)
class ModelGeometry:
    """An immutable discretized background model: a hashable value,
    complete when ``build_geometry`` returns it, and equal to any other
    geometry built from the same description.

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
    spacing : tuple of float
        Cell width per grid axis: (dx, dy) on the sector, (dx, dy, dtau)
        on the lattice, (ds,) = (1/n,) on the sphere.
    cell_weight : float
        Quadrature weight of a single cell: the volume-form weight per
        coordinate volume (4 on the Heisenberg kinds, kappa = pi^2 on the
        sphere kind) times the coordinate volume of a cell (dx dy t_fiber
        on the sector, dx dy dtau on the lattice, ds on the sphere).
    background_curvature : float
        Curvature of the background structure: 0 for the flat kinds, the
        runtime-calibrated positive constant for the sphere kind.
    t_wrap_shift : int
        Lattice only: integer tau-cell shift applied per y-cell on an
        x-wrap (0 for the other kinds).
    shift_unit : int
        Lattice only: tau-cells a Y step moves per x-cell, 4 dx dy / dtau
        (0 for the other kinds).
    lattice_degree : int
        Lattice only: the degree 4 Px Py / Lt of the quotient (0 for the
        other kinds).
    """

    kind: str
    resolution: tuple
    periods: tuple
    spacing: tuple
    cell_weight: float
    background_curvature: float = 0.0
    t_wrap_shift: int = 0
    shift_unit: int = 0
    lattice_degree: int = 0
    # lattice gather tables, derived from the fields above, so left out of
    # == and the hash (arrays have no truth value and no hash)
    _gather: dict = dataclass_field(default_factory=dict, repr=False, compare=False)

    # -- basic helpers -------------------------------------------------

    def axes(self):
        """Cell-center coordinate arrays, one per axis."""
        if self.kind == SPHERE_REDUCED:
            n = self.resolution[0]
            return ((np.arange(n) + 0.5) / n,)
        out = []
        for n, p in zip(self.resolution, self.periods):
            out.append(np.arange(n) * (p / n))
        return tuple(out)

    def constant(self, value: float) -> "ScalarField":
        return ScalarField(self, np.full(self.resolution, float(value)))

    # -- grid shifts along the horizontal frame flows ------------------

    def shift(self, values: np.ndarray, axis: int, step: int,
              out: np.ndarray | None = None) -> np.ndarray:
        """Values of a field at the point one frame-flow step away.

        ``shift(v, axis, +1)[p] = v[S_axis(p)]`` where S_axis moves one
        grid cell along the X (axis 0) or Y (axis 1) flow, or one cell
        along the vertical direction (axis 2, lattice only); ``step`` is
        +1 or -1.  Any other step, and any axis outside
        ``range(len(resolution))``, raises ``GeometryError``.  On the 2D
        sector and on the lattice X and tau axes this is the periodic
        shift ``np.roll(values, -step, axis)`` done as two slice copies;
        on the lattice X axis the one slab whose neighbour lies across the
        x-wrap is then overwritten by a precomputed gather carrying the
        deck twist.  Only the lattice Y flow, whose tau-offset depends on
        x, gathers the whole grid.  Every lattice shift commutes exactly
        with the deck transformations.  The result is written into ``out``,
        a C-contiguous float array of the grid's shape that shares no
        memory with ``values``, and returned; without ``out`` it is a
        fresh array.  Callers may write either in place.
        """
        if self.kind == SPHERE_REDUCED:
            raise GeometryError("grid shifts are not defined on the sphere kind")
        if not 0 <= axis < len(self.resolution):
            raise GeometryError(
                f"grid shifts move along axis 0 to {len(self.resolution) - 1}, "
                f"got axis {_shown(axis)}")
        if step not in (1, -1):
            raise GeometryError(f"grid shifts move one cell (step +-1), got {_shown(step)}")
        lattice = self.kind == HEISENBERG_LATTICE
        # the gather tables hold only in-range indices, and mode="wrap"
        # writes into ``out`` directly where "raise" buffers a copy
        if lattice and axis == 1:
            return values.take(self._gather[(1, step)], out=out, mode="wrap")
        if out is None:
            out = np.empty_like(values)
        src, dst = values.swapaxes(0, axis), out.swapaxes(0, axis)
        n = len(src)
        k = step % n
        dst[:n - k] = src[k:]
        dst[n - k:] = src[:k]
        if lattice and axis == 0:
            values.take(self._gather[(0, step)], out=out[-1 if step > 0 else 0],
                        mode="wrap")
        return out

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
        return _reduce_index(self.resolution, self.t_wrap_shift, i, j, k)


def _reduce_index(resolution, t_wrap_shift, i, j, k):
    """``ModelGeometry.reduce_index`` of a lattice with these numbers."""
    nx, ny, nt = resolution
    qx, i0 = np.divmod(i, nx)
    j0 = j % ny
    k0 = (k + qx * j0 * t_wrap_shift) % nt
    return i0, j0, k0


def _lattice_gathers(resolution, t_wrap_shift, s_unit) -> dict:
    """Flat gather tables of the lattice shifts, keyed by (axis, step),
    for the X seam slab and the whole Y flow.  Nothing writes them, but
    they stay writeable: ``take`` copies a read-only index array on every
    call, a grid-sized allocation per Y shift."""
    nx, ny, nt = resolution
    i, j, k = np.ogrid[:nx, :ny, :nt]
    targets = {
        # X flow across the seam: the last slab (+1) or the first (-1)
        # reads the slab on the other side of the x-wrap, tau-shifted by
        # the deck twist; every other X and tau neighbour is a slice copy.
        (0, 1): (nx, j[0], k[0]),
        (0, -1): (-1, j[0], k[0]),
        # Y flow: (x, y, tau) -> (x, y +- dy, tau -+ 4 x dy); the tau
        # offset is i*s_unit cells, exact by the grid constraint.
        (1, 1): (i, j + 1, k - i * s_unit),
        (1, -1): (i, j - 1, k + i * s_unit),
    }
    gather = {}
    for key, idx in targets.items():
        gather[key] = np.ravel_multi_index(
            _reduce_index(resolution, t_wrap_shift, *idx), resolution)
    return gather


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
    raise GeometryError(f"{what} must be an integer, got {_shown(value)}")


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
    raise GeometryError(f"{what} must be a finite number, got {_shown(value)}")


def _as_finite_tuple(value, n_axes, what):
    if not isinstance(value, (list, tuple, np.ndarray)) or len(value) != n_axes:
        raise GeometryError(f"{what} must be a list of {n_axes} numbers, got {_shown(value)}")
    return tuple(_as_finite(v, what) for v in value)


def _refuse_unread_keys(spec: dict, read: tuple, what: str) -> None:
    """Raises ``GeometryError`` naming the keys of ``spec`` not in
    ``read``: a misspelled key would otherwise leave its default in
    place without a word."""
    unread = sorted(set(spec) - set(read), key=str)
    if unread:
        raise GeometryError(f"{what} does not read the keys {_shown(unread)}")


def build_geometry(config: dict) -> ModelGeometry:
    """Build a fully initialized geometry from a JSON-style description.

    Keys: ``kind`` (required), ``resolution`` (int or list), ``periods``
    (list, Heisenberg kinds only), and for the 2D sector an optional
    ``t_fiber`` (vertical fiber length, default 1.0).

    Raises ``GeometryError`` for an unknown kind, a key the kind does not
    read, a resolution below 4 cells per axis, an X or Y cell spacing
    whose square is 0 or not finite, or a 3D lattice whose grid cannot
    represent the twisted identification by whole-cell shifts.
    """
    if not isinstance(config, dict):
        raise GeometryError("geometry description must be a mapping")
    kind = config.get("kind")
    if kind not in KNOWN_KINDS:
        raise GeometryError(f"unknown kind {_shown(kind)}; expected one of {KNOWN_KINDS}")
    _refuse_unread_keys(config, _GEOMETRY_KEYS[kind], f"geometry kind {kind!r}")

    if kind == SPHERE_REDUCED:
        (n,) = _as_int_tuple(config.get("resolution", 64), 1, "resolution")
        if n < MIN_RESOLUTION:
            raise GeometryError(f"resolution too small: {_shown(n)} < {MIN_RESOLUTION}")
        from .operators import calibrate_sphere_curvature  # deferred: cycle-free
        return ModelGeometry(
            kind=kind,
            resolution=(n,),
            periods=(1.0,),
            spacing=(1.0 / n,),
            cell_weight=SPHERE_KAPPA * (1.0 / n),
            background_curvature=calibrate_sphere_curvature(),
        )

    n_axes = 2 if kind == HEISENBERG_SECTOR else 3
    resolution = _as_int_tuple(config.get("resolution", 32), n_axes, "resolution")
    if min(resolution) < MIN_RESOLUTION:
        raise GeometryError(
            f"resolution too small: ({', '.join(map(_shown, resolution))}) "
            f"(minimum {MIN_RESOLUTION} per axis)")

    periods = _as_finite_tuple(config.get("periods", [1.0] * n_axes), n_axes, "periods")
    if min(periods) <= 0:
        raise GeometryError("periods must be positive")
    dx, dy = periods[0] / resolution[0], periods[1] / resolution[1]
    for axis, d in (("X", dx), ("Y", dy)):
        # the stencil and the stability symbol divide by the square
        if not 0.0 < d * d < math.inf:
            raise GeometryError(
                f"degenerate {axis} cell spacing {d!r}: its square {d * d!r} "
                "must be positive and finite")

    if kind == HEISENBERG_SECTOR:
        t_fiber = _as_finite(config.get("t_fiber", 1.0), "t_fiber")
        if t_fiber <= 0:
            raise GeometryError("t_fiber must be positive")
        return ModelGeometry(
            kind=kind,
            resolution=resolution,
            periods=(periods[0], periods[1], t_fiber),
            spacing=(dx, dy),
            cell_weight=HEISENBERG_VOLUME_WEIGHT * (dx * dy * t_fiber),
        )

    # 3D lattice
    px, py, lt = periods
    nx, ny, nt = resolution
    dtau = lt / nt

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

    t_wrap_shift = s_unit * nx
    return ModelGeometry(
        kind=kind,
        resolution=resolution,
        periods=periods,
        spacing=(dx, dy, dtau),
        cell_weight=HEISENBERG_VOLUME_WEIGHT * (dx * dy * dtau),
        t_wrap_shift=t_wrap_shift,
        shift_unit=s_unit,
        lattice_degree=degree,
        _gather=_lattice_gathers(resolution, t_wrap_shift, s_unit),
    )


# ---------------------------------------------------------------------------
# quadrature


def _weighted_sum(geom: ModelGeometry, values: np.ndarray) -> float:
    """Plain cell sum times the constant cell weight; exactly linear in
    the values.  Non-finite summands pass through as the flow's blow-up
    signal.  ``np.add.reduce`` is the reduction ``ndarray.sum`` runs,
    without its Python wrapper."""
    return float(np.add.reduce(values, axis=None) * geom.cell_weight)


def integrate(f: ScalarField) -> float:
    """Integral of f against the background volume form."""
    if not f.is_finite():
        raise ValueError("integrate: non-finite field values")
    return _weighted_sum(f.geometry, f.values)


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

    A key the kind does not read raises ``GeometryError``.  The same seed
    always yields bitwise-identical values.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise GeometryError("initial-data spec must be a mapping with a 'kind'")
    kind = spec["kind"]

    if kind == "constant":
        _refuse_unread_keys(spec, ("kind", "value"), "initial-data kind 'constant'")
        return geom.constant(_as_finite(spec.get("value", 0.0), "constant value"))

    if kind == "random":
        read = ("kind", "seed", "amplitude", "cutoff")
        if geom.kind == HEISENBERG_LATTICE:
            read += ("cutoff_t",)
        _refuse_unread_keys(spec, read, f"initial-data kind 'random' on {geom.kind}")
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
        return ScalarField(
            geom, _random_lattice(geom, seed, amplitude, cutoff, cutoff_t))

    raise GeometryError(f"unknown initial-data kind {_shown(kind)}")


def _planar_modes(cutoff):
    """Fixed enumeration of the nonzero half-plane modes up to a cutoff."""
    modes = [(0, n) for n in range(1, cutoff + 1)]
    for m in range(1, cutoff + 1):
        for n in range(-cutoff, cutoff + 1):
            modes.append((m, n))
    return modes


def _random_planar(geom, seed, amplitude, cutoff):
    """Band-limited random field on a periodic (x, y) grid.

    Shared by the 2D sector and the vertical-invariant part of the 3D
    lattice so that equal seeds produce cell-for-cell equal values.
    """
    px, py = geom.periods[0], geom.periods[1]
    x, y = np.meshgrid(*geom.axes()[:2], indexing="ij")
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
        g = np.zeros(np.broadcast(x, y).shape, dtype=complex)
        for r in range(-4, 5):
            window = np.exp(-0.5 * ((x - (r + 0.5) * px) / sigma) ** 2)
            g = g + window * np.exp(2j * np.pi * (n0 + r * ell * k_deg) * y / py)
        return np.exp(2j * np.pi * ell * tau / lt) * g

    return mode


def _random_lattice(geom, seed, amplitude, cutoff, cutoff_t):
    """Random lattice field: planar modes plus twisted vertical modes.

    The planar (vertical-invariant) part reuses the 2D generator and is
    broadcast along tau; the vertical part combines the real and
    imaginary parts of ``lattice_mode`` samples with seeded Gaussian
    coefficients.  The modes are sampled on the sparse (x, y, tau) grid,
    so each window is evaluated per x and each exponential per y; the
    values are those of the dense grid, cell for cell.
    """
    planar = _random_planar(geom, seed, amplitude, cutoff)
    out = np.repeat(planar[:, :, None], geom.resolution[2], axis=2)
    if cutoff_t < 1:
        return out

    x, y, tau = np.meshgrid(*geom.axes(), indexing="ij", sparse=True)
    rng = np.random.default_rng(seed + 0x5EED)
    scale = amplitude / np.sqrt(cutoff_t)
    for ell in range(1, cutoff_t + 1):
        n0 = int(rng.integers(-cutoff, cutoff + 1))
        c_re, c_im = rng.standard_normal(2)
        atom = lattice_mode(geom, ell, n0)(x, y, tau)
        out += scale * (c_re * atom.real + c_im * atom.imag)
    return out

