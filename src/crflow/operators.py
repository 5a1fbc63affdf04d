"""Discrete horizontal calculus on the model geometries.

The sublaplacian here is assembled in divergence form: a difference
onto edges (or faces), a diagonal face weight, and the adjoint
difference back to cells.  That structural choice buys the two exact
discrete properties the flow rests on:

* self-adjointness of the background sublaplacian, to rounding;
* constants are annihilated exactly (differences of equal values).

The flow's volume conservation rests on the first: its right-hand side
never forms the conformal sublaplacian, and its zero weighted mean
follows from the self-adjointness of L-hat = 4 * sublap + What
(derivation in ``crflow.flow``).  The conformally weighted operator
is the check-only ``invariants.conformal_sublap``.

Conventions (see ``crflow.conventions``): the sublaplacian is
positive, -(X^2 + Y^2)/2 on the flat group and -c_s (s(1-s) f')' with
c_s = 8 on the reduced sphere; the covariant second-order operator is
L = 4 * sublap + W; curvature of a rescaled structure e^{2 lambda} is
computed through the conformal-change identity

    W = e^{-3 lambda} (4 * sublap(e^lambda) + What * e^lambda),

with What the background constant: 0 on the flat kinds, and on the
sphere ``calibrate_sphere_curvature()``, measured from the extremal
profile once per process and cached.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .conventions import HEISENBERG_HORIZONTAL_FACTOR, SPHERE_CS, YAMABE_COEFFICIENT
from .manifold import (
    HEISENBERG_SECTOR,
    SPHERE_REDUCED,
    ModelGeometry,
    ScalarField,
)
from .rng import default_rng

__all__ = [
    "CalibrationError",
    "Workspace",
    "sublap",
    "webster_curvature",
    "webster_pointwise",
    "extremal_profile",
    "calibrate_sphere_curvature",
    "linear_solve",
    "spectral_basis",
    "shifted_bilap_inverse",
    "stability_symbol_max",
]


class CalibrationError(RuntimeError):
    """The calibration pipeline produced a non-constant result."""


# ---------------------------------------------------------------------------
# divergence-form assembly


def _operand(x: float) -> np.ndarray:
    """x as a read-only 0-d float64 array: a ufunc takes it as it is, but
    converts a Python float operand on every call, at about the cost of
    a 64-cell array's arithmetic.  Both are the float64 x, bit for bit."""
    a = np.array(x, dtype=float)
    a.setflags(write=False)
    return a


_MINUS_CS = _operand(-SPHERE_CS * YAMABE_COEFFICIENT)


@functools.lru_cache(maxsize=None)
def _sphere_faces(n: int):
    """Face weights s(1 - s) of the n-cell sphere grid, 0 at both ends.
    Cached per grid; read-only."""
    faces = np.arange(n + 1) / n        # exact 0.0 and 1.0 endpoints
    mu = faces * (1.0 - faces)          # degenerate weight, 0 at both ends
    mu.setflags(write=False)
    return mu


@functools.lru_cache(maxsize=None)
def _flat_constants(spacing: tuple):
    """(divisors, factor): a flat stencil call divides each axis term by
    its divisor (not None), then multiplies the sum by the factor.  The
    rule of ``_div_form_values``; cached per grid."""
    d2 = tuple(d * d for d in spacing[:2])
    factor = -HEISENBERG_HORIZONTAL_FACTOR * YAMABE_COEFFICIENT
    divisors = tuple(x / max(d2) for x in d2)
    fold = factor / max(d2)
    if all(abs(math.frexp(x)[0]) == 0.5 for x in (*d2, *divisors, fold)):
        return tuple(None if x == 1.0 else x for x in divisors), fold
    return d2, factor


class Workspace:
    """The grid-sized scratch arrays of one geometry, built once and reused
    by every kernel call that is given them.

    ``e`` and ``r`` hold the stencil's edge differences, ``u``, ``m2``,
    ``em3`` and ``w`` the curvature assembly, ``stage`` the Runge-Kutta
    stage inputs and ``k3`` the third stage and then the fourth.  Between
    stencil calls ``e`` is the flow's scratch for the rhs's products and
    the diagnostics' integrands.  A kernel writes only its temporaries
    here, so what a workspace holds is valid only until the next call
    that is given it; anything a caller may keep is a fresh array.

    ``m2`` is written only where a background term What * e^{-2 lambda}
    is formed, on the sphere: a flat run never makes its pages resident.

    On the sphere ``r`` is the stencil's zero-padded flux, n + 1 faces
    whose two end faces no call writes, and ``sphere`` holds what the
    stencil reads on every call: the views r[1:-1], r[1:] and r[:-1],
    the interior face weights and the spacing ds as an ``_operand``.  On
    the flat kinds ``sphere`` is None.
    """

    __slots__ = ("e", "r", "u", "m2", "em3", "w", "stage", "k3", "sphere")

    def __init__(self, geom: ModelGeometry):
        for name in ("e", "u", "m2", "em3", "w", "stage", "k3"):
            setattr(self, name, np.empty(geom.resolution))
        if geom.kind == SPHERE_REDUCED:
            n = geom.resolution[0]
            r = self.r = np.zeros(n + 1)
            self.sphere = (r[1:-1], r[1:], r[:-1], _sphere_faces(n)[1:-1],
                           _operand(geom.spacing[0]))
        else:
            self.r = np.empty(geom.resolution)
            self.sphere = None


def _div_form_values(geom: ModelGeometry, v: np.ndarray, *,
                     out: np.ndarray | None = None,
                     work: Workspace | None = None) -> np.ndarray:
    """Apply 4 * the positive background sublaplacian, L-hat's second-order
    part, to the float64 value array ``v``.

    Flux form: each edge difference e = v[S p] - v[p] is computed once
    and read back at the cell behind, e[S^-1 p] = v[p] - v[S^-1 p], so
    each axis term t is bitwise the three-point (v[S p] - v) - (v -
    v[S^-1 p]) of ``invariants.three_point_div_form``.

    Never writes ``v``.  The result is written into ``out`` and returned,
    or into a fresh array without it; ``out`` shares no memory with ``v``
    or ``work``'s edge arrays ``e`` and ``r`` (a workspace is built when
    ``work`` is None).  The flat kinds work the X term in ``out`` and the
    Y term in ``e``, with ``r`` for the edges read back; the sphere,
    given ``work``, allocates nothing.

    The bits are those of (t_x / dx^2 + t_y / dy^2) * -1/2 on the
    flat kinds and (t * -c_s) / ds on the sphere, each times 4.  Scaling
    by a power of two commutes with rounding unless a value overflows or
    is subnormal.  So the sphere multiplies by -c_s * 4 at once and the
    flat sum by -2; where every d^2, divisor d^2 / D (D = max d^2) and
    -2 / D are finite powers of two, a term is divided by its divisor
    (not by 1) and the sum multiplied by -2 / D instead.  The bits can
    differ only where a stencil intermediate overflows or is subnormal:
    e^lambda above about 1e304 or below about 1e-300, far past the
    |lambda| <= 20 blow-up threshold.
    """
    if work is None:
        work = Workspace(geom)
    if geom.kind == SPHERE_REDUCED:
        d, upper, lower, mu, ds = work.sphere
        np.subtract(v[1:], v[:-1], out=d)
        d *= mu
        d /= ds
        out = np.subtract(upper, lower, out=out)
        out *= _MINUS_CS
        out /= ds
        return out

    shift = geom.shift
    if out is None:
        out = np.empty(geom.resolution)
    divisors, factor = _flat_constants(geom.spacing)
    r = work.r
    for axis in (0, 1):
        e = out if axis == 0 else work.e
        shift(v, axis, 1, out=e)
        e -= v
        shift(e, axis, -1, out=r)
        e -= r
        if divisors[axis] is not None:
            e /= divisors[axis]
        if axis == 1:
            out += e
    out *= factor
    return out


def sublap(f: ScalarField) -> ScalarField:
    """Positive background sublaplacian of f.

    Flat kinds: -(X^2 + Y^2)/2 through the frame-flow shifts (the plain
    five-point stencil on the vertical-invariant sector).  Sphere kind:
    -c_s (s(1-s) f')' with the degenerate face weight vanishing at both
    endpoints, so no boundary condition is ever imposed.  The stencil's
    4 * sublap over 4, exact short of overflow and subnormals.
    """
    if not f.is_finite():
        raise ValueError("sublap: non-finite field values")
    values = _div_form_values(f.geometry, f.values)
    return ScalarField(f.geometry, values / YAMABE_COEFFICIENT)


# ---------------------------------------------------------------------------
# curvature


def _webster_core(geom: ModelGeometry, lam_values: np.ndarray, *,
                  work: Workspace | None = None):
    """Shared curvature assembly: returns (u, bg, em3, w) with u = e^lam,
    bg = What * m2 (m2 = e^{-2 lam}) or None, em3 = e^{-3 lam} and w the
    curvature values.

    The background term is taken as What * m2 (not em3 * What * u), so a
    constant lambda = c yields w bitwise equal to e^{-2c} * What, and the
    flow right-hand side of constant states cancels to exactly zero.

    bg is None, and m2 never computed, when What == 0 (the flat kinds):
    w gets + 0.0 in place of the background term, at any lambda, so a
    -0.0 curvature reads +0.0.

    A kernel, run under the caller's errstate: overflow is the blow-up
    signal.  The four arrays are ``work``'s ``u``, ``m2`` (sphere only),
    ``em3`` and ``w``, scratch for the caller until its next call
    on ``work`` (built when None).  ``lam_values`` is never written and
    shares no memory with ``work``.
    """
    if work is None:
        work = Workspace(geom)
    u = np.exp(lam_values, out=work.u)
    em3 = np.multiply(lam_values, -3.0, out=work.em3)
    np.exp(em3, out=em3)
    w = _div_form_values(geom, u, out=work.w, work=work)
    w *= em3
    if geom.background_curvature == 0.0:
        w += 0.0
        return u, None, em3, w
    bg = np.multiply(lam_values, -2.0, out=work.m2)
    np.exp(bg, out=bg)
    bg *= geom.background_curvature
    w += bg
    return u, bg, em3, w


def webster_curvature(lam: ScalarField) -> ScalarField:
    """Scalar curvature of the rescaled structure e^{2 lambda}.

    Conformal-change identity with u = e^lambda:

        W = u^{-3} (4 * sublap(u) + What * u).

    A constant lambda = c therefore gives exactly e^{-2c} * What (the
    sublaplacian of a constant vanishes identically), and on the flat
    kinds constants have W identically zero.
    """
    if not lam.is_finite():
        raise ValueError("webster_curvature: non-finite conformal exponent")
    with np.errstate(over="ignore", invalid="ignore"):
        w = _webster_core(lam.geometry, lam.values)[3]
    return ScalarField(lam.geometry, w)


def webster_pointwise(u, p, h: float):
    """Curvature of the rescaling u^2 of the flat structure at points p.

    Mesh-free: three-point second differences along the exact flows of
    the frame fields X = d/dx + 2y d/dt and Y = d/dy - 2x d/dt of the full
    group, evaluated on the callable ``u(t, x, y)``.  ``p = (t, x, y)``
    may hold arrays of points, broadcast together; ``u`` must then accept
    arrays.  Error O(h^2).
    """
    t0, x0, y0 = (np.asarray(c, dtype=float) for c in p)
    if h <= 0:
        raise ValueError("step h must be positive")

    u0 = np.asarray(u(t0, x0, y0), dtype=float)
    sx = [np.asarray(u(t0 + 2.0 * y0 * s, x0 + s, y0), dtype=float) for s in (-h, h)]
    sy = [np.asarray(u(t0 - 2.0 * x0 * s, x0, y0 + s), dtype=float) for s in (-h, h)]
    if min(v.min() for v in (u0, *sx, *sy)) <= 0.0:
        raise ValueError("u must be positive near p")
    d2x = (sx[1] - 2.0 * u0 + sx[0]) / (h * h)
    d2y = (sy[1] - 2.0 * u0 + sy[0]) / (h * h)

    sublap_u = -HEISENBERG_HORIZONTAL_FACTOR * (d2x + d2y)   # flat: no background
    return YAMABE_COEFFICIENT * sublap_u / u0**3


def extremal_profile(t, x, y):
    """The positive profile whose square rescales the flat structure to
    the round one: 1 / sqrt(t^2 + (1 + x^2 + y^2)^2)."""
    return 1.0 / np.sqrt(t * t + (1.0 + x * x + y * y) ** 2)


# The calibration's sample: points, first step, generator seed, and the
# relative spread above which the measured values are not a constant.
_CALIBRATION_POINTS = 128
_CALIBRATION_STEP = 0.02
_CALIBRATION_SEED = 20210818
_CALIBRATION_REL_STD_TOL = 1e-3


def _measure_curvature(profile) -> tuple:
    """(mean, relative spread) of the mesh-free curvature of ``profile``.

    Evaluates ``webster_pointwise`` at 128 quasi-random points, at steps
    h = 0.02 and h/2, and extrapolates the O(h^2) error away.  Raises
    ``CalibrationError`` unless the values are finite and spatially
    constant: a relative standard deviation <= 1e-3, or an absolute one
    <= 1e-9, which admits the exactly-flat baseline (all samples 0).
    """
    h = _CALIBRATION_STEP
    rng = default_rng(_CALIBRATION_SEED)
    points = tuple(rng.uniform(-a, a, _CALIBRATION_POINTS)
                   for a in (2.0, 1.5, 1.5))   # t, x, y
    w_h, w_h2 = (webster_pointwise(profile, points, step) for step in (h, 0.5 * h))
    values = (4.0 * w_h2 - w_h) / 3.0   # eliminate the O(h^2) term

    mean = float(values.mean())
    if not np.isfinite(values).all() or not np.isfinite(mean):
        raise CalibrationError("calibration produced non-finite values")
    spread = float(values.std())
    if spread > max(_CALIBRATION_REL_STD_TOL * abs(mean), 1e-9):
        raise CalibrationError(
            f"calibrated curvature is not spatially constant: std {spread:.3e} "
            f"about mean {mean:.6e} exceeds the {_CALIBRATION_REL_STD_TOL:.1e} "
            f"relative tolerance")
    return mean, (spread / abs(mean) if mean != 0.0 else math.inf)


@functools.lru_cache(maxsize=None)
def calibrate_sphere_curvature() -> float:
    """Pin the background curvature of the sphere kind by measurement.

    The mean of ``_measure_curvature(extremal_profile)``, which must be
    positive; measured on first use and cached.  The constant is an
    *output* of the conventions, never an input, so no test may assert
    its numeric value, only its constancy, positivity and scaling
    behavior.

    Raises ``CalibrationError`` if the values fail to be constant or
    positive: that means the frame conventions are mutually inconsistent
    (a bug), not bad data.
    """
    mean = _measure_curvature(extremal_profile)[0]
    if mean <= 0.0:
        raise CalibrationError(
            f"calibrated background curvature is not positive: {mean!r}")
    return mean


def linear_solve(inverse, b: np.ndarray) -> np.ndarray:
    """The solution inverse(b) of a linear system given by its exact
    ``inverse``, a map of value arrays that returns a fresh one: the
    caller owns the solution.

    A function of its own, and nothing more, so that ``perfbench``'s
    tracer can time each solve by this name and count the calls of its
    first argument."""
    return inverse(b)


def _sector_basis(geom: ModelGeometry):
    from numpy import fft    # loaded only on this path, never at import

    nx, ny = geom.resolution
    dx, dy = geom.spacing
    h = HEISENBERG_HORIZONTAL_FACTOR
    sx = np.sin(np.pi * np.arange(nx) / nx)[:, None]
    sy = np.sin(np.pi * np.arange(ny // 2 + 1) / ny)[None, :]   # rfft half
    sigma = h * (4.0 * sx * sx / (dx * dx) + 4.0 * sy * sy / (dy * dy))
    sigma.setflags(write=False)
    return fft.rfft2, functools.partial(fft.irfft2, s=geom.resolution), sigma


def _sphere_basis(geom: ModelGeometry):
    ds = geom.spacing[0]
    mu = _sphere_faces(geom.resolution[0])
    a = (SPHERE_CS / (ds * ds)) * (np.diag(mu[:-1] + mu[1:])
                                   - np.diag(mu[1:-1], 1) - np.diag(mu[1:-1], -1))
    sigma, vecs = np.linalg.eigh(a)
    for arr in (sigma, vecs):
        arr.setflags(write=False)
    return (lambda v: vecs.T @ v), (lambda c: vecs @ c), sigma


def _lattice_basis(geom: ModelGeometry):
    from numpy import fft    # loaded only on this path, never at import

    nx, ny, nt = geom.resolution
    dx, dy = geom.spacing[0], geom.spacing[1]
    h = HEISENBERG_HORIZONTAL_FACTOR
    nl = nt // 2 + 1                           # rfft half of the tau modes
    ells = np.arange(nl)
    steps = ells * geom.lattice_degree % ny    # y-mode drop of one x-wrap
    orders = ny // np.gcd(ny, steps)           # x-wraps until a chain closes
    perm, sigma, blocks = [], [], []
    start = 0
    for order in np.unique(orders):
        ell = ells[orders == order][:, None, None]
        step = steps[orders == order][:, None, None]
        q0 = np.arange(ny // order)[None, :, None]   # one chain per coset
        n = nx * order
        pos = np.arange(n)
        i, r = pos % nx, pos // nx
        q = (q0 - r * step) % ny                      # (ells, chains, n)
        # l i shift_unit mod nt, each factor reduced first: no int64 overflow
        tau = (ell * i % nt) * (geom.shift_unit % nt) % nt
        phase = 2.0 * np.pi * (q / ny - tau / nt)
        diag = h * (2.0 / (dx * dx) + (2.0 - 2.0 * np.cos(phase)) / (dy * dy))
        link = np.roll(np.eye(n), 1, axis=1)          # cell p to cell p + 1
        mats = diag[..., None] * np.eye(n) - (h / (dx * dx)) * (link + link.T)
        w, vecs = np.linalg.eigh(mats.reshape(-1, n, n))
        perm.append(((i * ny + q) * nl + ell).ravel())
        sigma.append(w.ravel())
        vecs.setflags(write=False)
        blocks.append((slice(start, start + w.size), vecs))
        start += w.size
    perm = np.concatenate(perm)
    sigma = np.concatenate(sigma)[:, None]    # broadcasts over (re, im) pairs
    for arr in (perm, sigma):
        arr.setflags(write=False)

    def forward(v: np.ndarray) -> np.ndarray:
        vh = fft.fft(fft.rfft(v, axis=2), axis=1).ravel()[perm]
        x = vh.view(np.float64).reshape(-1, 2)            # (re, im) pairs
        c = np.empty_like(x)
        for sl, q in blocks:    # q: a stack of orthonormal eigenvector columns
            c[sl] = (q.transpose(0, 2, 1) @ x[sl].reshape(len(q), -1, 2)).reshape(-1, 2)
        return c

    def inverse(c: np.ndarray) -> np.ndarray:
        x = np.empty_like(c)
        for sl, q in blocks:
            x[sl] = (q @ c[sl].reshape(len(q), -1, 2)).reshape(-1, 2)
        vh = np.empty(nx * ny * nl, dtype=complex)
        vh[perm] = x.view(complex).ravel()
        return fft.irfft(fft.ifft(vh.reshape(nx, ny, nl), axis=1), n=nt, axis=2)

    return forward, inverse, sigma


@functools.lru_cache(maxsize=None)
def spectral_basis(geom: ModelGeometry):
    """(forward, inverse, sigma) with inverse(sigma * forward(v)) the
    background sublaplacian ``sublap`` of the value array v.
    Built on first use and cached per geometry value, so equal geometries
    share one basis; read-only.

    Sector: ``rfft2`` and the five-point symbol h * sum_axis
    4 sin^2(pi k_a / n_a) / d_a^2.  Sphere: ``eigh`` of the tridiagonal
    operator.  Lattice: an ``rfft`` along tau and an ``fft`` along y make
    the Y shift a phase; the twisted x-wrap then links the x-cells of
    tau-mode l at y-mode q to y-mode q - l * degree, so the operator falls
    apart into real symmetric cyclic tridiagonal chains, each ``eigh``-ed.
    """
    if geom.kind == SPHERE_REDUCED:
        return _sphere_basis(geom)
    if geom.kind == HEISENBERG_SECTOR:
        return _sector_basis(geom)
    return _lattice_basis(geom)


def shifted_bilap_inverse(geom: ModelGeometry, s: float):
    """Exact inverse of v -> v + s * sublap(sublap(v)), as a function of
    value arrays: a division by 1 + s sigma^2 in the spectral basis."""
    forward, inverse, sigma = spectral_basis(geom)
    denom = 1.0 + s * sigma * sigma

    def solve(v: np.ndarray) -> np.ndarray:
        c = forward(v)      # fresh on every basis: divided in place
        c /= denom
        return inverse(c)

    return solve


def stability_symbol_max(geom: ModelGeometry) -> float:
    """Spectral scale of the background sublaplacian, for explicit
    step-size control (``flow.auto_dt``).

    Flat kinds: h * sum_axis 4 / d_a^2, the symbol h * sum_axis
    4 sin^2(.) / d_a^2 with every sine at 1: the largest eigenvalue on
    even grids (to 1 ulp on the lattice, whose spectrum comes from
    ``eigh``), above it on odd ones.
    Sphere kind: the largest diagonal entry of the tridiagonal operator,
    *not* a bound: the largest eigenvalue lies between it and twice it
    (1.81x at 8 cells, 1.97x at 64, 1.99x at 256).
    """
    if geom.kind == SPHERE_REDUCED:
        mu = _sphere_faces(geom.resolution[0])
        ds = geom.spacing[0]
        return float(SPHERE_CS * (mu[:-1] + mu[1:]).max() / (ds * ds))
    dx, dy = geom.spacing[0], geom.spacing[1]
    h = HEISENBERG_HORIZONTAL_FACTOR
    return float(4.0 * h / (dx * dx) + 4.0 * h / (dy * dy))
