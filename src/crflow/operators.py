"""Discrete horizontal calculus on the model geometries.

Every second-order operator here is assembled in divergence form: a
difference onto edges (or faces), a diagonal weight, and the adjoint
difference back to cells.  That single structural choice buys the three
exact discrete properties the whole scheme rests on:

* self-adjointness of the background sublaplacian, and e^{4 lambda}-
  weighted self-adjointness of the conformal one, to rounding;
* constants are annihilated exactly (differences of equal values);
* the image of the conformal sublaplacian has exactly zero
  e^{4 lambda}-weighted mean (telescoping edge sums), which is what
  keeps the flow's volume conservation exact at the semi-discrete level.

Conventions (see ``crflow.conventions``): the sublaplacian is
positive, -(X^2 + Y^2)/2 on the flat group and -c_s (s(1-s) f')' with
c_s = 8 on the reduced sphere; the covariant second-order operator is
L = 4 * sublap + W; curvature of a rescaled structure e^{2 lambda} is
computed through the conformal-change identity

    W = e^{-3 lambda} (4 * sublap(e^lambda) + What * e^lambda),

with What the background constant (0 flat; calibrated on the sphere).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .conventions import (CG_MAX_ITER, CG_TOL, HEISENBERG_HORIZONTAL_FACTOR,
                          SPHERE_CS, YAMABE_COEFFICIENT)
from .manifold import (
    HEISENBERG_SECTOR,
    SPHERE_REDUCED,
    GeometryError,
    ModelGeometry,
    ScalarField,
)

__all__ = [
    "CalibrationError",
    "LinearSolveError",
    "sublap",
    "conformal_sublap",
    "webster_curvature",
    "webster_pointwise",
    "extremal_profile",
    "calibrate_sphere_curvature",
    "yamabe_apply",
    "linear_solve",
    "shifted_bilap_inverse",
    "stability_symbol_max",
]


class CalibrationError(RuntimeError):
    """The calibration pipeline produced a non-constant result."""


class LinearSolveError(RuntimeError):
    """The iterative solver failed to reach the requested residual."""


# ---------------------------------------------------------------------------
# divergence-form assembly


@functools.lru_cache(maxsize=None)
def _sphere_faces(n: int):
    """Face weights s(1 - s) of the n-cell sphere grid, 0 at both ends.
    Cached per grid; read-only."""
    faces = np.arange(n + 1) / n        # exact 0.0 and 1.0 endpoints
    mu = faces * (1.0 - faces)          # degenerate weight, 0 at both ends
    mu.setflags(write=False)
    return mu


def _div_form_values(geom: ModelGeometry, v: np.ndarray, g=None) -> np.ndarray:
    """Apply the (possibly weighted) positive sublaplacian to raw values.

    ``g`` is the cell array of conformal weights e^{2 lambda}; ``None``
    means the background operator.  Edge weights are arithmetic means of
    the two adjacent cells, so the weighted operator with g = 1 runs the
    identical floating-point operations as the background one.

    Flux form: each edge difference e = v[S p] - v[p] (weighted by the
    edge mean of g) is computed once and read back at the cell behind,
    e[S^-1 p] = v[p] - v[S^-1 p], so the result is bitwise the three-point
    ((v[S p] - v) - (v - v[S^-1 p])) and its weighted counterpart.
    """
    if geom.kind == SPHERE_REDUCED:
        n = geom.resolution[0]
        ds = geom.spacing[0]
        mu = _sphere_faces(n)
        d = v[1:] - v[:-1]
        if g is not None:
            d = (0.5 * (g[1:] + g[:-1])) * d
        flux = np.zeros(n + 1)
        flux[1:-1] = mu[1:-1] * d / ds
        return -SPHERE_CS * (flux[1:] - flux[:-1]) / ds

    shift = geom.shift
    acc = np.zeros_like(v)
    for axis in (0, 1):
        d = geom.spacing[axis]
        e = shift(v, axis, 1) - v
        if g is not None:
            e = (0.5 * (g + shift(g, axis, 1))) * e
        acc += (e - shift(e, axis, -1)) / (d * d)
    return -HEISENBERG_HORIZONTAL_FACTOR * acc


def sublap(f: ScalarField) -> ScalarField:
    """Positive background sublaplacian of f.

    Flat kinds: -(X^2 + Y^2)/2 through the frame-flow shifts (the plain
    five-point stencil on the vertical-invariant sector).  Sphere kind:
    -c_s (s(1-s) f')' with the degenerate face weight vanishing at both
    endpoints, so no boundary condition is ever imposed.
    """
    if not f.is_finite():
        raise ValueError("sublap: non-finite field values")
    return ScalarField(f.geometry, _div_form_values(f.geometry, f.values))


def conformal_sublap(lam: ScalarField, f: ScalarField) -> ScalarField:
    """Positive sublaplacian of the rescaled structure e^{2 lambda}.

    Weak form: the operator whose e^{4 lambda}-weighted pairing with g
    equals the e^{2 lambda}-weighted pairing of horizontal gradients.
    Assembled as (divergence form with e^{2 lambda} edge weights) divided
    by the e^{4 lambda} cell mass.  Overflow of the exponentials yields
    non-finite output (a blow-up signal for the caller), never an
    exception.
    """
    if lam.geometry is not f.geometry:
        raise GeometryError("conformal_sublap: fields on different geometries")
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.exp(2.0 * lam.values)
        num = _div_form_values(f.geometry, f.values, g)
        out = num * np.exp(-4.0 * lam.values)
    return ScalarField(f.geometry, out)


# ---------------------------------------------------------------------------
# curvature


def _webster_core(geom: ModelGeometry, lam_values: np.ndarray):
    """Shared curvature assembly: returns (u, m2, em3, w) with u = e^lam,
    m2 = e^{-2 lam}, em3 = e^{-3 lam} and w the curvature values.

    The background term is taken as What * m2 (not em3 * What * u), so a
    constant lambda = c yields w bitwise equal to e^{-2c} * What, and the
    flow right-hand side of constant states cancels to exactly zero.

    A kernel: overflow is the caller's blow-up signal, so callers run it
    under ``np.errstate(over="ignore", invalid="ignore")``.
    """
    u = np.exp(lam_values)
    m2 = np.exp(-2.0 * lam_values)
    em3 = np.exp(-3.0 * lam_values)
    w = em3 * (YAMABE_COEFFICIENT * _div_form_values(geom, u)) \
        + geom.background_curvature * m2
    return u, m2, em3, w


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


def webster_pointwise(u, p, h: float, order: int = 2) -> float:
    """Curvature of the rescaling u^2 of the flat structure at one point.

    Mesh-free: second differences along the exact flows of the frame
    fields X = d/dx + 2y d/dt and Y = d/dy - 2x d/dt of the full group,
    evaluated on the callable ``u(t, x, y)``.  Error O(h^2), or O(h^4)
    with ``order=4`` (wide five-point second differences).
    """
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    t0, x0, y0 = (float(c) for c in p)
    if h <= 0:
        raise ValueError("step h must be positive")

    def along_x(s):
        return float(u(t0 + 2.0 * y0 * s, x0 + s, y0))

    def along_y(s):
        return float(u(t0 - 2.0 * x0 * s, x0, y0 + s))

    u0 = float(u(t0, x0, y0))
    if order == 2:
        sx = [along_x(-h), u0, along_x(h)]
        sy = [along_y(-h), u0, along_y(h)]
        if min(min(sx), min(sy)) <= 0.0:
            raise ValueError("u must be positive near p")
        d2x = (sx[2] - 2.0 * u0 + sx[0]) / (h * h)
        d2y = (sy[2] - 2.0 * u0 + sy[0]) / (h * h)
    else:
        sx = [along_x(k * h) for k in (-2, -1, 1, 2)]
        sy = [along_y(k * h) for k in (-2, -1, 1, 2)]
        if min(min(sx), min(sy), u0) <= 0.0:
            raise ValueError("u must be positive near p")
        d2x = (-sx[3] + 16.0 * sx[2] - 30.0 * u0 + 16.0 * sx[1] - sx[0]) / (12.0 * h * h)
        d2y = (-sy[3] + 16.0 * sy[2] - 30.0 * u0 + 16.0 * sy[1] - sy[0]) / (12.0 * h * h)

    sublap_u = -HEISENBERG_HORIZONTAL_FACTOR * (d2x + d2y)   # flat: no background
    return YAMABE_COEFFICIENT * sublap_u / u0**3


def extremal_profile(t, x, y):
    """The positive profile whose square rescales the flat structure to
    the round one: 1 / sqrt(t^2 + (1 + x^2 + y^2)^2)."""
    return 1.0 / np.sqrt(t * t + (1.0 + x * x + y * y) ** 2)


_CALIBRATION_CACHE: dict = {}


def calibrate_sphere_curvature(candidate=None, n_points: int = 128,
                               h: float = 0.02, seed: int = 20210818,
                               rel_std_tol: float = 1e-3,
                               details: dict | None = None) -> float:
    """Pin the background curvature of the sphere kind by measurement.

    Evaluates the mesh-free curvature of the round-model profile at
    ``n_points`` quasi-random points, at steps h and h/2, extrapolates
    the O(h^2) error away, and demands the result be spatially constant
    (relative standard deviation <= ``rel_std_tol``) and positive.  The
    constant is returned and cached; it is an *output* of the
    conventions, never an input, so no test may assert its numeric
    value, only its constancy, positivity and scaling behavior.

    Raises ``CalibrationError`` if the values fail to be constant —
    that means the frame conventions are mutually inconsistent (a bug),
    not bad data.  ``details``, if given, is filled with the sample
    statistics (used by the command-line calibration report).
    """
    key = (n_points, h, seed, rel_std_tol)
    if candidate is None and details is None and key in _CALIBRATION_CACHE:
        return _CALIBRATION_CACHE[key]

    fn = extremal_profile if candidate is None else candidate
    rng = np.random.default_rng(seed)
    ts = rng.uniform(-2.0, 2.0, n_points)
    xs = rng.uniform(-1.5, 1.5, n_points)
    ys = rng.uniform(-1.5, 1.5, n_points)

    values = np.empty(n_points)
    for i in range(n_points):
        p = (ts[i], xs[i], ys[i])
        w_h = webster_pointwise(fn, p, h)
        w_h2 = webster_pointwise(fn, p, 0.5 * h)
        values[i] = (4.0 * w_h2 - w_h) / 3.0   # eliminate the O(h^2) term

    mean = float(values.mean())
    if not np.isfinite(values).all() or not np.isfinite(mean):
        raise CalibrationError("calibration produced non-finite values")
    spread = float(values.std())
    # Constancy is relative where the constant is away from zero; the
    # absolute floor admits the exactly-flat baseline (all samples 0).
    rel_std = spread / abs(mean) if mean != 0.0 else math.inf
    if details is not None:
        details.update(mean=mean, rel_std=rel_std, n_points=n_points,
                       h=h, min=float(values.min()), max=float(values.max()))
    if spread > max(rel_std_tol * abs(mean), 1e-9):
        raise CalibrationError(
            f"calibrated curvature is not spatially constant: std {spread:.3e} "
            f"about mean {mean:.6e} exceeds the {rel_std_tol:.1e} relative tolerance")
    if candidate is None:
        if mean <= 0.0:
            raise CalibrationError(
                f"calibrated background curvature is not positive: {mean!r}")
        _CALIBRATION_CACHE[key] = mean
    return mean


def yamabe_apply(lam: ScalarField, phi: ScalarField) -> ScalarField:
    """Covariant second-order operator of the rescaled structure:
    4 * conformal_sublap(lambda, phi) + W(lambda) * phi."""
    if lam.geometry is not phi.geometry:
        raise GeometryError("yamabe_apply: fields on different geometries")
    w = webster_curvature(lam)
    lap = conformal_sublap(lam, phi)
    return ScalarField(phi.geometry,
                       YAMABE_COEFFICIENT * lap.values + w.values * phi.values)


def linear_solve(operator, rhs: ScalarField, tol: float = CG_TOL,
                 max_iter: int = CG_MAX_ITER, preconditioner=None) -> ScalarField:
    """Conjugate-gradient solve of a symmetric positive (semi)definite
    grid operator; deterministic.

    ``operator`` maps a value array to a value array.  ``preconditioner``
    maps a residual array to an approximation of the operator's inverse
    applied to it (symmetric positive definite); ``None`` is the identity,
    which is plain CG.  With the exact inverse (``shifted_bilap_inverse``)
    the solve converges after one operator application.  Either way
    convergence is the true relative residual ||b - A x|| <= tol ||b||,
    so the preconditioner can never silently degrade a solve; failure
    raises ``LinearSolveError`` (an inconsistent right-hand side on a
    singular operator lands here).
    """
    precondition = preconditioner or (lambda v: v)
    geom = rhs.geometry
    b = rhs.values
    bnorm = float(np.sqrt(np.vdot(b, b).real))
    if bnorm == 0.0:
        return geom.zeros()
    x = np.zeros_like(b)
    r = b.copy()
    rs = float(np.vdot(r, r).real)
    z = precondition(r)
    rz = float(np.vdot(r, z).real)
    p = z.copy()
    for _ in range(max_iter):
        ap = operator(p)
        pap = float(np.vdot(p, ap).real)
        if pap <= 0.0 or not np.isfinite(pap):
            raise LinearSolveError(
                "conjugate gradient breakdown: operator is not positive "
                "definite on the Krylov space")
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        rs = float(np.vdot(r, r).real)
        if np.sqrt(rs) <= tol * bnorm:
            return ScalarField(geom, x)
        z = precondition(r)
        rz_new = float(np.vdot(r, z).real)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise LinearSolveError(
        f"no convergence in {max_iter} iterations "
        f"(relative residual {np.sqrt(rs) / bnorm:.3e})")


@functools.lru_cache(maxsize=None)
def _sphere_eigenbasis(n: int, ds: float):
    """Eigenvalues and orthonormal eigenvectors of the background sphere
    sublaplacian, the symmetric tridiagonal matrix that
    ``_div_form_values`` applies (degenerate face weights, no boundary
    condition).  Cached per grid; read-only."""
    mu = _sphere_faces(n)
    a = (SPHERE_CS / (ds * ds)) * (np.diag(mu[:-1] + mu[1:])
                            - np.diag(mu[1:-1], 1) - np.diag(mu[1:-1], -1))
    evals, evecs = np.linalg.eigh(a)
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


def shifted_bilap_inverse(geom: ModelGeometry, s: float):
    """Exact inverse of v -> v + s * sublap(sublap(v)) from the operator's
    structure, as a function of value arrays; ``None`` where no such
    structure is used.

    Sector: the five-point stencil is diagonal in Fourier space with
    symbol sigma(k) = h * sum_axis 4 sin^2(pi k_a / n_a) / d_a^2, so the
    inverse is an ``rfft2``, a division by 1 + s sigma^2 and an
    ``irfft2``.  Sphere: one eigendecomposition of the tridiagonal
    operator per grid, independent of s.  Lattice: ``None`` (the twisted
    gathers couple the vertical Fourier modes of different x-cells).
    """
    if geom.kind == HEISENBERG_SECTOR:
        from numpy import fft    # loaded only on this path, never at import

        nx, ny = geom.resolution
        dx, dy = geom.spacing
        h = HEISENBERG_HORIZONTAL_FACTOR
        sx = np.sin(np.pi * np.arange(nx) / nx)[:, None]
        sy = np.sin(np.pi * np.arange(ny // 2 + 1) / ny)[None, :]   # rfft half
        sig = h * (4.0 * sx * sx / (dx * dx) + 4.0 * sy * sy / (dy * dy))
        denom = 1.0 + s * sig * sig

        def solve(v: np.ndarray) -> np.ndarray:
            return fft.irfft2(fft.rfft2(v) / denom, s=v.shape)

        return solve
    if geom.kind == SPHERE_REDUCED:
        evals, evecs = _sphere_eigenbasis(geom.resolution[0], geom.spacing[0])
        gain = 1.0 / (1.0 + s * evals * evals)

        def solve(v: np.ndarray) -> np.ndarray:
            return evecs @ (gain * (evecs.T @ v))

        return solve
    return None


def stability_symbol_max(geom: ModelGeometry) -> float:
    """Sharp upper bound on the spectrum of the background sublaplacian
    (used for explicit step-size control): on the flat kinds the symbol
    h * sum_axis 4 sin^2(.) / d_a^2 at its largest."""
    if geom.kind == SPHERE_REDUCED:
        mu = _sphere_faces(geom.resolution[0])
        ds = geom.spacing[0]
        return float(SPHERE_CS * (mu[:-1] + mu[1:]).max() / (ds * ds))
    dx, dy = geom.spacing[0], geom.spacing[1]
    h = HEISENBERG_HORIZONTAL_FACTOR
    return float(4.0 * h / (dx * dx) + 4.0 * h / (dy * dy))
