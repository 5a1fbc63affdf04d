"""The executable invariants of every module, each defined once.

``REGISTRY`` is an ordered tuple of ``(module, name, fn)`` entries; each
``fn()`` returns ``(ok, detail)``, where ``detail`` reports the measured
value against its bound.  ``crflow check`` runs the entries in order, and
the acceptance gate (``tests/test_acceptance.py``) runs every entry: each
of its eleven criteria runs the entries it covers, one more test runs the
rest, and that test fails if an entry is named by no test there.

There is one scale: the 32x32 sector, the 64-cell sphere and the
16x16x32 lattice (tau period 0.5).  Each integrator of
``flow.INTEGRATORS`` has one declaration here, from which the entries
that hold for every integrator take its runs and rules: ``RUNS`` is the
one table of runs that the descent and volume entries walk, and each run,
like the pair of CLI runs, is computed once per process.  The lattice's x-wrap
twist moves by half a tau period, so every check on it exercises the
twisted identification.  The manifold checks and the positivity check
keep their small geometries, whose 8x8x16 lattice also twists by half a
period, and ``RUNS`` holds IMEX runs on that lattice too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import tempfile

import numpy as np

from . import cli, flow, inversion, operators
from .conventions import (HEISENBERG_HORIZONTAL_FACTOR, SPHERE_CS, SPHERE_KAPPA,
                          YAMABE_COEFFICIENT)
from .flow import make_state
from .manifold import (HEISENBERG_LATTICE, HEISENBERG_SECTOR, SPHERE_REDUCED,
                       GeometryError, ModelGeometry, ScalarField, _reduce_index,
                       _weighted_sum, build_geometry, initial_data)
from .operators import Workspace, _div_form_values, _webster_core

__all__ = ["REGISTRY", "MODULES", "RUNS", "RISE_TOL", "evaluate",
           "integrate", "reduce_index", "sublap", "webster_curvature", "energy",
           "flow_rhs", "three_point_div_form", "conformal_sublap", "yamabe_apply",
           "gradient_check"]


# ---------------------------------------------------------------------------
# check-only functions: what the entries and the tests call, kept out of
# the modules a run loads.  The kernels' wrappers refuse non-finite fields


def integrate(f: ScalarField) -> float:
    """Integral of f against the background volume form."""
    if not np.isfinite(f.values).all():
        raise ValueError("integrate: non-finite field values")
    return _weighted_sum(f.geometry, f.values)


def reduce_index(geom: ModelGeometry, i, j, k):
    """Integer cell indices (or arrays) of the lattice ``geom`` deck-reduced
    into its stored domain, by the rules of ``manifold._reduce_index``."""
    if geom.kind != HEISENBERG_LATTICE:
        raise GeometryError("reduce_index is only defined on the 3D lattice")
    return _reduce_index(geom.resolution, geom.t_wrap_shift, i, j, k)


def sublap(f: ScalarField) -> ScalarField:
    """Positive background sublaplacian of f: -(X^2 + Y^2)/2 through the
    frame-flow shifts on the flat kinds, -c_s (s(1-s) f')' with a face
    weight vanishing at both ends (no boundary condition) on the sphere.
    The run's stencil 4 * sublap over 4, exact short of overflow and
    subnormals."""
    if not np.isfinite(f.values).all():
        raise ValueError("sublap: non-finite field values")
    values = _div_form_values(f.geometry, f.values, work=Workspace(f.geometry))
    return ScalarField(f.geometry, values / YAMABE_COEFFICIENT)


def webster_curvature(lam: ScalarField) -> ScalarField:
    """Scalar curvature W = u^{-3} (4 * sublap(u) + What * u), u = e^lambda,
    of the rescaled structure e^{2 lambda}: exactly e^{-2c} * What at a
    constant lambda = c, so identically zero on the flat kinds."""
    if not np.isfinite(lam.values).all():
        raise ValueError("webster_curvature: non-finite conformal exponent")
    with np.errstate(over="ignore", invalid="ignore"):
        w = _webster_core(lam.geometry, lam.values, work=Workspace(lam.geometry))[3]
    return ScalarField(lam.geometry, w)


def energy(lam: ScalarField) -> float:
    """Curvature energy integrate(W^2 e^{4 lambda}), as ``make_state`` has it."""
    return make_state(lam, 0.0, 0).diagnostics.energy


def flow_rhs(lam: ScalarField) -> ScalarField:
    """Right-hand side of the volume-preserving downward energy flow, as
    ``make_state`` has it: exactly zero on constants, of exactly zero
    e^{4 lambda}-weighted mean, and all NaN on a non-finite input."""
    return ScalarField(lam.geometry, make_state(lam, 0.0, 0).rhs)


def three_point_div_form(geom: ModelGeometry, v: np.ndarray,
                         g: np.ndarray) -> np.ndarray:
    """The sublaplacian with conformal weights ``g`` (e^{2 lambda}) in its
    plainest form: per cell, both neighbour differences times the
    arithmetic mean of their two cells' weights, ``np.diff`` on the
    sphere.  At g = 1 every weight is exactly 1.0, so it is the
    background operator, bit for bit ``sublap``, and 4 times it the run's
    ``_div_form_values``, wherever no stencil intermediate overflows or
    is subnormal: the tests' reference for both."""
    if geom.kind == SPHERE_REDUCED:
        n, ds = geom.resolution[0], geom.spacing[0]
        faces = np.arange(n + 1) / n
        mu = faces * (1.0 - faces)
        flux = np.zeros(n + 1)
        flux[1:-1] = mu[1:-1] * ((0.5 * (g[1:] + g[:-1])) * np.diff(v)) / ds
        return -SPHERE_CS * np.diff(flux) / ds
    terms = []
    for axis in (0, 1):
        d = geom.spacing[axis]
        wp = 0.5 * (g + geom.shift(g, axis, 1))
        wm = 0.5 * (g + geom.shift(g, axis, -1))
        terms.append((wp * (geom.shift(v, axis, 1) - v)
                      - wm * (v - geom.shift(v, axis, -1))) / (d * d))
    # the X term plus the Y term, as the run's stencil sums them: a sum
    # started at 0.0 would turn -0.0 + -0.0 into +0.0
    return -HEISENBERG_HORIZONTAL_FACTOR * (terms[0] + terms[1])


def conformal_sublap(lam: ScalarField, f: ScalarField) -> ScalarField:
    """Positive sublaplacian of the rescaled structure e^{2 lambda}.

    Weak form: the operator whose e^{4 lambda}-weighted pairing with g
    equals the e^{2 lambda}-weighted pairing of horizontal gradients.
    Assembled as ``three_point_div_form`` with e^{2 lambda} weights
    divided by the e^{4 lambda} cell mass, so it is e^{4 lambda}-weighted
    self-adjoint to rounding and its image has exactly zero weighted
    mean (telescoping edge sums).  Overflow of the exponentials yields
    non-finite output (a blow-up signal for the caller), never an
    exception.
    """
    if lam.geometry != f.geometry:
        raise GeometryError("conformal_sublap: fields on different geometries")
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.exp(2.0 * lam.values)
        num = three_point_div_form(f.geometry, f.values, g)
        out = num * np.exp(-4.0 * lam.values)
    return ScalarField(f.geometry, out)


def yamabe_apply(lam: ScalarField, phi: ScalarField) -> ScalarField:
    """Covariant second-order operator of the rescaled structure:
    4 * conformal_sublap(lambda, phi) + W(lambda) * phi."""
    if lam.geometry != phi.geometry:
        raise GeometryError("yamabe_apply: fields on different geometries")
    w = webster_curvature(lam)
    lap = conformal_sublap(lam, phi)
    return ScalarField(phi.geometry,
                       YAMABE_COEFFICIENT * lap.values + w.values * phi.values)


def gradient_check(lam: ScalarField, phi: ScalarField) -> float:
    """Relative defect between the weighted pairing of the descent
    direction -rhs with phi and the central finite difference of the
    energy in direction phi, at step h = 1e-5."""
    geom = lam.geometry
    h = 1e-5
    rhs = flow_rhs(lam).values
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = _weighted_sum(geom, -rhs * phi.values * np.exp(4.0 * lam.values))
    e_plus = energy(ScalarField(geom, lam.values + h * phi.values))
    e_minus = energy(ScalarField(geom, lam.values - h * phi.values))
    d_h = (e_plus - e_minus) / (2.0 * h)
    return abs(lhs - d_h) / max(abs(d_h), 1e-30)


# ---------------------------------------------------------------------------
# sample geometries and data


def _sector(n: int = 32, t_fiber: float = 1.0, periods=(1.0, 1.0)):
    return build_geometry({"kind": HEISENBERG_SECTOR, "resolution": [n, n],
                           "periods": list(periods), "t_fiber": t_fiber})


def _sphere(n: int = 64):
    return build_geometry({"kind": SPHERE_REDUCED, "resolution": [n]})


def _lattice(resolution=(16, 16, 32), lt: float = 0.5):
    return build_geometry({"kind": HEISENBERG_LATTICE, "resolution": list(resolution),
                           "periods": [1.0, 1.0, lt]})


def _models():
    """The reference geometry of each kind."""
    return (_sector(32), _sphere(64), _lattice())


def _small_models():
    return (_sector(16), _sphere(32), _lattice((8, 8, 16), lt=1.0))


def _smooth(geom, seed: int, amplitude: float, cutoff: int, **extra) -> ScalarField:
    """Band-limited random data, as a run configuration would make it."""
    return initial_data(geom, {"kind": "random", "seed": seed, "amplitude": amplitude,
                               "cutoff": cutoff, **extra})


def _noise(geom, seed: int, amplitude: float = 0.3) -> ScalarField:
    """Cell-by-cell white noise."""
    rng = np.random.default_rng(seed)
    return ScalarField(geom, amplitude * rng.standard_normal(geom.resolution))


SEEDS = (3, 4, 5)
RISE_TOL = 1e-10    # the most the energy may rise in one step, relative to it

# the rough data of each model: (geometry, amplitude, cutoff, extra data keys)
_ROUGH = {
    "32x32 sector": (lambda: _sector(32), 0.1, 3, {}),
    "64-cell sphere": (lambda: _sphere(64), 0.05, 16, {}),
    "16x16x32 lattice": (_lattice, 0.1, 3, {"cutoff_t": 2}),
    "8x8x16 lattice": (lambda: _lattice((8, 8, 16), lt=1.0), 0.1, 3, {"cutoff_t": 2}),
}


@dataclasses.dataclass(frozen=True)
class _Run:
    """``steps`` steps of ``integrator`` from the rough data of ``model`` at
    data seed ``seed``, at the fixed step ``dt`` or at ``auto`` x auto_dt."""

    integrator: str
    model: str
    seed: int
    steps: int
    dt: float = 0.0
    auto: float = 0.0

    def __str__(self) -> str:
        step = f"dt {self.dt:g}" if self.dt else f"{self.auto:g}x auto"
        name = _DECLARED[self.integrator].display
        return f"{name} on the {self.model}, seed {self.seed}, {step}"


@dataclasses.dataclass(frozen=True)
class _Integrator:
    """The declaration of the name ``name`` of ``flow.INTEGRATORS``, shown
    as ``display``.  ``rows`` are its runs of ``RUNS``, (model, seed, steps,
    dt, auto); their volume drift is at most ``drift``, and with ``refine``
    halving the step cuts it at least ``refine`` fold.  Constant states stay
    bitwise fixed at each of ``fixed`` x auto_dt.  At each of ``modes`` x
    auto_dt, where it stays within 1, a step multiplies an eigenmode by
    ``factor(dt, sigma, mu)``.  A step makes ``rhs_per_step`` right-hand-side
    and curvature evaluations."""

    name: str
    display: str
    rhs_per_step: int
    rows: tuple
    drift: float
    refine: float | None
    fixed: tuple
    modes: tuple
    factor: object

    @property
    def runs(self) -> tuple:
        return tuple(_Run(self.name, *row) for row in self.rows)


# RK4 inside its stability interval, with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24
# at z = -dt mu; IMEX up to 1e3x its explicit edge, C_STAB = 32 written out
_RK4 = _Integrator(
    "explicit", "RK4", rhs_per_step=4,
    rows=tuple((model, seed, 100, dt, 0.0) for model, dt in
               (("32x32 sector", 1.8e-9), ("64-cell sphere", 6e-11)) for seed in SEEDS),
    drift=1e-6, refine=16.0, fixed=("1",), modes=("1",),
    factor=lambda dt, s, mu: sum((-dt * mu) ** k / math.factorial(k) for k in range(5)))
_IMEX = _Integrator(
    "imex", "IMEX", rhs_per_step=1,
    rows=(*((model, 3, steps, 0.0, auto) for model in ("32x32 sector", "64-cell sphere")
            for auto, steps in ((10.0, 100), (1e3, 40))),
          *((model, seed, 20, 0.0, 10.0) for model in ("16x16x32 lattice", "8x8x16 lattice")
            for seed in (3, 4))),
    drift=1e-13, refine=None, fixed=("10", "1e3"), modes=("1", "1e3", "1e6"),
    factor=lambda dt, s, mu: (1.0 + dt * (32.0 * s * s - mu)) / (1.0 + dt * 32.0 * s * s))
_DECLARED = {integrator.name: integrator for integrator in (_RK4, _IMEX)}
RUNS = tuple(run for integrator in _DECLARED.values() for run in integrator.runs)


def _declared() -> tuple:
    """The declaration of each name of ``flow.INTEGRATORS``, in its order;
    a name with none raises LookupError, naming it."""
    for name in flow.INTEGRATORS:
        if name not in _DECLARED:
            raise LookupError(f"integrator {name!r} has no declaration in crflow.invariants")
    return tuple(_DECLARED[name] for name in flow.INTEGRATORS)


def _at(multiples: tuple) -> str:
    """Declared multiples of auto_dt, strings as a detail shows them, in
    words: 'auto', or e.g. '10x and 1e3x auto'."""
    if multiples == ("1",):
        return "auto"
    *head, last = (f"{m}x" for m in multiples)
    return f"{', '.join(head)} and {last} auto" if head else f"{last} auto"


@functools.lru_cache(maxsize=None)
def _run(run: _Run) -> flow.Trajectory:
    """The trajectory of ``run``, computed once per process."""
    make, amplitude, cutoff, extra = _ROUGH[run.model]
    geom = make()
    lam0 = _smooth(geom, run.seed, amplitude, cutoff, **extra)
    return flow.run(lam0, integrator=run.integrator,
                    dt=run.dt or run.auto * flow.auto_dt(geom),
                    max_time=1.0, max_steps=run.steps)


# ---------------------------------------------------------------------------
# manifold


def _quadrature_linearity():
    # linear to rounding, and exactly the cell sum times the cell weight,
    # whether the sum is made a Python float before or after the product
    worst, cell_sum = 0.0, True
    for geom in _small_models():
        f, g = _noise(geom, 11), _noise(geom, 12)
        a, b = 1.7, -0.6
        combo = integrate(ScalarField(geom, a * f.values + b * g.values))
        parts = a * integrate(f) + b * integrate(g)
        scale = max(abs(combo), abs(parts), 1e-30)
        worst = max(worst, abs(combo - parts) / scale)
        total = f.values.sum()
        cell_sum = cell_sum and (integrate(f) == float(total) * geom.cell_weight
                                 == float(total * geom.cell_weight))
    return worst <= 1e-14 and cell_sum, (
        f"max relative defect {worst:.2e} (need <= 1e-14); "
        f"exactly the cell sum times the cell weight: {cell_sum}"
    )


def _twisted_periodicity():
    geom = _lattice((8, 8, 16), lt=1.0)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(geom.resolution)
    nx, ny, nt = geom.resolution
    worst = 0.0
    for _ in range(200):
        i = int(rng.integers(-2 * nx, 2 * nx))
        j = int(rng.integers(-2 * ny, 2 * ny))
        k = int(rng.integers(-2 * nt, 2 * nt))
        at = values[reduce_index(geom, i, j, k)]
        twisted = values[reduce_index(geom, i, j, k + j * geom.t_wrap_shift)]
        # the x-wrap carries the twist; the y- and tau-wraps are plain
        for lhs, rhs in ((values[reduce_index(geom, i + nx, j, k)], twisted),
                         (values[reduce_index(geom, i, j + ny, k)], at),
                         (values[reduce_index(geom, i, j, k + nt)], at)):
            worst = max(worst, abs(lhs - rhs))
    return worst == 0.0, f"max wrap defect {worst:.2e} (exact-zero contract)"


def _sphere_measure():
    # constants and linears exact, s^2 and s^3 refining at second order
    kappa = SPHERE_KAPPA
    geom = _sphere(64)
    s = geom.axes()[0]
    const = abs(integrate(ScalarField(geom, np.ones(64))) - kappa) / kappa
    linear = abs(integrate(ScalarField(geom, s)) - kappa / 2.0) / (kappa / 2.0)
    ok = const <= 1e-15 and linear <= 1e-14
    detail = f"const {const:.1e}, linear {linear:.1e} relative"
    for power in (2, 3):
        errs = []
        for fine in (geom, _sphere(128)):
            value = integrate(ScalarField(fine, fine.axes()[0] ** power))
            errs.append(abs(value - kappa / (power + 1)))
        ratio = errs[0] / max(errs[1], 1e-30)
        ok = ok and errs[0] <= 1e-3 and abs(ratio - 4.0) <= 0.2
        detail += f"; s^{power} {errs[0]:.1e}->{errs[1]:.1e} (x{ratio:.2f})"
    return ok, detail + " (need <= 1e-15, <= 1e-14, <= 1e-3 and x4 +/- 5%)"


# ---------------------------------------------------------------------------
# operators


def _operator_samples():
    """(geometry, lambda, f, g) on each reference geometry."""
    for geom in _models():
        yield geom, _smooth(geom, 11, 0.2, 2), _smooth(geom, 12, 1.0, 3), _smooth(geom, 13, 1.0, 3)


def _positivity():
    worst = math.inf
    for geom in _small_models():
        f = _noise(geom, 21)
        quad = float(integrate(ScalarField(geom, sublap(f).values * f.values)))
        const = ScalarField(geom, np.full(geom.resolution, 0.7))
        qc = float(integrate(ScalarField(geom, sublap(const).values * const.values)))
        if qc != 0.0:
            return False, f"constant field has nonzero quadratic form {qc:.2e}"
        worst = min(worst, quad)
    return worst > 0.0, f"min quadratic form over kinds {worst:.3e} (must be > 0)"


def _self_adjointness():
    # <Lf, g> - <f, Lg> relative to the larger pairing and to sum |Lf||g|,
    # for the plain stencil and the e^{4 lambda}-weighted one
    by_pairing = by_magnitude = 0.0
    for geom, lam, f, g in _operator_samples():
        w4 = np.exp(4.0 * lam.values)
        for lf, lg, weight in (
            (sublap(f).values, sublap(g).values, 1.0),
            (conformal_sublap(lam, f).values, conformal_sublap(lam, g).values, w4),
        ):
            lhs = float((lf * g.values * weight).sum())
            rhs = float((f.values * lg * weight).sum())
            by_pairing = max(by_pairing, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
            magnitude = float((np.abs(lf) * np.abs(g.values) * weight).sum())
            by_magnitude = max(by_magnitude, abs(lhs - rhs) / magnitude)
    ok = by_pairing <= 1e-12 and by_magnitude <= 1e-12
    return ok, (
        f"max relative asymmetry {by_pairing:.2e} of the pairing, "
        f"{by_magnitude:.2e} of sum |Lf||g| (plain and weighted; need <= 1e-12)"
    )


def _constants_annihilated():
    for geom, lam, _, _ in _operator_samples():
        ones = ScalarField(geom, np.ones(geom.resolution))
        if np.any(sublap(ones).values != 0.0):
            return False, f"{geom.kind}: plain stencil does not kill constants exactly"
        if np.any(conformal_sublap(lam, ones).values != 0.0):
            return False, f"{geom.kind}: weighted stencil does not kill constants exactly"
        for c in (0.0, 0.25, -0.5):
            w = webster_curvature(ScalarField(geom, np.full(geom.resolution, c)))
            if np.any(w.values != math.exp(-2.0 * c) * geom.background_curvature):
                return False, (
                    f"{geom.kind}: constant-state curvature at c={c} is not "
                    "exactly e^(-2c) * background"
                )
    return True, (
        "stencils kill constants exactly; constant-state curvature is exactly "
        "e^(-2c) * background on every kind"
    )


def _mean_zero_image():
    worst = 0.0
    for geom, lam, f, _ in _operator_samples():
        image = conformal_sublap(lam, f).values
        w4 = np.exp(4.0 * lam.values)
        total = float(integrate(ScalarField(geom, image * w4)))
        scale = float(integrate(ScalarField(geom, np.abs(image) * w4)))
        worst = max(worst, abs(total) / max(scale, 1e-30))
    return worst <= 1e-12, f"max relative weighted mean {worst:.2e} (need <= 1e-12)"


def _covariance_residual(n: int) -> float:
    geom = _sector(n)
    xs, ys = np.meshgrid(geom.axes()[0], geom.axes()[1], indexing="ij")
    lam_v = 0.25 * np.sin(2 * np.pi * xs) * np.cos(2 * np.pi * ys)
    phi_v = 0.40 * np.cos(2 * np.pi * xs) + 0.30 * np.sin(2 * np.pi * ys)
    lam = ScalarField(geom, lam_v)
    phi = ScalarField(geom, phi_v)
    u = np.exp(lam_v)
    lhs = yamabe_apply(lam, phi).values
    uphi = ScalarField(geom, u * phi_v)
    b = YAMABE_COEFFICIENT
    rhs = np.exp(-3.0 * lam_v) * (
        b * sublap(uphi).values + geom.background_curvature * u * phi_v
    )
    return float(np.sqrt(((lhs - rhs) ** 2).mean()))


def _conformal_covariance():
    res = {n: _covariance_residual(n) for n in (16, 32, 64)}
    s1 = math.log2(res[16] / res[32])
    s2 = math.log2(res[32] / res[64])
    return min(s1, s2) >= 1.9, (
        f"refinement slopes {s1:.3f} (16->32), {s2:.3f} (32->64) (need >= 1.9)"
    )


def _calibration():
    # a fresh measurement, which must also be the constant the sphere
    # geometries carry: a stale or differently computed cache fails here
    mean, rel_std = operators._measure_curvature(operators.extremal_profile)
    cached = operators.calibrate_sphere_curvature()
    ok = mean > 0.0 and rel_std <= 1e-3 and mean == cached
    return ok, (
        f"calibrated curvature {mean!r} > 0, relative spread {rel_std:.2e} "
        f"(need <= 1e-03); equal to the cached constant {cached!r}: "
        f"{mean == cached}"
    )


# ---------------------------------------------------------------------------
# flow


def _relative_drift(traj: flow.Trajectory) -> float:
    v0 = traj.diagnostics[0].volume
    return max(abs(d.volume - v0) / abs(v0) for d in traj.diagnostics)


def _volume_conservation():
    # each integrator's rule: a time error, which halving the step
    # shrinks, or the rounding of a restore after each step (RK4, IMEX)
    ok, parts, needs = True, [], []
    for integrator in _declared():
        name, runs = integrator.display, integrator.runs
        drifts = {run: _relative_drift(_run(run)) for run in runs}
        worst = max(runs, key=drifts.get)
        ok = ok and all(d <= integrator.drift for d in drifts.values())
        if integrator.refine is None:
            parts.append(f"{name} relative drift <= {drifts[worst]:.1e} ({worst})")
            needs.append(f"<= {integrator.drift:.0e} with {name}")
            continue
        ratios = {run: drifts[run] / _relative_drift(_run(dataclasses.replace(
            run, steps=2 * run.steps, dt=run.dt / 2.0, auto=run.auto / 2.0)))
            for run in runs}
        slow = min(ratios, key=ratios.get)
        ok = ok and all(r >= integrator.refine for r in ratios.values())
        parts.append(f"{name} relative drift <= {drifts[worst]:.3e} ({worst}), x2-step "
                     f"refinement ratio >= {ratios[slow]:.1f} ({slow})")
        needs.append(f"<= {integrator.drift:.0e} and >= {integrator.refine:g} over "
                     f"{worst.steps} {name} steps")
    return ok, f"{'; '.join(parts)} (need {', '.join(needs)})"


def _energy_monotone():
    # every run ends at its step budget, with finite energies that never
    # rise by more than RISE_TOL in one step
    names = " and ".join(integrator.display for integrator in _declared())
    ratios, defects = {}, []
    for run in RUNS:
        traj = _run(run)
        es = [d.energy for d in traj.diagnostics]
        ratios[run] = max(b / a for a, b in zip(es, es[1:]))
        rises = [k + 1 for k, (a, b) in enumerate(zip(es, es[1:]))
                 if not b <= a * (1.0 + RISE_TOL)]
        if rises or not (traj.outcome == "max_time" and len(es) == run.steps + 1
                         and all(map(math.isfinite, es))):
            defects.append(f"; {run}: outcome {traj.outcome!r} after "
                           f"{len(es) - 1} steps, energy rising at steps {rises}")
    worst = max(ratios, key=ratios.get)
    return not defects, (
        f"max per-step energy ratio {ratios[worst]:.15g} ({worst}) over "
        f"{len(RUNS)} {names} runs (need <= 1 + {RISE_TOL:g} at every "
        f"step, finite energies and the step budget reached)"
        f"{defects[0] if defects else ''}"
    )


def _gradient_consistency():
    worst = 0.0
    for geom in _models():
        extra = {"cutoff_t": 2} if geom.kind == HEISENBERG_LATTICE else {}
        for k in range(10):
            lam = _smooth(geom, 100 + k, 0.1, 2, **extra)
            phi = _smooth(geom, 200 + k, 0.1, 2, **extra)
            worst = max(worst, gradient_check(lam, phi))
    return worst <= 1e-6, (
        f"worst relative defect {worst:.3e} over 10 random pairs per model "
        f"(need <= 1e-06)"
    )


def _fixed_points():
    integrators = _declared()
    steps = ", ".join(f"{i.display} at {_at(i.fixed)}" for i in integrators)
    models = _models()
    constants = [ScalarField(g, np.full(g.resolution, c))
                 for g in models for c in (-0.0, 0.0, 0.4, -0.9)]
    stationary = all(np.all(flow_rhs(lam).values == 0.0) for lam in constants)
    fixed = True
    for lam in constants:
        dt = flow.auto_dt(lam.geometry)
        for integrator, scale in ((i.name, m) for i in integrators for m in i.fixed):
            traj = flow.run(lam, integrator=integrator, dt=float(scale) * dt,
                            max_time=1.0, max_steps=20)
            fixed = fixed and (
                traj.outcome == "max_time"
                and len(traj.diagnostics) == 21
                and traj.final_state.lam.values.tobytes() == lam.values.tobytes()
            )
    flat_zero = all(
        energy(ScalarField(g, np.full(g.resolution, c))) == 0.0
        for g in models
        if g.kind != SPHERE_REDUCED
        for c in (0.0, 0.5, -1.2)
    )
    return stationary and fixed and flat_zero, (
        f"constant states exactly stationary: {stationary}; "
        f"20-step runs ({steps}) end at the "
        f"step budget with them bitwise fixed: {fixed}; "
        f"flat-model constant energy exactly zero: {flat_zero}"
    )


def _tau_mode(geom, forward, sigma) -> tuple:
    """Index, in the lattice's (re, im) coefficient array, of the real part
    of its least-sigma mode of tau frequency 1.  A field whose tau
    dependence is cos(2 pi tau / Lt) has coefficients on the chains of
    that frequency alone, and these cross the twisted x-wrap."""
    nx, ny, nt = geom.resolution
    rng = np.random.default_rng(1)
    field = rng.standard_normal((nx, ny, 1)) * np.cos(2.0 * np.pi * np.arange(nt) / nt)
    weight = np.abs(forward(field)).max(axis=1)
    rows = np.flatnonzero(weight > 1e-8 * weight.max())
    return rows[np.argmin(sigma[rows, 0])], 0


def _linear_modes():
    # one step multiplies a small eigenmode of rate
    # mu = 16 sigma (2 sigma - What) by its integrator's factor, with the
    # Yamabe coefficient written out, and C_STAB in IMEX's
    # (1 + dt (32 sigma^2 - mu)) / (1 + dt 32 sigma^2), so a change to
    # either fails here as a wrong solve does.  The mode gets no
    # second-order term back (cos^2 on the sector, an odd mode squared on
    # the sphere, tau frequencies 0 and 2 on the lattice), and what is left
    # is rounding: e^lambda near 1 holds a lambda of size eps only to
    # u / eps relative.  IMEX's defect measured 0.001 to 0.11 u / eps for
    # eps from 1e-9 to 1e-6, so the bound u / eps has a margin of 9x; a
    # solve dividing by 1 + s sigma, 1 + s sigma^2 / 2 or 1 misses by 1e-2
    # to 4 at 1e6x on the sector and the sphere, and by 0.97 to 114 on the
    # lattice.  A NaN defect fails: every defect is kept
    integrators = _declared()
    eps = 1e-7
    bound = np.finfo(float).eps / eps
    defects = {integrator: [] for integrator in integrators}
    for geom in (_sector(32), _sphere(64), _lattice()):
        forward, inverse, sigma = operators.spectral_basis(geom)
        coeffs = np.zeros_like(forward(np.zeros(geom.resolution)))
        if geom.kind == HEISENBERG_LATTICE:
            at = _tau_mode(geom, forward, sigma)
        else:   # mode 1 of the sector's rfft2 and of the sphere's eigenbasis
            at = np.unravel_index(1, coeffs.shape)
        coeffs[at] = 1.0
        mode = inverse(coeffs)
        if geom.kind == HEISENBERG_LATTICE:
            varies = bool(np.ptp(mode, axis=2).max() >= np.abs(mode).max())
        lam = ScalarField(geom, (eps / np.abs(mode).max()) * mode)
        before = forward(lam.values)[at]
        s = np.broadcast_to(sigma, coeffs.shape)[at]
        mu = 16.0 * s * (2.0 * s - geom.background_curvature)
        state = flow.make_state(lam, 0.0, 0)
        for integrator in integrators:
            step = getattr(flow, flow.INTEGRATORS[integrator.name])
            for scale in integrator.modes:
                dt = float(scale) * flow.auto_dt(geom)
                after = forward(step(state, dt).lam.values)[at]
                defects[integrator].append(abs(after / before - integrator.factor(dt, s, mu)))
    worst = ", ".join(f"{max(defects[i]):.2e} of one {i.display} step at {_at(i.modes)}"
                      for i in integrators)
    ok = all(d <= bound for found in defects.values() for d in found)
    return ok and varies, (
        f"worst mode factor defect {worst}, from amplitude {eps:.0e}, on mode "
        f"1 of the 32x32 sector and the 64-cell sphere and the least-sigma tau-frequency-1 "
        f"mode of the 16x16x32 lattice (need <= u / amplitude = "
        f"{bound:.2e}); the lattice mode varies along tau: {varies}"
    )


def _shift_invariance():
    # the energy is scale-invariant; the descent direction is its gradient in
    # the volume-weighted inner product, so it carries the exact weight
    # e^{4c} under a constant shift of the conformal exponent
    geom = _sector(32)
    lam = _smooth(geom, 31, 0.2, 3)
    e0 = energy(lam)
    r0 = flow_rhs(lam).values
    e_rel = r_rel = 0.0
    for c in (0.3, -0.7):
        shifted = ScalarField(geom, lam.values + c)
        e_rel = max(e_rel, abs(energy(shifted) - e0) / max(abs(e0), 1e-30))
        r1 = flow_rhs(shifted).values * math.exp(4.0 * c)
        r_rel = max(r_rel, float(np.max(np.abs(r1 - r0)) / max(np.max(np.abs(r0)), 1e-30)))
    ok = e_rel <= 1e-13 and r_rel <= 1e-12
    return ok, (
        f"energy shift defect {e_rel:.2e} (need <= 1e-13, f64 rounding floor), "
        f"weighted rhs defect {r_rel:.2e} (need <= 1e-12)"
    )


def _sector_closure():
    geom3 = _lattice()
    geom2 = _sector(16, t_fiber=0.5)
    lam2 = _smooth(geom2, 3, 0.1, 3)
    lam3 = ScalarField(
        geom3, np.repeat(lam2.values[:, :, None], geom3.resolution[2], axis=2)
    )
    dt = 1e-9
    s2 = flow.make_state(lam2, 0.0, 0)
    s3 = flow.make_state(lam3, 0.0, 0)
    spread = mismatch = 0.0
    for _ in range(50):
        s2 = flow.step_explicit(s2, dt)
        s3 = flow.step_explicit(s3, dt)
        v3 = s3.lam.values
        spread = max(spread, float(np.max(v3.max(axis=2) - v3.min(axis=2))))
        mismatch = max(mismatch, float(np.max(np.abs(v3[:, :, 0] - s2.lam.values))))
    ok = spread <= 1e-14 and mismatch <= 1e-12
    return ok, (
        f"t-spread {spread:.2e} (need <= 1e-14), 3D-lattice vs 2D-sector "
        f"mismatch {mismatch:.2e} (need <= 1e-12) over 50 steps"
    )


def _bondi_reported():
    for run in _RK4.runs:
        if not math.isfinite(_run(run).bondi_sup_rate):
            return False, f"{run}: monitored rate is not finite"
    return True, "sup-rate finite and recorded on both kinds"


def _blowup_taxonomy():
    geom = _sector(32)
    lam0 = _smooth(geom, 7, 0.15, 2)

    def ascent(v):
        return -flow_rhs(ScalarField(geom, v)).values

    # the probe: classical RK4 up the energy gradient at dt 5e-10
    dt = 5e-10
    probe = [flow.make_state(lam0, 0.0, 0)]
    with np.errstate(over="ignore", invalid="ignore"):
        while not flow.detect_blowup(probe[-1]) and probe[-1].step_index < 20000:
            state = probe[-1]
            y = state.lam.values
            k1 = -state.rhs
            k2 = ascent(y + 0.5 * dt * k1)
            k3 = ascent(y + 0.5 * dt * k2)
            k4 = ascent(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            probe.append(flow.make_state(ScalarField(geom, y), state.time + dt,
                                         state.step_index + 1))
    finite = [s.diagnostics for s in probe if np.isfinite(s.diagnostics.lam_max)]
    cells = {d.lam_argmax for d in finite[-5:]}
    peaks = [d.lam_max for d in finite[-5:]]
    blew_up = flow.detect_blowup(probe[-1])
    ascending = all(b > a for a, b in zip(peaks, peaks[1:]))
    localized = len(cells) <= 3
    # run's own label: descent RK4 past its stability edge
    unstable = flow.run(lam0, dt=1e-7, max_steps=60).outcome

    # every field of every row: an overflow leaves a non-finite value
    # there (energy-monotone requires the step budget of these runs)
    nonfinite = sum(not math.isfinite(v) for run in _RK4.runs
                    for d in _run(run).diagnostics for v in dataclasses.astuple(d))
    ok = blew_up and ascending and localized and unstable == "blowup" and nonfinite == 0
    return ok, (
        f"ascending probe: blow-up {blew_up} after {probe[-1].step_index} "
        f"steps, last five peaks strictly rising: {ascending}, final argmax "
        f"cells {sorted(cells)}; RK4 at dt 1e-7: outcome {unstable!r} (need "
        f"'blowup'); standard runs: non-finite row fields: {nonfinite} (need 0)"
    )


# ---------------------------------------------------------------------------
# inversion


def _wide_panel():
    return inversion.sample_points(200, wnorm_min=1e-3, wnorm_max=1e3, seed=43)


def _w_reciprocal():
    worst = max(abs(inversion.invert(p).w * p.w + 1.0) for p in _wide_panel())
    return worst <= 1e-12, f"max |w(I(p)) w(p) + 1| = {worst:.2e} (need <= 1e-12)"


def _double_inversion():
    # deviation of I(I(p)) from (t, -z), scaled by max(1, |w|) and by the
    # largest coordinate
    by_gauge = by_coordinate = 0.0
    for p in _wide_panel():
        q = inversion.double_invert(p)
        dev = max(abs(q.t - p.t), abs(q.x + p.x), abs(q.y + p.y))
        by_gauge = max(by_gauge, dev / max(1.0, inversion.wnorm(p)))
        by_coordinate = max(by_coordinate, dev / max(abs(p.t), abs(p.x), abs(p.y)))
    ok = by_gauge <= 1e-12 and by_coordinate <= 1e-12
    return ok, (
        f"max deviation from (t, -z): {by_gauge:.2e} per max(1, |w|), "
        f"{by_coordinate:.2e} per largest coordinate (need <= 1e-12)"
    )


def _pullback_identity():
    worst = max(inversion.pullback_residual(p) * inversion.wnorm(p) ** 2
                for p in inversion.sample_points(100, wnorm_min=0.1, wnorm_max=10.0, seed=41))
    return worst <= 1e-10, f"max relative residual {worst:.2e} (need <= 1e-10)"


def _orientation():
    # det dI = |w|^-4: the log-log slope over the wide panel and over
    # single points at radii 1e-3..1e3
    panel = _wide_panel()
    dets = [inversion.jacobian_det(p) for p in panel]
    gauges = [inversion.wnorm(p) for p in panel]
    panel_slope = float(np.polyfit(np.log(gauges), np.log(dets), 1)[0])
    rng = np.random.default_rng(47)
    logs = []
    for r in np.logspace(-3, 3, 25):
        phi = rng.uniform(0.0, math.pi)
        p_t, p_s = r * math.cos(phi), r * math.sin(phi)
        p = inversion.HeisenbergPoint(p_t, math.sqrt(p_s), 0.0)
        logs.append((math.log(inversion.wnorm(p)), math.log(inversion.jacobian_det(p))))
    radii_slope = float(np.polyfit([a for a, _ in logs], [b for _, b in logs], 1)[0])
    positive = all(d > 0 for d in dets)
    ok = positive and abs(panel_slope + 4.0) <= 0.01 and abs(radii_slope + 4.0) <= 0.01
    return ok, (
        f"determinants positive: {positive}, log-log slope {panel_slope:.4f} "
        f"over the panel, {radii_slope:.4f} over radii (need -4 +/- 0.01)"
    )


def _sphere_swap():
    # equal gauge bounds put every sample on the sphere |w| = r, which
    # w(I(p)) w(p) = -1 maps onto |w| = 1/r
    worst = 0.0
    for r, seed in ((2.0, 53), (0.5, 59), (1.0, 20210818), (10.0, 61)):
        for p in inversion.sample_points(100, wnorm_min=r, wnorm_max=r, seed=seed):
            worst = max(worst, abs(inversion.wnorm(inversion.invert(p)) * r - 1.0))
    return worst <= 1e-12, (
        f"gauge spheres r=2, 1/2, 1, 10 map to 1/r partners: max "
        f"|r |w(I(p))| - 1| = {worst:.2e} over 100 points each (need <= 1e-12)"
    )


# ---------------------------------------------------------------------------
# cli


def _write_run_config(directory: str):
    """A 25-step RK4 run on the 16x16 sector; returns (path, config dict)."""
    cfg = {"geometry": {"kind": HEISENBERG_SECTOR, "resolution": [16, 16], "periods": [1.0, 1.0]},
           "initial_data": {"kind": "random", "seed": 3, "amplitude": 0.1, "cutoff": 3},
           "dt": 1.8e-9, "max_steps": 25, "output_dir": os.path.join(directory, "run")}
    path = os.path.join(directory, "cfg.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(cfg, fh)
    return path, cfg


@functools.lru_cache(maxsize=None)
def _cli_runs():
    """The config of ``_write_run_config`` and the artifacts of two
    ``cmd_run``s of it, computed once per process: (config dict,
    ((diagnostics.csv bytes, meta.json dict), ...)).  A run that exits
    with another code raises."""
    artifacts = []
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, cfg = _write_run_config(tmp)
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", cfg_path])
            if code != cli.EXIT_OK:
                raise RuntimeError(f"run exited with {code}")
            with open(os.path.join(cfg["output_dir"], "diagnostics.csv"), "rb") as fh:
                blob = fh.read()
            with open(os.path.join(cfg["output_dir"], "meta.json"), "r",
                      encoding="ascii") as fh:
                artifacts.append((blob, json.load(fh)))
    return cfg, tuple(artifacts)


def _determinism():
    # diagnostics.csv byte for byte, and meta.json but for its wall time
    (csv0, meta0), (csv1, meta1) = _cli_runs()[1]
    same_csv = csv0 == csv1 and len(csv0) > 0
    same_meta = ({**meta0, "wall_time_seconds": None}
                 == {**meta1, "wall_time_seconds": None})
    return same_csv and same_meta, (
        f"repeated cmd_run produced byte-identical diagnostics "
        f"({len(csv0)} bytes): {same_csv}; equal meta.json but for "
        f"wall_time_seconds: {same_meta}"
    )


def _self_description():
    cfg, ((_, meta), _) = _cli_runs()
    has = all(k in meta for k in ("config", "conventions", "outcome"))
    round_trip = cli.RunConfig.from_dict(meta["config"]) == cli.RunConfig.from_dict(cfg)
    return has and round_trip, (
        f"meta carries config and conventions record: {has}; "
        f"config round-trips: {round_trip}"
    )


# ---------------------------------------------------------------------------
# registry


REGISTRY = (
    ("manifold", "quadrature-linearity", _quadrature_linearity),
    ("manifold", "twisted-periodicity", _twisted_periodicity),
    ("manifold", "sphere-measure", _sphere_measure),
    ("operators", "positivity", _positivity),
    ("operators", "self-adjointness", _self_adjointness),
    ("operators", "constants-annihilated", _constants_annihilated),
    ("operators", "mean-zero-image", _mean_zero_image),
    ("operators", "conformal-covariance", _conformal_covariance),
    ("operators", "calibration", _calibration),
    ("flow", "volume-conservation", _volume_conservation),
    ("flow", "energy-monotone", _energy_monotone),
    ("flow", "gradient-consistency", _gradient_consistency),
    ("flow", "fixed-points", _fixed_points),
    ("flow", "linear-modes", _linear_modes),
    ("flow", "shift-invariance", _shift_invariance),
    ("flow", "sector-closure", _sector_closure),
    ("flow", "bondi-reported", _bondi_reported),
    ("flow", "blowup-taxonomy", _blowup_taxonomy),
    ("inversion", "w-reciprocal", _w_reciprocal),
    ("inversion", "double-inversion", _double_inversion),
    ("inversion", "pullback-identity", _pullback_identity),
    ("inversion", "orientation", _orientation),
    ("inversion", "sphere-swap", _sphere_swap),
    ("cli", "determinism", _determinism),
    ("cli", "self-description", _self_description),
)

MODULES = tuple(dict.fromkeys(module for module, _, _ in REGISTRY))


def evaluate(fn) -> tuple:
    """Run one entry; a check that raises is a failed check."""
    try:
        return fn()
    except Exception as exc:
        return False, f"raised {type(exc).__name__}: {exc}"
