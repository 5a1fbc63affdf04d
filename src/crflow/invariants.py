"""The executable invariants of every module, each defined once.

``REGISTRY`` is an ordered tuple of ``(module, name, fn)`` entries; each
``fn()`` returns ``(ok, detail)``, where ``detail`` reports the measured
value against its bound.  ``crflow check`` runs the entries in order, and
the acceptance gate (``tests/test_acceptance.py``) runs every entry: each
of its eleven criteria runs the entries it covers, one more test runs the
rest, and that test fails if an entry is named by no test there.

There is one scale: the 32x32 sector, the 64-cell sphere and the
16x16x32 lattice (tau period 0.5), with the reference RK4 runs on data
seeds 3-5 computed once per process.  The lattice's x-wrap twist moves
by half a tau period, so every check on it exercises the twisted
identification.  The manifold checks and the positivity check keep their
small geometries, whose 8x8x16 lattice also twists by half a period.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import tempfile

import numpy as np

from . import cli, flow, inversion, operators
from .conventions import SPHERE_KAPPA, YAMABE_COEFFICIENT
from .manifold import (
    HEISENBERG_LATTICE,
    HEISENBERG_SECTOR,
    SPHERE_REDUCED,
    ScalarField,
    build_geometry,
    initial_data,
    integrate,
)
from .operators import (
    conformal_sublap,
    sublap,
    webster_curvature,
    yamabe_apply,
)

__all__ = ["REGISTRY", "MODULES", "evaluate"]


# ---------------------------------------------------------------------------
# sample geometries and data


def _sector(n: int = 32, t_fiber: float = 1.0):
    return build_geometry(
        {
            "kind": HEISENBERG_SECTOR,
            "resolution": [n, n],
            "periods": [1.0, 1.0],
            "t_fiber": t_fiber,
        }
    )


def _sphere(n: int = 64):
    return build_geometry({"kind": SPHERE_REDUCED, "resolution": [n]})


def _lattice(resolution=(16, 16, 32), lt: float = 0.5):
    return build_geometry(
        {
            "kind": HEISENBERG_LATTICE,
            "resolution": list(resolution),
            "periods": [1.0, 1.0, lt],
        }
    )


def _models():
    """The reference geometry of each kind."""
    return (_sector(32), _sphere(64), _lattice())


def _small_models():
    return (_sector(16), _sphere(32), _lattice((8, 8, 16), lt=1.0))


def _smooth(geom, seed: int, amplitude: float, cutoff: int, **extra) -> ScalarField:
    """Band-limited random data, as a run configuration would make it."""
    return initial_data(
        geom,
        {
            "kind": "random",
            "seed": seed,
            "amplitude": amplitude,
            "cutoff": cutoff,
            **extra,
        },
    )


def _noise(geom, seed: int, amplitude: float = 0.3) -> ScalarField:
    """Cell-by-cell white noise."""
    rng = np.random.default_rng(seed)
    return ScalarField(geom, amplitude * rng.standard_normal(geom.resolution))


SEEDS = (3, 4, 5)


@functools.lru_cache(maxsize=None)
def _reference_run(kind: str, seed: int, halve: bool = False) -> flow.Trajectory:
    """Explicit RK4 from random data at a step inside its stability
    interval: 100 steps, or 200 steps at half the step."""
    if kind == "sector":
        geom, amplitude, cutoff, dt = _sector(32), 0.1, 3, 1.8e-9
    else:
        geom, amplitude, cutoff, dt = _sphere(64), 0.05, 16, 6e-11
    lam0 = _smooth(geom, seed, amplitude, cutoff)
    return flow.run(
        lam0,
        integrator="explicit",
        dt=dt / (2.0 if halve else 1.0),
        max_time=1.0,
        max_steps=200 if halve else 100,
    )


def _reference_runs(halve: bool = False):
    return [
        (kind, seed, _reference_run(kind, seed, halve))
        for kind in ("sector", "sphere")
        for seed in SEEDS
    ]


# ---------------------------------------------------------------------------
# manifold


def _quadrature_linearity():
    # linear to rounding, and exactly the cell sum times the cell weight,
    # whether the sum is made a Python float before or after the product
    worst = 0.0
    cell_sum = True
    for geom in _small_models():
        f = _noise(geom, 11)
        g = _noise(geom, 12)
        a, b = 1.7, -0.6
        combo = integrate(ScalarField(geom, a * f.values + b * g.values))
        parts = a * integrate(f) + b * integrate(g)
        scale = max(abs(combo), abs(parts), 1e-30)
        worst = max(worst, abs(combo - parts) / scale)
        total = f.values.sum()
        cell_sum = cell_sum and (
            integrate(f) == float(total) * geom.cell_weight
            == float(total * geom.cell_weight)
        )
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
        at = values[geom.reduce_index(i, j, k)]
        twisted = values[geom.reduce_index(i, j, k + j * geom.t_wrap_shift)]
        # the x-wrap carries the twist; the y- and tau-wraps are plain
        for lhs, rhs in (
            (values[geom.reduce_index(i + nx, j, k)], twisted),
            (values[geom.reduce_index(i, j + ny, k)], at),
            (values[geom.reduce_index(i, j, k + nt)], at),
        ):
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
        yield (
            geom,
            _smooth(geom, 11, 0.2, 2),
            _smooth(geom, 12, 1.0, 3),
            _smooth(geom, 13, 1.0, 3),
        )


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
            by_pairing = max(
                by_pairing, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
            )
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
            return False, (
                f"{geom.kind}: weighted stencil does not kill constants exactly"
            )
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
    v0 = traj.volumes[0]
    return max(abs(v - v0) / abs(v0) for v in traj.volumes)


def _volume_conservation():
    worst_drift = 0.0
    worst_ratio = math.inf
    for (_, _, full), (_, _, half) in zip(_reference_runs(), _reference_runs(True)):
        drift = _relative_drift(full)
        worst_drift = max(worst_drift, drift)
        worst_ratio = min(worst_ratio, drift / _relative_drift(half))
    ok = worst_drift <= 1e-6 and worst_ratio >= 16.0
    return ok, (
        f"relative drift <= {worst_drift:.3e} over 100 RK4 steps, "
        f"x2-step refinement ratio >= {worst_ratio:.1f} "
        f"(need <= 1e-06 and >= 16)"
    )


def _energy_monotone():
    worst = 0.0
    rise = None
    for kind, seed, traj in _reference_runs():
        es = traj.energies
        for k, (a, b) in enumerate(zip(es, es[1:])):
            worst = max(worst, b / a)
            if rise is None and not b <= a * (1.0 + 1e-10):
                rise = f"; {kind} seed {seed}: energy rose at step {k + 1}"
    ok = worst <= 1.0 + 1e-10 and rise is None
    return ok, (
        f"max per-step energy ratio {worst:.15f} "
        f"(need <= 1 + 1e-10 at every accepted step){rise or ''}"
    )


def _gradient_consistency():
    worst = 0.0
    for geom in _models():
        extra = {"cutoff_t": 2} if geom.kind == HEISENBERG_LATTICE else {}
        for k in range(10):
            lam = _smooth(geom, 100 + k, 0.1, 2, **extra)
            phi = _smooth(geom, 200 + k, 0.1, 2, **extra)
            worst = max(worst, flow.gradient_check(lam, phi))
    return worst <= 1e-6, (
        f"worst relative defect {worst:.3e} over 10 random pairs per model "
        f"(need <= 1e-06)"
    )


def _fixed_points():
    models = _models()
    constants = [ScalarField(g, np.full(g.resolution, c))
                 for g in models for c in (-0.0, 0.0, 0.4, -0.9)]
    stationary = all(np.all(flow.flow_rhs(lam).values == 0.0) for lam in constants)
    fixed = True
    for lam in constants:
        dt = flow.auto_dt(lam.geometry)
        for integrator, scale in (("explicit", 1.0), ("imex", 10.0), ("imex", 1e3)):
            traj = flow.run(lam, integrator=integrator, dt=scale * dt,
                            max_time=1.0, max_steps=20)
            fixed = fixed and (
                traj.outcome == "max_time"
                and len(traj.diagnostics) == 21
                and traj.final_state.lam.values.tobytes() == lam.values.tobytes()
            )
    flat_zero = all(
        flow.energy(ScalarField(g, np.full(g.resolution, c))) == 0.0
        for g in models
        if g.kind != SPHERE_REDUCED
        for c in (0.0, 0.5, -1.2)
    )
    return stationary and fixed and flat_zero, (
        f"constant states exactly stationary: {stationary}; "
        f"20-step runs (RK4 at auto, IMEX at 10x and 1e3x auto) end at the "
        f"step budget with them bitwise fixed: {fixed}; "
        f"flat-model constant energy exactly zero: {flat_zero}"
    )


def _shift_invariance():
    # the energy is scale-invariant; the descent direction is its gradient in
    # the volume-weighted inner product, so it carries the exact weight
    # e^{4c} under a constant shift of the conformal exponent
    geom = _sector(32)
    lam = _smooth(geom, 31, 0.2, 3)
    e0 = flow.energy(lam)
    r0 = flow.flow_rhs(lam).values
    e_rel = r_rel = 0.0
    for c in (0.3, -0.7):
        shifted = ScalarField(geom, lam.values + c)
        e_rel = max(e_rel, abs(flow.energy(shifted) - e0) / max(abs(e0), 1e-30))
        r1 = flow.flow_rhs(shifted).values * math.exp(4.0 * c)
        r_rel = max(
            r_rel,
            float(np.max(np.abs(r1 - r0)) / max(np.max(np.abs(r0)), 1e-30)),
        )
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
    for kind, seed, traj in _reference_runs():
        if not math.isfinite(traj.bondi_sup_rate):
            return False, f"{kind} seed {seed}: monitored rate is not finite"
    return True, "sup-rate finite and recorded on both kinds"


def _blowup_taxonomy():
    geom = _sector(32)
    lam0 = _smooth(geom, 7, 0.15, 2)

    def ascent(v):
        return -flow.flow_rhs(ScalarField(geom, v)).values

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

    clean = True
    outcomes = []
    for _, _, t in _reference_runs():
        outcomes.append(t.outcome)
        if t.outcome != "max_time":
            clean = False
        if not all(
            np.isfinite(d.energy) and np.isfinite(d.volume) and not d.overflow_flag
            for d in t.diagnostics
        ):
            clean = False
    ok = blew_up and ascending and localized and unstable == "blowup" and clean
    return ok, (
        f"ascending probe: blow-up {blew_up} after {probe[-1].step_index} "
        f"steps, last five peaks strictly rising: {ascending}, final argmax "
        f"cells {sorted(cells)}; RK4 at dt 1e-7: outcome {unstable!r} (need "
        f"'blowup'); standard runs: "
        f"outcomes {outcomes} (need all 'max_time'), NaN-free: {clean}"
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
    worst = max(
        inversion.pullback_residual(p) * inversion.wnorm(p) ** 2
        for p in inversion.sample_points(100, wnorm_min=0.1, wnorm_max=10.0, seed=41)
    )
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
        logs.append(
            (math.log(inversion.wnorm(p)), math.log(inversion.jacobian_det(p)))
        )
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
    cfg = {
        "geometry": {
            "kind": HEISENBERG_SECTOR,
            "resolution": [16, 16],
            "periods": [1.0, 1.0],
        },
        "initial_data": {"kind": "random", "seed": 3, "amplitude": 0.1, "cutoff": 3},
        "dt": 1.8e-9,
        "max_steps": 25,
        "output_dir": os.path.join(directory, "run"),
    }
    path = os.path.join(directory, "cfg.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(cfg, fh)
    return path, cfg


def _quiet_run(cfg_path: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["run", cfg_path])


def _determinism():
    # diagnostics.csv byte for byte, and meta.json but for its wall time
    blobs, metas = [], []
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, cfg = _write_run_config(tmp)
        for _ in range(2):
            code = _quiet_run(cfg_path)
            if code != cli.EXIT_OK:
                return False, f"run exited with {code}"
            with open(os.path.join(cfg["output_dir"], "diagnostics.csv"), "rb") as fh:
                blobs.append(fh.read())
            with open(os.path.join(cfg["output_dir"], "meta.json"), "r",
                      encoding="ascii") as fh:
                metas.append(json.load(fh))
    for meta in metas:
        meta.pop("wall_time_seconds")
    same_csv = blobs[0] == blobs[1] and len(blobs[0]) > 0
    same_meta = metas[0] == metas[1]
    return same_csv and same_meta, (
        f"repeated cmd_run produced byte-identical diagnostics "
        f"({len(blobs[0])} bytes): {same_csv}; equal meta.json but for "
        f"wall_time_seconds: {same_meta}"
    )


def _self_description():
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, cfg = _write_run_config(tmp)
        code = _quiet_run(cfg_path)
        meta_path = os.path.join(cfg["output_dir"], "meta.json")
        if code != cli.EXIT_OK or not os.path.exists(meta_path):
            return False, "run did not produce meta.json"
        with open(meta_path, "r", encoding="ascii") as fh:
            meta = json.load(fh)
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
