"""Command-line front end: run flows, verify invariants, calibrate, invert.

Subcommands
-----------

``crflow run CONFIG.json``
    Execute one flow run described by a JSON configuration and write its
    artifacts (``diagnostics.csv``, ``meta.json``, optional raw snapshots)
    into the configured output directory.  Exit 0 for the scientific
    outcomes ``converged``/``plateau``/``max_time``, exit 3 for ``blowup``
    (a labeled result, not a failure), exit 4 for ``solver_failure`` (an
    implicit solve did not converge; the artifacts cover the steps
    accepted before it), exit 1 for configuration errors.

``crflow check``
    Run the executable invariant suite of every module and print one
    PASS/FAIL line per property.  Exit 0 iff everything passes, exit 2
    otherwise (stderr names the failing property).

``crflow calibrate``
    Compute the model sphere's curvature constant, print it, and record it
    in a small cache file (written atomically).  Exit 2 if the constancy
    contract fails.

``crflow invert T X Y``
    Print a JSON record for one point under the inversion map: image point,
    gauge norms before/after, pullback residual, Jacobian determinant.
    Exit 1 at the origin.

The environment variable ``CRFLOW_OUTPUT_ROOT`` re-roots all relative output
paths.  All emitted files are deterministic for a fixed configuration and
seed — CSV rows carry 17-significant-digit floats, JSON is written with
sorted keys — except the single ``wall_time_seconds`` field of ``meta.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import flow, inversion, operators
from .conventions import DEFAULT_LEDGER, ConventionLedger
from .manifold import (
    GeometryError,
    ScalarField,
    build_geometry,
    initial_data,
    integrate,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_INVARIANT",
    "EXIT_BLOWUP",
    "EXIT_SOLVER",
    "OUTPUT_ROOT_ENV",
    "cmd_calibrate",
    "cmd_check",
    "cmd_invert",
    "cmd_run",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_BLOWUP = 3
EXIT_SOLVER = 4

OUTPUT_ROOT_ENV = "CRFLOW_OUTPUT_ROOT"
CALIBRATION_CACHE = "calibration.json"

_CSV_COLUMNS = (
    "step",
    "time",
    "volume",
    "energy",
    "bondi",
    "w_min",
    "w_max",
    "dissipation",
)
_INTEGRATORS = ("explicit", "imex")


class ConfigError(ValueError):
    """Raised when a run configuration cannot be validated."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """A fully serializable description of one flow run.

    ``dt`` is either the string ``"auto"`` or a positive step size.  The
    ``conventions`` mapping holds expert-only overrides of ledger fields and
    is empty in normal use.  Instances round-trip bit-exactly through JSON:
    ``RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg``.
    """

    geometry: dict
    initial_data: dict
    integrator: str = "explicit"
    dt: object = "auto"
    max_time: float = 1.0
    max_steps: int | None = None
    plateau_tol: float | None = None
    plateau_window: int | None = None
    snapshot_every: int = 0
    output_dir: str = "crflow-run"
    conventions: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("run configuration must be a JSON object")
        allowed = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - allowed)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        missing = sorted(k for k in ("geometry", "initial_data") if k not in raw)
        if missing:
            raise ConfigError(f"missing required config keys: {missing}")
        try:
            normalized = json.loads(json.dumps(raw))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"configuration is not JSON-serializable: {exc}")
        cfg = cls(**normalized)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if not isinstance(self.geometry, dict):
            raise ConfigError("'geometry' must be an object")
        if not isinstance(self.initial_data, dict):
            raise ConfigError("'initial_data' must be an object")
        if self.integrator not in _INTEGRATORS:
            raise ConfigError(
                f"integrator must be one of {_INTEGRATORS}, got {self.integrator!r}"
            )
        if self.dt != "auto":
            if not isinstance(self.dt, (int, float)) or isinstance(self.dt, bool):
                raise ConfigError("dt must be 'auto' or a positive number")
            if not (math.isfinite(self.dt) and self.dt > 0):
                raise ConfigError("dt must be 'auto' or a positive number")
        if not (
            isinstance(self.max_time, (int, float))
            and math.isfinite(self.max_time)
            and self.max_time > 0
        ):
            raise ConfigError("max_time must be a positive number")
        if self.max_steps is not None and (
            not isinstance(self.max_steps, int) or self.max_steps < 1
        ):
            raise ConfigError("max_steps must be a positive integer or null")
        if self.plateau_tol is not None and not (
            isinstance(self.plateau_tol, (int, float)) and self.plateau_tol > 0
        ):
            raise ConfigError("plateau_tol must be positive or null")
        if self.plateau_window is not None and (
            not isinstance(self.plateau_window, int) or self.plateau_window < 2
        ):
            raise ConfigError("plateau_window must be an integer >= 2 or null")
        if not isinstance(self.snapshot_every, int) or self.snapshot_every < 0:
            raise ConfigError("snapshot_every must be a nonnegative integer")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError("output_dir must be a nonempty string")
        if not isinstance(self.conventions, dict):
            raise ConfigError("'conventions' must be an object")
        self.ledger()

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def ledger(self) -> ConventionLedger:
        try:
            return DEFAULT_LEDGER.replace(**self.conventions)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad convention override: {exc}")


def resolve_output_dir(path: str) -> str:
    """Re-root a relative output path under ``CRFLOW_OUTPUT_ROOT`` if set."""
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


# ---------------------------------------------------------------------------
# deterministic serialization helpers


def _fmt(value: float) -> str:
    return "%.17g" % float(value)


def _json_safe(obj):
    """Replace non-finite floats with strings so the JSON stays standard."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _dump_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(_json_safe(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _atomic_dump_json(payload: dict, path: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="\n") as fh:
            json.dump(_json_safe(payload), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_diagnostics(path: str, traj: flow.Trajectory) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for step, (tm, diag) in enumerate(zip(traj.times, traj.diagnostics)):
            writer.writerow(
                [
                    step,
                    _fmt(tm),
                    _fmt(diag.volume),
                    _fmt(diag.energy),
                    _fmt(diag.bondi),
                    _fmt(diag.w_min),
                    _fmt(diag.w_max),
                    _fmt(diag.dissipation),
                ]
            )


def _write_snapshots(outdir: str, cfg: RunConfig, traj: flow.Trajectory) -> None:
    if not traj.snapshots:
        return
    snapdir = os.path.join(outdir, "snapshots")
    os.makedirs(snapdir, exist_ok=True)
    for step, lam in traj.snapshots:
        stem = os.path.join(snapdir, f"step_{step:06d}")
        lam.values.astype("<f8").tofile(stem + ".f64")
        sidecar = {
            "dtype": "<f8",
            "shape": list(lam.values.shape),
            "geometry": cfg.geometry,
            "step": step,
            "time": traj.times[step] if step < len(traj.times) else None,
            "order": "C",
        }
        _dump_json(sidecar, stem + ".json")


# ---------------------------------------------------------------------------
# run


def cmd_run(args: argparse.Namespace) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        cfg = RunConfig.from_dict(raw)
        if args.output_dir:
            cfg = dataclasses.replace(cfg, output_dir=args.output_dir)
        ledger = cfg.ledger()
        geom = build_geometry(cfg.geometry)
        lam0 = initial_data(geom, cfg.initial_data)
    except (ConfigError, GeometryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    outdir = resolve_output_dir(cfg.output_dir)
    os.makedirs(outdir, exist_ok=True)

    started = time.perf_counter()
    traj = flow.run(
        geom,
        lam0,
        integrator=cfg.integrator,
        dt=cfg.dt,
        max_time=cfg.max_time,
        max_steps=cfg.max_steps,
        plateau_tol=cfg.plateau_tol,
        plateau_window=cfg.plateau_window,
        snapshot_every=cfg.snapshot_every,
        ledger=ledger,
    )
    wall = time.perf_counter() - started

    _write_diagnostics(os.path.join(outdir, "diagnostics.csv"), traj)
    _write_snapshots(outdir, cfg, traj)
    final = traj.diagnostics[-1]
    meta = {
        "config": cfg.to_dict(),
        "resolved": {
            "dt": traj.dt,
            "plateau_tol": (
                ledger.plateau_tol if cfg.plateau_tol is None else cfg.plateau_tol
            ),
            "plateau_window": (
                ledger.plateau_window
                if cfg.plateau_window is None
                else cfg.plateau_window
            ),
            "output_dir": os.path.abspath(outdir),
        },
        "conventions": ledger.as_dict(),
        "outcome": traj.outcome,
        "n_steps": len(traj.times) - 1,
        "final_time": traj.times[-1],
        "final": final.as_dict(),
        "argmax_lambda_trace": [
            [step, list(loc), value] for step, loc, value in traj.argmax_trace
        ],
        "bondi_sup_rate": traj.bondi_sup_rate,
        "wall_time_seconds": wall,
    }
    if traj.solver_error is not None:
        meta["solver_error"] = traj.solver_error
    _dump_json(meta, os.path.join(outdir, "meta.json"))

    print(
        f"outcome: {traj.outcome}  steps: {len(traj.times) - 1}  "
        f"final energy: {_fmt(final.energy)}  artifacts: {outdir}"
    )
    if traj.solver_error is not None:
        print(f"error: {traj.solver_error}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_BLOWUP if traj.outcome == "blowup" else EXIT_OK


# ---------------------------------------------------------------------------
# invariant suite


def _sector(n: int = 32):
    return build_geometry(
        {"kind": "HeisenbergSector2D", "resolution": [n, n], "periods": [1.0, 1.0]}
    )


def _sphere(n: int = 64):
    return build_geometry(
        {"kind": "SphereReduced1D", "resolution": [n], "periods": [1.0]}
    )


def _lattice(nx: int = 8, ny: int = 8, nt: int = 16):
    return build_geometry(
        {
            "kind": "HeisenbergLattice3D",
            "resolution": [nx, ny, nt],
            "periods": [1.0, 1.0, 1.0],
        }
    )


def _random_field(geom, seed: int, amplitude: float = 0.3) -> ScalarField:
    rng = np.random.default_rng(seed)
    return ScalarField(geom, amplitude * rng.standard_normal(geom.resolution))


def _weighted_dot(geom, f: np.ndarray, g: np.ndarray, lam: np.ndarray) -> float:
    return float(integrate(ScalarField(geom, f * g * np.exp(4.0 * lam))))


def _check_quadrature_linearity():
    worst = 0.0
    for geom in (_sector(16), _sphere(32), _lattice()):
        f = _random_field(geom, 11)
        g = _random_field(geom, 12)
        a, b = 1.7, -0.6
        combo = integrate(ScalarField(geom, a * f.values + b * g.values))
        parts = a * integrate(f) + b * integrate(g)
        scale = max(abs(combo), abs(parts), 1e-30)
        worst = max(worst, abs(combo - parts) / scale)
    return worst <= 1e-13, f"max relative defect {worst:.2e}"


def _check_twisted_periodicity():
    geom = _lattice()
    rng = np.random.default_rng(5)
    values = rng.standard_normal(geom.resolution)
    nx, ny, nt = geom.resolution
    worst = 0.0
    for _ in range(200):
        i = int(rng.integers(-2 * nx, 2 * nx))
        j = int(rng.integers(-2 * ny, 2 * ny))
        k = int(rng.integers(-2 * nt, 2 * nt))
        lhs = geom.value_at(values, i + nx, j, k)
        rhs = geom.value_at(values, i, j, k + j * geom.t_wrap_shift)
        worst = max(worst, abs(lhs - rhs))
    return worst == 0.0, f"max wrap defect {worst:.2e} (exact-zero contract)"


def _check_sphere_measure():
    geom = _sphere(64)
    fine = _sphere(128)
    kappa = DEFAULT_LEDGER.sphere_kappa
    s64 = geom.axes()[0]
    s128 = fine.axes()[0]
    const = abs(integrate(ScalarField(geom, np.ones(64))) - kappa)
    linear = abs(integrate(ScalarField(geom, s64)) - kappa / 2.0)
    e64 = abs(integrate(ScalarField(geom, s64**2)) - kappa / 3.0)
    e128 = abs(integrate(ScalarField(fine, s128**2)) - kappa / 3.0)
    ok = (
        const <= 1e-12
        and linear <= 1e-12
        and e64 <= 1e-3
        and e64 / max(e128, 1e-30) >= 3.5
    )
    return ok, (
        f"const {const:.1e}, linear {linear:.1e}, "
        f"quadratic {e64:.1e}->{e128:.1e} (x{e64 / max(e128, 1e-30):.2f})"
    )


def _lopsided(apply_fn):
    """A deliberately asymmetric corruption of a stencil operator."""

    def corrupted(fld: ScalarField) -> ScalarField:
        out = apply_fn(fld)
        bad = np.roll(fld.values, 1, axis=0) / fld.geometry.spacing[0] ** 2
        return ScalarField(fld.geometry, out.values + bad)

    return corrupted


def _check_positivity():
    worst = math.inf
    for geom in (_sector(16), _sphere(32), _lattice()):
        f = _random_field(geom, 21)
        quad = float(integrate(ScalarField(geom, operators.sublap(f).values * f.values)))
        const = ScalarField(geom, np.full(geom.resolution, 0.7))
        qc = float(
            integrate(ScalarField(geom, operators.sublap(const).values * const.values))
        )
        if qc != 0.0:
            return False, f"constant field has nonzero quadratic form {qc:.2e}"
        worst = min(worst, quad)
    return worst > 0.0, f"min quadratic form over kinds {worst:.3e} (must be > 0)"


def _check_self_adjointness(defect: str | None = None):
    apply_fn = operators.sublap
    if defect == "stencil":
        apply_fn = _lopsided(apply_fn)
    worst = 0.0
    for geom in (_sector(16), _sphere(32), _lattice()):
        f = _random_field(geom, 31)
        g = _random_field(geom, 32)
        zero = np.zeros(geom.resolution)
        lf = apply_fn(f).values
        lg = apply_fn(g).values
        lhs = _weighted_dot(geom, lf, g.values, zero)
        rhs = _weighted_dot(geom, f.values, lg, zero)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        worst = max(worst, abs(lhs - rhs) / scale)
        lam = _random_field(geom, 33, amplitude=0.2)
        wf = operators.conformal_sublap(lam, f).values
        wg = operators.conformal_sublap(lam, g).values
        lhs_w = _weighted_dot(geom, wf, g.values, lam.values)
        rhs_w = _weighted_dot(geom, f.values, wg, lam.values)
        scale_w = max(abs(lhs_w), abs(rhs_w), 1e-30)
        worst = max(worst, abs(lhs_w - rhs_w) / scale_w)
    return worst <= 1e-12, f"max relative asymmetry {worst:.2e}"


def _check_constants_annihilated():
    for geom in (_sector(16), _sphere(32), _lattice()):
        c = 0.37
        const = ScalarField(geom, np.full(geom.resolution, c))
        if np.any(operators.sublap(const).values != 0.0):
            return False, "plain stencil does not kill constants exactly"
        lam = _random_field(geom, 41, amplitude=0.2)
        if np.any(operators.conformal_sublap(lam, const).values != 0.0):
            return False, "weighted stencil does not kill constants exactly"
        lam_c = ScalarField(geom, np.full(geom.resolution, c))
        w = operators.webster_curvature(lam_c).values
        expected = math.exp(-2.0 * c) * geom.background_curvature
        if np.any(w != expected):
            return False, "constant state curvature is not exactly e^(-2c) * background"
    return True, "stencils kill constants; constant-state curvature exact"


def _check_mean_zero_image():
    worst = 0.0
    for geom in (_sector(16), _sphere(32), _lattice()):
        lam = _random_field(geom, 51, amplitude=0.2)
        f = _random_field(geom, 52)
        image = operators.conformal_sublap(lam, f).values
        total = float(
            integrate(ScalarField(geom, image * np.exp(4.0 * lam.values)))
        )
        norm = float(
            integrate(ScalarField(geom, np.abs(image) * np.exp(4.0 * lam.values)))
        )
        worst = max(worst, abs(total) / max(norm, 1e-30))
    return worst <= 1e-12, f"max relative weighted mean {worst:.2e}"


def _covariance_residual(n: int) -> float:
    geom = _sector(n)
    xs, ys = np.meshgrid(geom.axes()[0], geom.axes()[1], indexing="ij")
    lam_v = 0.25 * np.sin(2 * np.pi * xs) * np.cos(2 * np.pi * ys)
    phi_v = 0.40 * np.cos(2 * np.pi * xs) + 0.30 * np.sin(2 * np.pi * ys)
    lam = ScalarField(geom, lam_v)
    phi = ScalarField(geom, phi_v)
    u = np.exp(lam_v)
    lhs = operators.yamabe_apply(lam, phi).values
    uphi = ScalarField(geom, u * phi_v)
    b = DEFAULT_LEDGER.yamabe_coefficient
    rhs = np.exp(-3.0 * lam_v) * (
        b * operators.sublap(uphi).values + geom.background_curvature * u * phi_v
    )
    return float(np.sqrt(((lhs - rhs) ** 2).mean()))


def _check_conformal_covariance():
    res = {n: _covariance_residual(n) for n in (16, 32, 64)}
    s1 = math.log2(res[16] / res[32])
    s2 = math.log2(res[32] / res[64])
    return min(s1, s2) >= 1.9, f"refinement slopes {s1:.3f}, {s2:.3f} (need >= 1.9)"


_SECTOR_RUN = {"seed": 3, "amplitude": 0.1, "cutoff": 3, "dt": 1.8e-9, "steps": 100}
_SPHERE_RUN = {"seed": 3, "amplitude": 0.05, "cutoff": 16, "dt": 6e-11, "steps": 100}


def _reference_runs():
    for geom, params in ((_sector(32), _SECTOR_RUN), (_sphere(64), _SPHERE_RUN)):
        lam0 = initial_data(
            geom,
            {
                "kind": "random",
                "seed": params["seed"],
                "amplitude": params["amplitude"],
                "cutoff": params["cutoff"],
            },
        )
        traj = flow.run(
            geom,
            lam0,
            integrator="explicit",
            dt=params["dt"],
            max_time=1.0,
            max_steps=params["steps"],
        )
        yield geom.kind, traj


def _check_volume_conservation():
    worst = 0.0
    for kind, traj in _reference_runs():
        vols = traj.volumes
        drift = max(abs(v - vols[0]) / abs(vols[0]) for v in vols)
        worst = max(worst, drift)
    return worst <= 1e-6, f"max relative drift {worst:.2e}"


def _check_energy_monotone():
    for kind, traj in _reference_runs():
        es = traj.energies
        for k in range(len(es) - 1):
            if not es[k + 1] <= es[k] * (1.0 + 1e-10):
                return False, f"{kind}: energy rose at step {k + 1}"
    return True, "nonincreasing at every step on both kinds"


def _check_gradient_consistency():
    worst = 0.0
    for geom in (_sector(16), _sphere(32)):
        for seed in (61, 62, 63):
            lam = initial_data(
                geom,
                {"kind": "random", "seed": seed, "amplitude": 0.1, "cutoff": 2},
            )
            phi = initial_data(
                geom,
                {"kind": "random", "seed": seed + 100, "amplitude": 0.1, "cutoff": 2},
            )
            worst = max(worst, flow.gradient_check(lam, phi))
    return worst <= 1e-6, f"max relative error {worst:.2e}"


def _check_fixed_points():
    for geom in (_sector(16), _sphere(32), _lattice()):
        const = ScalarField(geom, np.full(geom.resolution, 0.3))
        rhs = flow.flow_rhs(const).values
        if np.any(rhs != 0.0):
            return False, f"{geom.kind}: constant state is not exactly stationary"
        if geom.kind != "SphereReduced1D":
            if flow.energy(const) != 0.0:
                return False, f"{geom.kind}: flat-state energy is not exactly zero"
    return True, "constant states exactly stationary; flat energies exactly zero"


def _check_shift_invariance():
    geom = _sector(16)
    lam = _random_field(geom, 71, amplitude=0.2)
    c = 0.45
    shifted = ScalarField(geom, lam.values + c)
    e0, e1 = flow.energy(lam), flow.energy(shifted)
    e_rel = abs(e1 - e0) / max(abs(e0), 1e-30)
    # the energy is scale-invariant; the descent direction is its gradient in
    # the volume-weighted inner product, so it carries the exact weight
    # e^{4c} under a constant shift of the conformal exponent
    r0 = flow.flow_rhs(lam).values
    r1 = flow.flow_rhs(shifted).values * math.exp(4.0 * c)
    r_rel = float(np.max(np.abs(r1 - r0)) / max(np.max(np.abs(r0)), 1e-30))
    ok = e_rel <= 1e-13 and r_rel <= 1e-12
    return ok, f"energy shift defect {e_rel:.2e}, weighted rhs defect {r_rel:.2e}"


def _check_sector_closure():
    geom3 = _lattice(8, 8, 16)
    geom2 = _sector(8)
    lam2 = initial_data(
        geom2, {"kind": "random", "seed": 9, "amplitude": 0.1, "cutoff": 2}
    )
    lam3 = ScalarField(
        geom3, np.repeat(lam2.values[:, :, None], geom3.resolution[2], axis=2)
    )
    dt = 1e-9
    s2, s3 = lam2, lam3
    worst_match = worst_flat = 0.0
    for _ in range(10):
        s2 = ScalarField(geom2, flow.step_explicit(
            flow.make_state(s2, 0.0, 0, dt, DEFAULT_LEDGER), dt, DEFAULT_LEDGER
        ).lam.values)
        s3 = ScalarField(geom3, flow.step_explicit(
            flow.make_state(s3, 0.0, 0, dt, DEFAULT_LEDGER), dt, DEFAULT_LEDGER
        ).lam.values)
        spread = np.max(s3.values.max(axis=2) - s3.values.min(axis=2))
        worst_flat = max(worst_flat, float(spread))
        worst_match = max(
            worst_match, float(np.max(np.abs(s3.values[:, :, 0] - s2.values)))
        )
    ok = worst_flat <= 1e-14 and worst_match <= 1e-12
    return ok, f"t-spread {worst_flat:.2e}, 2D mismatch {worst_match:.2e}"


def _check_bondi_reported():
    for kind, traj in _reference_runs():
        if not math.isfinite(traj.bondi_sup_rate):
            return False, f"{kind}: monitored rate is not finite"
    return True, "sup-rate finite and recorded on both kinds"


def _inversion_panel():
    return inversion.sample_points(100, 1e-3, 1e3, seed=77)


def _check_w_reciprocal():
    worst = max(
        abs(complex(inversion.invert(p).w) * complex(p.w) + 1.0)
        for p in _inversion_panel()
    )
    return worst <= 1e-12, f"max |w(I(p)) w(p) + 1| = {worst:.2e}"


def _check_double_inversion():
    worst = 0.0
    for p in _inversion_panel():
        q = inversion.double_invert(p)
        dev = max(abs(q.t - p.t), abs(q.x + p.x), abs(q.y + p.y))
        scale = max(1.0, inversion.wnorm(p))
        worst = max(worst, dev / scale)
    return worst <= 1e-12, f"max deviation from (t, -z): {worst:.2e}"


def _check_pullback_identity():
    worst = max(
        inversion.pullback_residual(p) * inversion.wnorm(p) ** 2
        for p in inversion.sample_points(100, 0.1, 10.0, seed=78)
    )
    return worst <= 1e-10, f"max relative residual {worst:.2e}"


def _check_orientation():
    dets, gauges = [], []
    for p in _inversion_panel():
        dets.append(inversion.jacobian_det(p))
        gauges.append(inversion.wnorm(p))
    slope = float(np.polyfit(np.log(gauges), np.log(dets), 1)[0])
    ok = all(d > 0 for d in dets) and abs(slope + 4.0) <= 0.01
    return ok, f"all determinants positive, log-log slope {slope:.4f}"


def _check_sphere_swap():
    ok = (
        inversion.sphere_swap_check(2.0)
        and inversion.sphere_swap_check(0.5)
        and inversion.sphere_swap_check(1.0)
    )
    return ok, "gauge spheres r=2, 1/2, 1 map to 1/r partners"


def _tiny_run_config(outdir: str) -> RunConfig:
    return RunConfig(
        geometry={
            "kind": "HeisenbergSector2D",
            "resolution": [16, 16],
            "periods": [1.0, 1.0],
        },
        initial_data={"kind": "random", "seed": 2, "amplitude": 0.1, "cutoff": 2},
        dt=1e-9,
        max_steps=5,
        output_dir=outdir,
    )


def _check_determinism():
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "config.json")
        _dump_json(_tiny_run_config(os.path.join(tmp, "out")).to_dict(), cfg_path)
        blobs = []
        for sub in ("a", "b"):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cmd_run(
                    argparse.Namespace(
                        config=cfg_path, output_dir=os.path.join(tmp, sub)
                    )
                )
            if code != EXIT_OK:
                return False, f"run exited with {code}"
            with open(os.path.join(tmp, sub, "diagnostics.csv"), "rb") as fh:
                blobs.append(fh.read())
        ok = blobs[0] == blobs[1]
        return ok, f"repeated run emits identical diagnostics bytes: {ok}"


def _check_self_description():
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "config.json")
        cfg = _tiny_run_config(os.path.join(tmp, "out"))
        _dump_json(cfg.to_dict(), cfg_path)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cmd_run(argparse.Namespace(config=cfg_path, output_dir=None))
        meta_path = os.path.join(tmp, "out", "meta.json")
        if code != EXIT_OK or not os.path.exists(meta_path):
            return False, "run did not produce meta.json"
        with open(meta_path, "r", encoding="ascii") as fh:
            meta = json.load(fh)
        has = all(k in meta for k in ("config", "conventions", "outcome"))
        round_trip = RunConfig.from_dict(meta["config"]) == cfg
        return has and round_trip, (
            f"meta carries config and ledger snapshot: {has}; "
            f"config round-trips: {round_trip}"
        )


def _invariant_suites(defect: str | None = None):
    return (
        (
            "manifold",
            (
                ("quadrature-linearity", _check_quadrature_linearity),
                ("twisted-periodicity", _check_twisted_periodicity),
                ("sphere-measure", _check_sphere_measure),
            ),
        ),
        (
            "operators",
            (
                ("positivity", _check_positivity),
                (
                    "self-adjointness",
                    lambda: _check_self_adjointness(defect=defect),
                ),
                ("constants-annihilated", _check_constants_annihilated),
                ("mean-zero-image", _check_mean_zero_image),
                ("conformal-covariance", _check_conformal_covariance),
            ),
        ),
        (
            "flow",
            (
                ("volume-conservation", _check_volume_conservation),
                ("energy-monotone", _check_energy_monotone),
                ("gradient-consistency", _check_gradient_consistency),
                ("fixed-points", _check_fixed_points),
                ("shift-invariance", _check_shift_invariance),
                ("sector-closure", _check_sector_closure),
                ("bondi-reported", _check_bondi_reported),
            ),
        ),
        (
            "inversion",
            (
                ("w-reciprocal", _check_w_reciprocal),
                ("double-inversion", _check_double_inversion),
                ("pullback-identity", _check_pullback_identity),
                ("orientation", _check_orientation),
                ("sphere-swap", _check_sphere_swap),
            ),
        ),
        (
            "cli",
            (
                ("determinism", _check_determinism),
                ("self-description", _check_self_description),
            ),
        ),
    )


def cmd_check(args: argparse.Namespace) -> int:
    failures = []
    for module, checks in _invariant_suites(defect=args.defect):
        if args.only and module != args.only:
            continue
        for name, fn in checks:
            try:
                ok, detail = fn()
            except Exception as exc:  # a crashed check is a failed check
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            print(f"[{'PASS' if ok else 'FAIL'}] {module}: {name} — {detail}")
            if not ok:
                failures.append(name)
    if failures:
        print(f"error: invariant failed: {', '.join(failures)}", file=sys.stderr)
        return EXIT_INVARIANT
    print("all invariants passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# calibrate


def cmd_calibrate(args: argparse.Namespace) -> int:
    candidate = None
    if args.defect == "profile":
        def candidate(t, x, y):
            return operators.extremal_profile(t, x, y) * (1.0 + 0.05 * np.tanh(t))

    details: dict = {}
    try:
        value = operators.calibrate_sphere_curvature(
            candidate=candidate, details=details
        )
    except operators.CalibrationError as exc:
        print(f"error: calibration failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT

    cache_path = args.cache or resolve_output_dir(CALIBRATION_CACHE)
    cache_dir = os.path.dirname(cache_path)
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
    _atomic_dump_json(
        {
            "sphere_background_curvature": value,
            "n_points": details.get("n_points"),
            "step": details.get("h"),
            "relative_spread": details.get("rel_std"),
        },
        cache_path,
    )
    print(f"sphere background curvature: {value!r}")
    print(f"cache: {cache_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# invert


def cmd_invert(args: argparse.Namespace) -> int:
    try:
        p = inversion.HeisenbergPoint(args.t, args.x, args.y)
        image = inversion.invert(p)
        record = {
            "point": {"t": p.t, "x": p.x, "y": p.y},
            "image": {"t": image.t, "x": image.x, "y": image.y},
            "wnorm": inversion.wnorm(p),
            "wnorm_image": inversion.wnorm(image),
            "pullback_residual": inversion.pullback_residual(p),
            "jacobian_det": inversion.jacobian_det(p),
        }
    except (inversion.InversionDomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    json.dump(_json_safe(record), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crflow",
        description=(
            "Curvature-energy flow runner: evolve conformal factors on model "
            "geometries, verify the numerical invariant suite, calibrate the "
            "sphere constant, and evaluate the inversion map."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="execute one flow run from a JSON configuration file"
    )
    p_run.add_argument("config", help="path to the run configuration (JSON)")
    p_run.add_argument(
        "--output-dir",
        default=None,
        help="override the configured output directory",
    )
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser(
        "check", help="run the executable invariant suite and report PASS/FAIL"
    )
    p_check.add_argument(
        "--only",
        choices=("manifold", "operators", "flow", "inversion", "cli"),
        default=None,
        help="restrict the suite to one module",
    )
    p_check.add_argument(
        "--defect",
        choices=("stencil",),
        default=None,
        help=argparse.SUPPRESS,
    )
    p_check.set_defaults(func=cmd_check)

    p_cal = sub.add_parser(
        "calibrate",
        help="measure the model sphere's curvature constant and cache it",
    )
    p_cal.add_argument(
        "--cache",
        default=None,
        help=f"cache file path (default: {CALIBRATION_CACHE} under the output root)",
    )
    p_cal.add_argument(
        "--defect",
        choices=("profile",),
        default=None,
        help=argparse.SUPPRESS,
    )
    p_cal.set_defaults(func=cmd_calibrate)

    p_inv = sub.add_parser(
        "invert", help="evaluate the inversion map at one point (JSON output)"
    )
    p_inv.add_argument("t", type=float)
    p_inv.add_argument("x", type=float)
    p_inv.add_argument("y", type=float)
    p_inv.set_defaults(func=cmd_invert)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
