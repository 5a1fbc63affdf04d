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
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import flow, inversion, operators
from .conventions import DEFAULT_LEDGER, PLATEAU_TOL, PLATEAU_WINDOW, ConventionLedger
from .manifold import GeometryError, build_geometry, initial_data

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
    "lam_max",
    "lam_argmax",
)
# One diagnostics.csv row: the bytes csv.writer gives for these cells
# (none needs quoting) with every float as _fmt writes it.
_CSV_ROW = "%d," + "%.17g," * 8 + "%d\r\n"
_INTEGRATORS = ("explicit", "imex")


class ConfigError(ValueError):
    """Raised when a run configuration cannot be validated."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """A fully serializable description of one flow run.

    ``dt`` is either the string ``"auto"`` or a positive step size.  The
    ``conventions`` mapping holds expert-only overrides of ``flow_sign`` and
    ``cg_max_iter`` (the other conventions are fixed) and is empty in
    normal use.  Instances round-trip bit-exactly through JSON:
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
        if self.dt != "auto" and not _is_positive(self.dt):
            raise ConfigError("dt must be 'auto' or a positive number")
        if not _is_positive(self.max_time):
            raise ConfigError("max_time must be a positive number")
        if self.max_steps is not None and (
            not _is_integer(self.max_steps) or self.max_steps < 1
        ):
            raise ConfigError("max_steps must be a positive integer or null")
        if self.plateau_tol is not None and not _is_positive(self.plateau_tol):
            raise ConfigError("plateau_tol must be a positive finite number or null")
        if self.plateau_window is not None and (
            not _is_integer(self.plateau_window) or self.plateau_window < 2
        ):
            raise ConfigError("plateau_window must be an integer >= 2 or null")
        if not _is_integer(self.snapshot_every) or self.snapshot_every < 0:
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
        except ValueError as exc:
            raise ConfigError(f"bad convention override: {exc}")


def _is_integer(value) -> bool:
    # JSON true/false arrive as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_positive(value) -> bool:
    """A finite positive JSON number (not a boolean)."""
    return (
        (_is_integer(value) or isinstance(value, float))
        and math.isfinite(value)
        and value > 0
    )


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
    """Write sorted, indented ASCII JSON atomically: a reader sees the old
    file or the whole new one, never a prefix.  The temporary file is
    opened like any artifact, so it gets the usual umask-derived mode."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            json.dump(_json_safe(payload), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_diagnostics(path: str, traj: flow.Trajectory) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(_CSV_COLUMNS) + "\r\n")
        fh.writelines(
            _CSV_ROW % (step, d.time, d.volume, d.energy, d.bondi, d.w_min,
                        d.w_max, d.dissipation, d.lam_max, d.lam_argmax)
            for step, d in enumerate(traj.diagnostics))


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
            "time": traj.diagnostics[step].time,
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
        outdir = resolve_output_dir(cfg.output_dir)
        os.makedirs(outdir, exist_ok=True)
    except (ConfigError, GeometryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    plateau_tol = PLATEAU_TOL if cfg.plateau_tol is None else cfg.plateau_tol
    plateau_window = PLATEAU_WINDOW if cfg.plateau_window is None else cfg.plateau_window
    started = time.perf_counter()
    traj = flow.run(
        geom,
        lam0,
        integrator=cfg.integrator,
        dt=cfg.dt,
        max_time=cfg.max_time,
        max_steps=cfg.max_steps,
        plateau_tol=plateau_tol,
        plateau_window=plateau_window,
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
            "plateau_tol": plateau_tol,
            "plateau_window": plateau_window,
            "output_dir": os.path.abspath(outdir),
        },
        "conventions": ledger.as_dict(),
        "outcome": traj.outcome,
        "n_steps": len(traj.diagnostics) - 1,
        "final_time": final.time,
        "final": dataclasses.asdict(final),
        "bondi_sup_rate": traj.bondi_sup_rate,
        "wall_time_seconds": wall,
    }
    if traj.solver_error is not None:
        meta["solver_error"] = traj.solver_error
    _dump_json(meta, os.path.join(outdir, "meta.json"))

    print(
        f"outcome: {traj.outcome}  steps: {len(traj.diagnostics) - 1}  "
        f"final energy: {_fmt(final.energy)}  artifacts: {outdir}"
    )
    if traj.solver_error is not None:
        print(f"error: {traj.solver_error}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_BLOWUP if traj.outcome == "blowup" else EXIT_OK


# ---------------------------------------------------------------------------
# check


def _registry_module(name: str) -> str:
    from . import invariants

    if name not in invariants.MODULES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(invariants.MODULES)})"
        )
    return name


def cmd_check(args: argparse.Namespace) -> int:
    from . import invariants  # loaded by this subcommand only, never by run

    failures = []
    for module, name, fn in invariants.REGISTRY:
        if args.only and module != args.only:
            continue
        ok, detail = invariants.evaluate(fn)
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
    details: dict = {}
    try:
        value = operators.calibrate_sphere_curvature(details=details)
    except operators.CalibrationError as exc:
        print(f"error: calibration failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT

    cache_path = args.cache or resolve_output_dir(CALIBRATION_CACHE)
    cache_dir = os.path.dirname(cache_path)
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
    _dump_json(
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
        type=_registry_module,
        default=None,
        metavar="MODULE",
        help="restrict the suite to the entries of one module",
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
