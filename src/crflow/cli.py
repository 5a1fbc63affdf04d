"""Command-line front end: run flows, verify invariants, invert.

Subcommands
-----------

``crflow run CONFIG.json``
    Execute one flow run described by a JSON configuration and write its
    artifacts (``diagnostics.csv``, ``meta.json``, optional raw snapshots)
    into the configured output directory.  A run has one of four
    outcomes: exit 0 for the scientific outcomes
    ``converged``/``plateau``/``max_time``, exit 3 for ``blowup`` (a
    labeled result, not a failure).  Exit 1 for configuration errors
    (among them a degenerate cell spacing, a grid too large to allocate
    and a resolved step that is not positive and finite).

``crflow check``
    Run the executable invariant suite of every module and print one
    PASS/FAIL line per property.  Exit 0 iff everything passes, exit 2
    otherwise (stderr names the failing property).  Its ``operators:
    calibration`` line prints the model sphere's measured curvature
    constant.

``crflow invert T X Y``
    Print a JSON record for one point under the inversion map: image point,
    gauge norms before/after, pullback residual, Jacobian determinant.
    Exit 1 at the origin.

``run`` loads only ``conventions``, ``manifold``, ``operators`` and ``flow``;
``check`` imports ``invariants`` and ``invert`` imports ``inversion`` lazily,
inside the subcommand, so a run never loads either.

``run`` freezes the heap from the end of set-up until its artifacts are
written: no collection inside the flow traverses the set-up's objects.
``main`` registers ``gc.freeze`` with ``atexit`` (once per process, however
often it runs), so the interpreter's last cyclic collections skip every
object still alive at exit and the OS reclaims that memory.  Every
artifact is closed and in place before ``main`` returns; the std-stream
flushes, the other atexit handlers and module teardown all still run.

A run's arguments are checked by the rule ``flow.run`` applies to its own
(``RunConfig.validate`` re-raises its message as ``ConfigError``), so the
config file and the Python API accept the same values.  The output path is
``output_dir``, or ``--output-dir``, which overrides it whenever it is given
and is checked like the key.  All emitted files
are deterministic for a fixed configuration and seed — CSV rows carry
17-significant-digit floats, JSON is written with sorted keys — except the
single ``wall_time_seconds`` field of ``meta.json``.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import gc
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import flow
from .conventions import _shown, conventions_record
from .manifold import build_geometry, initial_data

__all__ = [
    "ConfigError",
    "RunConfig",
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_INVARIANT",
    "EXIT_BLOWUP",
    "cmd_check",
    "cmd_invert",
    "cmd_run",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_BLOWUP = 3

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


class ConfigError(ValueError):
    """Raised when a run configuration cannot be validated."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """A fully serializable description of one flow run.

    ``dt`` is either the string ``"auto"`` or a positive step size.  The
    conventions, the plateau test's included, are constants of
    ``crflow.conventions``, which no key sets.
    Instances round-trip bit-exactly through JSON:
    ``RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg``.
    """

    geometry: dict
    initial_data: dict
    integrator: str = "explicit"
    dt: object = "auto"
    max_time: float = 1.0
    max_steps: int | None = None
    snapshot_every: int = 0
    output_dir: str = "crflow-run"

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("run configuration must be a JSON object")
        allowed = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - allowed, key=str)
        if unknown:
            raise ConfigError(f"unknown config keys: {_shown(unknown)}")
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
        """Refuses, as ConfigError, the run arguments ``flow.run`` refuses
        and a bad ``output_dir``."""
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError("output_dir must be a nonempty string")
        try:
            flow._check_run_args(**self.run_args())
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def run_args(self) -> dict:
        """The keyword arguments of ``flow.run``."""
        return {"integrator": self.integrator, "dt": self.dt,
                "max_time": self.max_time, "max_steps": self.max_steps,
                "snapshot_every": self.snapshot_every}

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


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
        if args.output_dir is not None:
            cfg = dataclasses.replace(cfg, output_dir=args.output_dir)
            cfg.validate()
        geom = build_geometry(cfg.geometry)
        dt = flow.resolve_dt(geom, cfg.dt)
        lam0 = initial_data(geom, cfg.initial_data)
        outdir = cfg.output_dir
        os.makedirs(outdir, exist_ok=True)
    except (OSError, ValueError, MemoryError) as exc:   # ConfigError and GeometryError too
        # MemoryError: a grid too large to allocate is a configuration error
        message = str(exc)
        if isinstance(exc, OSError) and exc.filename is not None:
            message = f"[Errno {exc.errno}] {exc.strerror}: {_shown(exc.filename)}"
        print(f"error: {message}", file=sys.stderr)
        return EXIT_CONFIG

    gc.freeze()
    try:
        started = time.perf_counter()
        traj = flow.run(lam0, **dict(cfg.run_args(), dt=dt))
        wall = time.perf_counter() - started

        _write_diagnostics(os.path.join(outdir, "diagnostics.csv"), traj)
        _write_snapshots(outdir, cfg, traj)
        final = traj.diagnostics[-1]
        meta = {
            "config": cfg.to_dict(),
            "resolved": {"dt": traj.dt, "output_dir": os.path.abspath(outdir)},
            "conventions": conventions_record(),
            "outcome": traj.outcome,
            "n_steps": len(traj.diagnostics) - 1,
            "final": dataclasses.asdict(final),
            "bondi_sup_rate": traj.bondi_sup_rate,
            "wall_time_seconds": wall,
        }
        _dump_json(meta, os.path.join(outdir, "meta.json"))
    finally:
        gc.unfreeze()

    print(
        f"outcome: {traj.outcome}  steps: {len(traj.diagnostics) - 1}  "
        f"final energy: {_fmt(final.energy)}  artifacts: {outdir}"
    )
    return EXIT_BLOWUP if traj.outcome == "blowup" else EXIT_OK


# ---------------------------------------------------------------------------
# check


def _registry_module(name: str) -> str:
    from . import invariants

    if name not in invariants.MODULES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {_shown(name)} (choose from {', '.join(invariants.MODULES)})"
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
# invert


def cmd_invert(args: argparse.Namespace) -> int:
    from . import inversion  # loaded by this subcommand only, never by run

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
            "geometries, verify the numerical invariant suite, and evaluate "
            "the inversion map."
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

    p_inv = sub.add_parser(
        "invert", help="evaluate the inversion map at one point (JSON output)"
    )
    p_inv.add_argument("t", type=float)
    p_inv.add_argument("x", type=float)
    p_inv.add_argument("y", type=float)
    p_inv.set_defaults(func=cmd_invert)

    return parser


def main(argv=None) -> int:
    # the freeze at exit saves about 20 ms per process (module docstring);
    # unregistering first keeps one registration however often main runs
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
