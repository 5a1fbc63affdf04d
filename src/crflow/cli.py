"""Command-line front end: run flows, verify invariants, invert.

Subcommands
-----------

``crflow run CONFIG.json``
    Execute one flow run described by a JSON configuration and write its
    artifacts (``diagnostics.csv``, optional snapshots as bare ``<f8``
    files shaped by ``meta.json``'s ``resolved.resolution``, and last
    ``meta.json``) into the configured output directory.  A run has one
    of four outcomes: exit 0 for the scientific outcomes
    ``converged``/``plateau``/``max_time``, exit 3 for ``blowup`` (a
    labeled result, not a failure).  Any failure from reading the config
    to writing ``meta.json`` exits 1 with one ``error:`` line, after the
    directories the run made are removed, deepest first, while empty: a
    bad config or cell spacing, a grid or an IMEX basis too large to
    allocate, a resolved step that is not positive and finite, an
    artifact that cannot be written.  An older ``meta.json`` is removed
    before the first artifact is written: a failed run leaves none.

``crflow check``
    Run the executable invariant suite of every module and print one
    PASS/FAIL line per property.  Exit 0 iff everything passes, exit 2
    otherwise (stderr names the failing property).  Its ``operators:
    calibration`` line prints the model sphere's measured curvature
    constant.

``crflow invert T X Y``
    Print a JSON record for one point under the inversion map: image point,
    gauge norms before/after, pullback residual, Jacobian determinant.
    Exit 1 at the origin and at a gauge |w| outside [2**-255, 2**255].

``run`` loads only ``conventions``, ``manifold``, ``operators``, ``rng`` and
``flow``, and never ``numpy.random``; ``check`` imports ``invariants`` and
``invert`` imports ``inversion`` lazily, inside the subcommand, so a run never
loads either.

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
import contextlib
import dataclasses
import gc
import json
import math
import operator
import os
import re
import sys
import time
from dataclasses import dataclass

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
    if isinstance(obj, list):
        return [_json_safe(v) for v in obj]
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
    """diagnostics.csv: ``step``, then every ``flow.Diagnostics`` field in
    field order.  Each row is the bytes csv.writer gives for its cells
    (none needs quoting): every value as _fmt writes it, which writes an
    int field's digits, as ``%d`` does, below 10**17."""
    names = [f.name for f in dataclasses.fields(flow.Diagnostics)]
    row = ",".join(["%d"] + ["%.17g"] * len(names)) + "\r\n"
    cells = operator.attrgetter(*names)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(["step"] + names) + "\r\n")
        fh.writelines(row % (step, *cells(d)) for step, d in enumerate(traj.diagnostics))


def _write_snapshots(outdir: str, traj: flow.Trajectory) -> None:
    # bare <f8 files in C order; a rerun removes each step file, an older
    # run's .json sidecar included, that it does not write
    snapdir = os.path.join(outdir, "snapshots")
    written = {f"step_{step:06d}.f64" for step, _ in traj.snapshots}
    if os.path.isdir(snapdir):
        for name in os.listdir(snapdir):
            if name not in written and re.fullmatch(r"step_\d{6,}\.(f64|json)", name,
                                                    re.ASCII):
                os.remove(os.path.join(snapdir, name))
    if not traj.snapshots:
        return
    os.makedirs(snapdir, exist_ok=True)
    for step, lam in traj.snapshots:
        lam.values.astype("<f8").tofile(os.path.join(snapdir, f"step_{step:06d}.f64"))


# ---------------------------------------------------------------------------
# run


def cmd_run(args: argparse.Namespace) -> int:
    made = []       # the directories makedirs makes, deepest first
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = RunConfig.from_dict(json.load(fh))
        if args.output_dir is not None:
            cfg = dataclasses.replace(cfg, output_dir=args.output_dir)
            cfg.validate()
        geom = build_geometry(cfg.geometry)
        lam0 = initial_data(geom, cfg.initial_data)
        outdir = cfg.output_dir
        path = os.path.abspath(outdir)
        while not os.path.exists(path):
            made.append(path)
            path = os.path.dirname(path)
        os.makedirs(outdir, exist_ok=True)
        gc.freeze()
        try:
            started = time.perf_counter()
            traj = flow.run(lam0, **cfg.run_args())
            wall = time.perf_counter() - started

            # meta.json is written last: one on disk belongs to the files
            # beside it, so an older run's goes before the first write
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(outdir, "meta.json"))
            _write_diagnostics(os.path.join(outdir, "diagnostics.csv"), traj)
            _write_snapshots(outdir, traj)
            final = traj.diagnostics[-1]
            meta = {
                "config": cfg.to_dict(),
                "resolved": {"dt": traj.dt, "output_dir": os.path.abspath(outdir),
                             "resolution": list(geom.resolution)},
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
    except (OSError, ValueError, MemoryError) as exc:   # ConfigError and GeometryError too
        # makedirs may have failed part way: skip what it never made
        for path in filter(os.path.isdir, made):
            try:
                os.rmdir(path)
            except OSError:     # left non-empty: it keeps its parents
                break
        message = str(exc)
        if isinstance(exc, OSError) and exc.filename is not None:
            message = f"[Errno {exc.errno}] {exc.strerror}: {_shown(exc.filename)}"
        print(f"error: {message}", file=sys.stderr)
        return EXIT_CONFIG

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
    except ValueError as exc:   # InversionDomainError too
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
