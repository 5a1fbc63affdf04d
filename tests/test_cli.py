"""Command-line interface: config validation, artifacts, exit codes."""

import csv
import gc
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import crflow
import crflow.flow as flow
import crflow.invariants as invariants
import crflow.operators as operators
from crflow.cli import (
    _CSV_COLUMNS,
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    ConfigError,
    RunConfig,
    _fmt,
    _write_diagnostics,
    main,
)
from crflow.conventions import DESCENT, PLATEAU_TOL, PLATEAU_WINDOW
from crflow.manifold import ScalarField, build_geometry, initial_data


def base_config(outdir, **overrides):
    cfg = {
        "geometry": {
            "kind": "HeisenbergSector2D",
            "resolution": [16, 16],
            "periods": [1.0, 1.0],
        },
        "initial_data": {
            "kind": "random",
            "seed": 3,
            "amplitude": 0.1,
            "cutoff": 3,
        },
        "integrator": "explicit",
        "dt": 1.8e-9,
        "max_time": 1.0,
        "max_steps": 12,
        "output_dir": str(outdir),
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = base_config(tmp_path / "out", **overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


def read_rows(csv_path):
    with open(csv_path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# configuration


def test_config_round_trips_through_json(tmp_path):
    # integral floats are integers, as in the geometry and the data
    for overrides in ({}, {"max_steps": 2e0, "snapshot_every": 1e0}):
        cfg = RunConfig.from_dict(base_config(tmp_path, **overrides))
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg


def test_config_rejects_unknown_keys(tmp_path):
    # a long key and many keys are shown by their head and length
    for unknown in ({"typo_key": 1}, {"k" * 300: 1},
                    {f"unknown{i}": i for i in range(40)}):
        with pytest.raises(ConfigError, match="unknown config keys") as exc:
            RunConfig.from_dict(base_config(tmp_path, **unknown))
        assert len(str(exc.value)) <= 200
    # keys of mixed types are sorted by their text, and each is named
    with pytest.raises(ConfigError, match=r"unknown config keys: \[1, 'a'\]"):
        RunConfig.from_dict({1: 2, "a": 3, "geometry": {}, "initial_data": {}})


def test_config_requires_geometry_and_data(tmp_path):
    raw = base_config(tmp_path)
    del raw["geometry"], raw["initial_data"]
    with pytest.raises(ConfigError, match="missing required config keys"):
        RunConfig.from_dict(raw)


def test_config_must_be_an_object():
    with pytest.raises(ConfigError):
        RunConfig.from_dict(["not", "a", "mapping"])


# constants of crflow.conventions that no config key sets
FIXED_KEYS = ("conventions", "plateau_tol", "plateau_window")


@pytest.mark.parametrize(
    "overrides",
    [
        {"integrator": "leapfrog"},
        {"integrator": None},
        {"integrator": "IMEX"},
        {"dt": "fast"},
        {"dt": -1e-9},
        {"dt": 0.0},
        {"dt": True},
        {"dt": None},
        {"dt": math.inf},
        {"max_time": 0.0},
        {"max_time": -1.0},
        {"max_time": math.inf},
        {"max_steps": 0},
        {"max_steps": -1},
        {"max_steps": 2.5},
        {"max_steps": "3"},
        {"snapshot_every": -1},
        {"snapshot_every": 2.5},
        {"snapshot_every": None},
        {"output_dir": ""},
        {"output_dir": None},
        {"max_steps": True},
        {"snapshot_every": True},
        {"max_time": True},
        # JSON integers beyond float range
        {"max_time": 10**400},
        {"dt": 10**400},
        # a numeric string and NaN
        {"dt": "1e-9"},
        {"max_time": math.nan},
        # long strings are shown by their head and length
        {"integrator": "k" * 300},
        {"dt": "k" * 300},
        # the fixed conventions, even at the values a run uses
        {"conventions": {}},
        {"conventions": {"flow_sign": DESCENT}},
        {"conventions": {"flow_sign": 1.0}},
        {"plateau_tol": None},
        {"plateau_tol": PLATEAU_TOL},
        {"plateau_window": None},
        {"plateau_window": PLATEAU_WINDOW},
    ],
)
def test_config_validation_failures(tmp_path, overrides):
    (key, value), = overrides.items()
    with pytest.raises(ConfigError,
                       match="unknown config keys" if key in FIXED_KEYS else None) as exc:
        RunConfig.from_dict(base_config(tmp_path, **overrides))
    assert len(str(exc.value)) <= 200
    # flow.run refuses the same run-argument values, and has no fixed ones
    geom = build_geometry({"kind": "HeisenbergSector2D", "resolution": [8, 8]})
    if key in FIXED_KEYS:
        with pytest.raises(TypeError, match="unexpected keyword"):
            flow.run(geom.constant(0.0), **{key: value})
    elif key in RunConfig.from_dict(base_config(tmp_path)).run_args():
        with pytest.raises(ValueError) as exc:
            flow.run(geom.constant(0.0), **{key: value})
        assert len(str(exc.value)) <= 200


# ---------------------------------------------------------------------------
# run artifacts


def test_run_writes_the_artifact_set(tmp_path, capsys):
    cfg_path, cfg = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "outcome: max_time" in out
    assert "steps: 12" in out

    outdir = tmp_path / "out"
    rows = read_rows(outdir / "diagnostics.csv")
    assert rows[0] == list(
        ("step", "time", "volume", "energy", "bondi", "w_min", "w_max",
         "dissipation", "lam_max", "lam_argmax")
    )
    assert len(rows) == 1 + 13  # header + steps 0..12
    assert [r[0] for r in rows[1:]] == [str(k) for k in range(13)]
    for row in rows[1:]:
        for cell in row[1:]:
            assert "," not in cell  # '.' decimal separator, RFC 4180 fields
            float(cell)  # parses as a number

    # CRLF line endings per RFC 4180
    blob = (outdir / "diagnostics.csv").read_bytes()
    assert blob.count(b"\r\n") == len(rows)

    meta = json.loads((outdir / "meta.json").read_text())
    assert RunConfig.from_dict(meta["config"]) == RunConfig.from_dict(cfg)
    assert meta["outcome"] == "max_time"
    assert meta["n_steps"] == 12
    assert meta["resolved"]["dt"] == 1.8e-9
    assert meta["conventions"]["flow_sign"] == -1.0
    assert set(meta) == {  # O(1) in the step count: no per-step entries
        "config", "resolved", "conventions", "outcome", "n_steps",
        "final", "bondi_sup_rate", "wall_time_seconds",
    }
    assert all(0 <= int(row[9]) < 16 * 16 for row in rows[1:])
    assert meta["final"]["lam_max"] == float(rows[-1][8])
    assert meta["final"]["lam_argmax"] == int(rows[-1][9])
    assert meta["final"]["time"] == float(rows[-1][1])
    assert isinstance(meta["wall_time_seconds"], float)


def plateau_entries(obj, path=()):
    """(path, value) of every plateau key in a meta.json tree."""
    out = []
    for key, value in obj.items():
        if key in ("plateau_tol", "plateau_window"):
            out.append((path + (key,), value))
        elif isinstance(value, dict):
            out.extend(plateau_entries(value, path + (key,)))
    return out


# ``used``: how the run ends, by its step budget or by the plateau test
@pytest.mark.parametrize("overrides, used", [
    ({}, {"outcome": "max_time", "n_steps": 12}),
    ({"initial_data": {"kind": "constant", "value": 0.0}, "max_steps": None},
     {"outcome": "plateau", "n_steps": PLATEAU_WINDOW}),
])
def test_meta_states_each_plateau_value_once(tmp_path, overrides, used):
    cfg_path, _ = write_config(tmp_path, **overrides)
    assert main(["run", str(cfg_path)]) == EXIT_OK
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert {k: meta[k] for k in used} == used
    assert plateau_entries(meta) == [(("conventions", "plateau_tol"), PLATEAU_TOL),
                                     (("conventions", "plateau_window"), PLATEAU_WINDOW)]
    assert set(meta["resolved"]) == {"dt", "output_dir"}


def test_run_snapshots_round_trip(tmp_path):
    cfg_path, cfg = write_config(tmp_path, snapshot_every=5, max_steps=10)
    assert main(["run", str(cfg_path)]) == EXIT_OK

    snapdir = tmp_path / "out" / "snapshots"
    stems = sorted(p.name for p in snapdir.iterdir())
    assert stems == [
        "step_000000.f64", "step_000000.json",
        "step_000005.f64", "step_000005.json",
        "step_000010.f64", "step_000010.json",
    ]

    sidecar = json.loads((snapdir / "step_000000.json").read_text())
    assert sidecar["dtype"] == "<f8"
    assert sidecar["shape"] == [16, 16]
    assert sidecar["order"] == "C"
    assert sidecar["geometry"] == cfg["geometry"]

    stored = np.fromfile(snapdir / "step_000000.f64", dtype="<f8").reshape(
        sidecar["shape"]
    )
    geom = build_geometry(cfg["geometry"])
    lam0 = initial_data(geom, cfg["initial_data"])
    np.testing.assert_array_equal(stored, lam0.values)


def test_lambda_columns_match_the_snapshots(tmp_path):
    cfg_path, _ = write_config(tmp_path, snapshot_every=4, max_steps=12)
    assert main(["run", str(cfg_path)]) == EXIT_OK

    outdir = tmp_path / "out"
    rows = read_rows(outdir / "diagnostics.csv")[1:]
    for stem in sorted((outdir / "snapshots").glob("*.f64")):
        step = int(stem.stem.split("_")[1])
        lam = np.fromfile(stem, dtype="<f8")
        assert float(rows[step][8]) == np.abs(lam).max()
        assert int(rows[step][9]) == int(np.argmax(np.abs(lam)))

    meta = json.loads((outdir / "meta.json").read_text())
    bondi = [float(row[4]) for row in rows]
    dt = meta["resolved"]["dt"]
    rates = [(b1 - b0) / dt for b0, b1 in zip(bondi, bondi[1:])]
    assert meta["bondi_sup_rate"] == max(rates)


def csv_writer_reference(path, traj):
    """diagnostics.csv as csv.writer writes it, every float through _fmt."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for step, d in enumerate(traj.diagnostics):
            writer.writerow([step] + [_fmt(x) for x in (
                d.time, d.volume, d.energy, d.bondi, d.w_min, d.w_max,
                d.dissipation, d.lam_max)] + [d.lam_argmax])


def test_diagnostics_rows_are_the_csv_writer_bytes(tmp_path):
    nan, inf = float("nan"), float("inf")
    odd = [
        (0.0, -0.0, 1e-300, 5e-324, -inf, inf, nan, 0.1, 0),
        (1.5e-12, nan, inf, -inf, -0.0, 1.0 / 3.0, -2.5e300, nan, 7),
        (2.0, 123456789.0, -1e-17, 0.0, nan, nan, 0.0, inf, 4095),
    ]
    synthetic = flow.Trajectory(outcome="blowup", dt=1.0, diagnostics=[
        flow.Diagnostics(time=t, volume=v, energy=e, bondi=b, w_min=lo,
                         w_max=hi, dissipation=dis, overflow_flag=True,
                         lam_max=lm, lam_argmax=am)
        for t, v, e, b, lo, hi, dis, lm, am in odd])
    geom = build_geometry(
        {"kind": "HeisenbergSector2D", "resolution": [32, 32], "periods": [1.0, 1.0]})
    lam0 = initial_data(geom, {"kind": "random", "seed": 7, "amplitude": 0.15,
                               "cutoff": 2})
    probe = flow.run(lam0, dt=1e-7, max_steps=60)
    assert probe.outcome == "blowup"
    assert not math.isfinite(probe.diagnostics[-1].energy)
    for name, traj in (("synthetic", synthetic), ("probe", probe)):
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}.ref.csv"
        _write_diagnostics(str(got), traj)
        csv_writer_reference(str(want), traj)
        assert got.read_bytes() == want.read_bytes()


def test_run_honors_the_output_dir_flag(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path)
    override = tmp_path / "elsewhere"
    assert main(["run", str(cfg_path), "--output-dir", str(override)]) == EXIT_OK
    capsys.readouterr()
    assert (override / "diagnostics.csv").exists()
    assert not (tmp_path / "out").exists()


def test_an_empty_output_dir_flag_exits_with_the_config_code(tmp_path, capsys):
    # the flag is read whenever it is given, and refused as the key is
    cfg_path, _ = write_config(tmp_path)
    assert main(["run", str(cfg_path), "--output-dir", ""]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: output_dir must be a nonempty string\n"
    assert not (tmp_path / "out").exists()


def test_zero_data_run_plateaus(tmp_path, capsys):
    # max_time / dt overflows in the second run: its step budget is
    # unbounded, and the plateau test still ends it
    huge_budget = {"geometry": {"kind": "HeisenbergSector2D", "resolution": [8, 8]},
                   "max_time": 1e300, "dt": 1e-10}
    for overrides in ({}, huge_budget):
        cfg_path, _ = write_config(
            tmp_path,
            initial_data={"kind": "constant", "value": 0.0},
            max_steps=None,
            **overrides,
        )
        assert main(["run", str(cfg_path)]) == EXIT_OK
        assert "outcome: plateau" in capsys.readouterr().out
        rows = read_rows(tmp_path / "out" / "diagnostics.csv")
        energies = {row[3] for row in rows[1:]}
        assert energies == {"0"}
        assert int(rows[-1][0]) == PLATEAU_WINDOW


# RK4 at about 270 times the automatic step, beyond its stability edge
UNSTABLE_RUN = {
    "geometry": {"kind": "HeisenbergSector2D", "resolution": [32, 32]},
    "initial_data": {"kind": "random", "seed": 7, "amplitude": 0.15, "cutoff": 2},
    "dt": 1e-7,
    "max_steps": 60,
}


def test_unstable_step_exits_with_the_blowup_code(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, **UNSTABLE_RUN)
    assert main(["run", str(cfg_path)]) == EXIT_BLOWUP
    assert "outcome: blowup" in capsys.readouterr().out
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert meta["outcome"] == "blowup"
    assert meta["final"]["overflow_flag"]
    assert meta["n_steps"] < 60


def test_bad_config_exits_with_the_config_code(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, integrator="leapfrog")
    assert main(["run", str(cfg_path)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_missing_config_file_exits_with_the_config_code(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_output_dir_naming_a_file_exits_with_the_config_code(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    # a name too long for the file system is shown by its head and length
    for outdir in (taken, tmp_path / ("o" * 300)):
        cfg_path, _ = write_config(tmp_path, output_dir=str(outdir))
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert len(err[0].encode()) <= 200


def test_unbuildable_geometry_exits_with_the_config_code(tmp_path, capsys):
    cfg_path, _ = write_config(
        tmp_path,
        geometry={
            "kind": "HeisenbergLattice3D",
            "resolution": [16, 16, 16],
            "periods": [1.0, 1.0, 1.0],
        },
    )
    assert main(["run", str(cfg_path)]) == EXIT_CONFIG
    assert "wrap-shift" in capsys.readouterr().err


@pytest.mark.parametrize("geometry", [
    # dx^2 underflows to 0, or overflows to inf
    {"kind": "HeisenbergSector2D", "resolution": [8, 8], "periods": [1e-320, 1]},
    {"kind": "HeisenbergSector2D", "resolution": [8, 8], "periods": [1e308, 1e308]},
    # 71 PiB and more: beyond any address space, so nothing is allocated
    {"kind": "SphereReduced1D", "resolution": 10**16},
    {"kind": "HeisenbergSector2D", "resolution": [16, 10**16]},
    # the automatic step is NaN (dx^2 subnormal), or 0 (C_STAB * sigma^2
    # overflows although dx^2 is a normal float)
    {"kind": "HeisenbergSector2D", "resolution": [8, 8], "periods": [8e-155, 1]},
    {"kind": "HeisenbergSector2D", "resolution": [8, 8], "periods": [1e-80, 1]},
])
def test_degenerate_or_unallocatable_grid_exits_with_the_config_code(
        tmp_path, capsys, geometry):
    cfg_path, _ = write_config(tmp_path, geometry=geometry, dt="auto",
                               initial_data={"kind": "constant", "value": 0.0})
    assert main(["run", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_malformed_initial_data_exits_without_a_traceback(tmp_path):
    cfg_path, _ = write_config(
        tmp_path,
        geometry={"kind": "SphereReduced1D", "resolution": 16},
        initial_data={"kind": "random", "cutoff": "3"},
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(crflow.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "crflow.cli", "run", str(cfg_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_CONFIG
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


RUN_MODULES = ["crflow", "crflow.cli", "crflow.conventions", "crflow.flow",
               "crflow.manifold", "crflow.operators"]


@pytest.mark.parametrize("integrator, loads_fft", [("explicit", False), ("imex", True)])
def test_run_process_loads_only_the_modules_it_runs(tmp_path, integrator, loads_fft):
    cfg_path, _ = write_config(tmp_path, integrator=integrator)
    script = (
        "import json, sys\n"
        "import numpy\n"
        "numpy_fft = 'numpy.fft' in sys.modules\n"
        "import crflow.cli\n"
        f"code = crflow.cli.main(['run', {str(cfg_path)!r}])\n"
        "print(json.dumps([code, numpy_fft, sorted(sys.modules)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(crflow.__file__)))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, numpy_fft, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == EXIT_OK
    assert [m for m in modules if m.split(".")[0] == "crflow"] == RUN_MODULES
    # the sector's spectral inverse is the only user of numpy.fft; numpy
    # releases that import it with numpy itself load it for every run
    assert ("numpy.fft" in modules) == (loads_fft or numpy_fft)


# Registered before crflow.cli is imported, so atexit runs it last: after
# the gc.freeze that main registers.  Runs main only when given arguments.
EXIT_REPORTER = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
    "import crflow.cli\n"
    "if sys.argv[1:]:\n"
    "    sys.exit(crflow.cli.main(sys.argv[1:]))\n"
)


def test_run_process_freezes_the_heap_at_exit_only_from_main(tmp_path):
    ok_path, _ = write_config(tmp_path, "ok.json")
    bad_path, _ = write_config(tmp_path, "bad.json", integrator="leapfrog")
    up_path, _ = write_config(tmp_path, "up.json", **UNSTABLE_RUN)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(crflow.__file__)))
    cases = [([], EXIT_OK, None),
             (["run", str(ok_path)], EXIT_OK, "outcome: max_time"),
             (["run", str(bad_path)], EXIT_CONFIG, None),
             (["run", str(up_path)], EXIT_BLOWUP, "outcome: blowup")]
    for argv, code, outcome in cases:
        out_path = tmp_path / "stdout.txt"
        with open(out_path, "w") as out:
            proc = subprocess.run([sys.executable, "-c", EXIT_REPORTER, *argv],
                                  stdout=out, stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        frozen = int(re.search(r"^frozen (\d+)$", proc.stderr, re.M).group(1))
        assert (frozen > 0) == bool(argv)   # import alone leaves exit alone
        stdout = out_path.read_text()
        if outcome is not None:
            assert stdout.startswith(outcome)
        if code == EXIT_CONFIG:
            assert "error:" in proc.stderr


def test_run_freezes_the_set_up_heap_for_the_flow_only(tmp_path, monkeypatch):
    cfg_path, _ = write_config(tmp_path)
    at_entry = []
    run = flow.run

    def wrapped(*args, **kwargs):
        at_entry.append(gc.get_freeze_count())
        return run(*args, **kwargs)

    monkeypatch.setattr(flow, "run", wrapped)
    before = gc.get_freeze_count()
    assert main(["run", str(cfg_path)]) == EXIT_OK
    assert at_entry[0] > 0
    assert gc.get_freeze_count() == before


def test_removed_bump_data_exits_with_the_config_code(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, initial_data={"kind": "bump"})
    assert main(["run", str(cfg_path)]) == EXIT_CONFIG
    assert "unknown initial-data kind 'bump'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check


def test_check_passes_on_one_module(capsys):
    assert main(["check", "--only", "inversion"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS] inversion: w-reciprocal" in out
    assert "all invariants passed" in out
    assert "[FAIL]" not in out


def test_check_names_the_corrupted_stencil(monkeypatch, capsys):
    stencil = invariants.sublap

    def lopsided(fld):
        # a deliberately asymmetric corruption of the stencil
        bad = np.roll(fld.values, 1, axis=0) / fld.geometry.spacing[0] ** 2
        return ScalarField(fld.geometry, stencil(fld).values + bad)

    monkeypatch.setattr(invariants, "sublap", lopsided)
    code = main(["check", "--only", "operators"])
    captured = capsys.readouterr()
    assert code == EXIT_INVARIANT
    assert "[FAIL] operators: self-adjointness" in captured.out
    assert "invariant failed" in captured.err
    assert "self-adjointness" in captured.err


def test_check_rejects_unknown_module(capsys):
    with pytest.raises(SystemExit):
        main(["check", "--only", "nonsense"])
    capsys.readouterr()


def test_check_prints_the_calibrated_constant(capsys):
    assert main(["check", "--only", "operators"]) == EXIT_OK
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("[PASS] operators: calibration"))
    assert f"calibrated curvature {operators.calibrate_sphere_curvature()!r} > 0" in line


def test_check_rejects_a_warped_calibration_profile(monkeypatch, capsys):
    operators.calibrate_sphere_curvature()   # the cached default must not mask it
    profile = operators.extremal_profile

    def warped(t, x, y):
        return profile(t, x, y) * (1.0 + 0.05 * np.tanh(t))

    monkeypatch.setattr(operators, "extremal_profile", warped)
    code = main(["check", "--only", "operators"])
    captured = capsys.readouterr()
    assert code == EXIT_INVARIANT
    assert "[FAIL] operators: calibration — raised CalibrationError" in captured.out
    assert "invariant failed: calibration" in captured.err


def test_calibrate_is_not_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["calibrate"])
    assert exc.value.code == 2     # argparse's usage error
    assert "invalid choice: 'calibrate'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# invert


def test_invert_reports_the_image_as_json(capsys):
    assert main(["invert", "1", "0", "0"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["point"] == {"t": 1.0, "x": 0.0, "y": 0.0}
    assert record["image"] == {"t": -1.0, "x": 0.0, "y": 0.0}
    assert record["wnorm"] == 1.0
    assert record["wnorm_image"] == 1.0
    assert record["jacobian_det"] == pytest.approx(1.0, rel=1e-12)
    assert record["pullback_residual"] <= 1e-12


def test_invert_reports_reciprocal_gauges(capsys):
    assert main(["invert", "3", "2", "0"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["wnorm"] == 5.0
    assert record["wnorm_image"] == pytest.approx(0.2, rel=1e-12, abs=0)


def test_invert_rejects_the_origin(capsys):
    assert main(["invert", "0", "0", "0"]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
