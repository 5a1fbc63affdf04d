"""Command-line interface: config validation, artifacts, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import crflow
from crflow import ScalarField, build_geometry, flow, initial_data, invariants, operators
from crflow.cli import (
    _CSV_COLUMNS,
    CALIBRATION_CACHE,
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_SOLVER,
    OUTPUT_ROOT_ENV,
    ConfigError,
    RunConfig,
    _fmt,
    _write_diagnostics,
    main,
    resolve_output_dir,
)
from crflow.conventions import DEFAULT_LEDGER


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
    cfg = RunConfig.from_dict(base_config(tmp_path))
    again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_dict(base_config(tmp_path, typo_key=1))


def test_config_requires_geometry_and_data(tmp_path):
    raw = base_config(tmp_path)
    del raw["geometry"], raw["initial_data"]
    with pytest.raises(ConfigError, match="missing required config keys"):
        RunConfig.from_dict(raw)


def test_config_must_be_an_object():
    with pytest.raises(ConfigError):
        RunConfig.from_dict(["not", "a", "mapping"])


@pytest.mark.parametrize(
    "overrides",
    [
        {"integrator": "leapfrog"},
        {"dt": "fast"},
        {"dt": -1e-9},
        {"dt": True},
        {"max_time": 0.0},
        {"max_steps": 0},
        {"max_steps": 2.5},
        {"plateau_tol": -1.0},
        {"plateau_window": 1},
        {"snapshot_every": -1},
        {"output_dir": ""},
        {"conventions": ["flow_sign"]},
        {"conventions": {"no_such_convention": 1.0}},
        {"max_steps": True},
        {"snapshot_every": True},
        {"max_time": True},
        {"plateau_tol": True},
        {"plateau_tol": math.inf},
        {"conventions": {"flow_sign": "up"}},
        {"conventions": {"flow_sign": 2.0}},
        {"conventions": {"flow_sign": True}},
        {"conventions": {"cg_max_iter": "many"}},
        {"conventions": {"cg_max_iter": 2.5}},
        {"conventions": {"cg_max_iter": 0}},
        {"conventions": {"cg_max_iter": True}},
        {"conventions": {"sphere_kappa": 1.0}},
        {"conventions": {"heisenberg_volume_weight": 8.0}},
    ],
)
def test_config_validation_failures(tmp_path, overrides):
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_config(tmp_path, **overrides))


def test_config_accepts_convention_overrides(tmp_path):
    cfg = RunConfig.from_dict(
        base_config(tmp_path, conventions={"flow_sign": 1.0})
    )
    assert cfg.ledger().flow_sign == 1.0


def test_output_root_reroots_relative_paths(monkeypatch, tmp_path):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "root"))
    assert resolve_output_dir("runs/a") == str(tmp_path / "root" / "runs" / "a")
    absolute = str(tmp_path / "abs")
    assert resolve_output_dir(absolute) == absolute
    monkeypatch.delenv(OUTPUT_ROOT_ENV)
    assert resolve_output_dir("runs/a") == "runs/a"


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
        "final_time", "final", "bondi_sup_rate", "wall_time_seconds",
    }
    assert all(0 <= int(row[9]) < 16 * 16 for row in rows[1:])
    assert meta["final"]["lam_max"] == float(rows[-1][8])
    assert meta["final"]["lam_argmax"] == int(rows[-1][9])
    assert meta["final"]["time"] == meta["final_time"] == float(rows[-1][1])
    assert isinstance(meta["wall_time_seconds"], float)


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


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == EXIT_OK
    first_csv = (tmp_path / "out" / "diagnostics.csv").read_bytes()
    first_meta = json.loads((tmp_path / "out" / "meta.json").read_text())

    assert main(["run", str(cfg_path)]) == EXIT_OK
    second_csv = (tmp_path / "out" / "diagnostics.csv").read_bytes()
    second_meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    capsys.readouterr()

    assert first_csv == second_csv
    first_meta.pop("wall_time_seconds")
    second_meta.pop("wall_time_seconds")
    assert first_meta == second_meta


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
    probe = flow.run(geom, lam0, dt=5e-10, max_steps=20000,
                     ledger=DEFAULT_LEDGER.replace(flow_sign=1.0))
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


def test_run_respects_the_output_root(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "rooted"))
    cfg_path, _ = write_config(tmp_path, output_dir="rel-run")
    assert main(["run", str(cfg_path)]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "rooted" / "rel-run" / "meta.json").exists()


def test_zero_data_run_plateaus(tmp_path, capsys):
    cfg_path, _ = write_config(
        tmp_path,
        initial_data={"kind": "constant", "value": 0.0},
        max_steps=None,
    )
    assert main(["run", str(cfg_path)]) == EXIT_OK
    assert "outcome: plateau" in capsys.readouterr().out
    rows = read_rows(tmp_path / "out" / "diagnostics.csv")
    energies = {row[3] for row in rows[1:]}
    assert energies == {"0"}


def test_ascending_probe_exits_with_the_blowup_code(tmp_path, capsys):
    cfg_path, _ = write_config(
        tmp_path,
        geometry={
            "kind": "HeisenbergSector2D",
            "resolution": [32, 32],
            "periods": [1.0, 1.0],
        },
        initial_data={"kind": "random", "seed": 7, "amplitude": 0.15, "cutoff": 2},
        dt=5e-10,
        max_steps=20000,
        conventions={"flow_sign": 1.0},
    )
    assert main(["run", str(cfg_path)]) == EXIT_BLOWUP
    assert "outcome: blowup" in capsys.readouterr().out
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert meta["outcome"] == "blowup"
    assert meta["n_steps"] < 20000


def test_solver_failure_exits_with_the_solver_code(tmp_path, capsys):
    cfg_path, cfg = write_config(
        tmp_path,
        geometry={
            "kind": "HeisenbergLattice3D",
            "resolution": [16, 16, 16],
            "periods": [1.0, 1.0, 0.125],
        },
        initial_data={"kind": "random", "seed": 3},
        integrator="imex",
        dt=1e-7,
        max_time=1e-6,
        max_steps=None,
        conventions={"cg_max_iter": 5},
    )
    assert main(["run", str(cfg_path)]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert "outcome: solver_failure" in captured.out
    assert "no convergence in 5 iterations" in captured.err

    outdir = tmp_path / "out"
    rows = read_rows(outdir / "diagnostics.csv")
    meta = json.loads((outdir / "meta.json").read_text())
    assert RunConfig.from_dict(meta["config"]) == RunConfig.from_dict(cfg)
    assert meta["outcome"] == "solver_failure"
    assert "no convergence" in meta["solver_error"]
    assert len(rows) == 1 + 1 + meta["n_steps"]
    assert int(rows[-1][0]) == meta["n_steps"]
    assert all(math.isfinite(float(cell)) for row in rows[1:] for cell in row)


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
    cfg_path, _ = write_config(tmp_path, output_dir=str(taken))
    assert main(["run", str(cfg_path)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


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


def test_malformed_initial_data_exits_without_a_traceback(tmp_path):
    cfg_path, _ = write_config(
        tmp_path,
        geometry={"kind": "SphereReduced1D", "resolution": 16},
        initial_data={"kind": "bump", "center": []},
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(crflow.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "crflow.cli", "run", str(cfg_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_CONFIG
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


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


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_writes_an_idempotent_cache(tmp_path, capsys):
    cache = tmp_path / "cal" / "calibration.json"
    assert main(["calibrate", "--cache", str(cache)]) == EXIT_OK
    first_out = capsys.readouterr().out
    first = json.loads(cache.read_text())

    assert main(["calibrate", "--cache", str(cache)]) == EXIT_OK
    second_out = capsys.readouterr().out
    second = json.loads(cache.read_text())

    assert first == second
    assert first_out.splitlines()[0] == second_out.splitlines()[0]
    value = first["sphere_background_curvature"]
    assert value > 0.0
    assert first["relative_spread"] <= 1e-3
    assert first["n_points"] >= 100
    assert repr(value) in first_out


def test_calibrate_defaults_to_the_output_root(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert main(["calibrate"]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / CALIBRATION_CACHE).exists()


def test_calibrate_rejects_a_warped_profile(monkeypatch, capsys):
    profile = operators.extremal_profile

    def warped(t, x, y):
        return profile(t, x, y) * (1.0 + 0.05 * np.tanh(t))

    monkeypatch.setattr(operators, "extremal_profile", warped)
    assert main(["calibrate"]) == EXIT_INVARIANT
    assert "calibration failed" in capsys.readouterr().err


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
    assert record["wnorm"] == pytest.approx(5.0, rel=1e-15)
    assert record["wnorm_image"] == pytest.approx(0.2, rel=1e-12)


def test_invert_rejects_the_origin(capsys):
    assert main(["invert", "0", "0", "0"]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
