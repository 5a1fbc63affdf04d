"""The four benchmark workloads, their references and the correctness gate.

Every workload runs to a fixed simulated flow time and is checked against
a committed reference at that flow time.  The RK4 workloads pin the
algorithm and the step: their final time must hit the target to 1e-9 and
their final energy must match a reference run of the same configuration to
1e-9.  Only ``sector64-imex`` is checked at an accuracy level, against
explicit RK4 to the same flow time, so a different stepper or step size
can show there as more flow time per wall second.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

DATA_SEEDS = tuple(range(3, 11))  # committed references exist for these
ENERGY_RISE = 1e-10               # E[i] <= E[i-1] * (1 + ENERGY_RISE)
RK4_ENERGY_RTOL = 1e-9            # final energy vs the stored RK4 run
IMEX_ENERGY_RTOL = 0.05           # final energy vs RK4 at the same flow time
CSV_COLUMNS = ("step", "time", "volume", "energy", "bondi", "w_min",
               "w_max", "dissipation")  # required; more columns may follow


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    geometry: dict
    initial_data: dict      # the data seed is added per run
    integrator: str
    dt: object              # "auto" or a step size
    step: float             # the resolved step size
    steps: int              # flow time = steps * step
    volume_rtol: float | None  # None: volume drift reported, not gated
    must_fire: tuple = ()   # spans the traced run must see called
    snapshot_every: int = 0

    @property
    def flow_time(self) -> float:
        return self.steps * self.step

    def config(self, data_seed: int, steps: int | None = None) -> dict:
        """The ``crflow run`` configuration; ``steps`` shortens the run."""
        steps = self.steps if steps is None else steps
        return {
            "geometry": self.geometry,
            "initial_data": dict(self.initial_data, seed=data_seed),
            "integrator": self.integrator,
            "dt": self.dt,
            "max_time": steps * self.step,
            "snapshot_every": self.snapshot_every,
        }

    def reference_config(self, data_seed: int, steps: int | None = None) -> dict:
        """The run whose final energy is the reference: the workload
        itself for RK4, and explicit RK4 at the automatic step to the
        same flow time for IMEX."""
        cfg = self.config(data_seed, steps)
        if self.integrator == "imex":
            cfg.update(integrator="explicit", dt="auto", snapshot_every=0)
        return cfg


SECTOR_DATA = {"kind": "random", "amplitude": 0.1, "cutoff": 3}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="sector128-rk4",
        why="Explicit RK4 on a 128x128 sector: array work, the stencil and "
            "np.roll dominate, the solver is idle. References built for data "
            "seeds 3-10, default 3.",
        geometry={"kind": "HeisenbergSector2D", "resolution": [128, 128],
                  "periods": [1, 1]},
        initial_data=SECTOR_DATA,
        integrator="explicit", dt="auto", step=1.4551915228366853e-12,
        steps=100, volume_rtol=1e-14, must_fire=("manifold.shift",),
    ),
    Workload(
        name="lattice32-rk4",
        why="Explicit RK4 on a 32^3 twisted lattice: the only fancy-index "
            "gather path, the largest arrays, a costly initial_data. "
            "References built for data seeds 3-10, default 3.",
        geometry={"kind": "HeisenbergLattice3D", "resolution": [32, 32, 32],
                  "periods": [1, 1, 0.125]},
        initial_data=dict(SECTOR_DATA, cutoff_t=2),
        integrator="explicit", dt="auto", step=3.7252902984619143e-10,
        steps=20, volume_rtol=2e-7, must_fire=("manifold.shift",),
    ),
    Workload(
        name="sector64-imex",
        why="IMEX on a 64x64 sector at 1000x the explicit step: the CG solve "
            "dominates; checked against RK4 at the same flow time. "
            "References built for data seeds 3-10, default 3.",
        geometry={"kind": "HeisenbergSector2D", "resolution": [64, 64],
                  "periods": [1, 1]},
        initial_data=SECTOR_DATA,
        integrator="imex", dt=2.3283064365386963e-08,
        step=2.3283064365386963e-08, steps=10, volume_rtol=None,
        must_fire=("operators.linear_solve",),
    ),
    Workload(
        name="sphere64-rk4",
        why="Explicit RK4 on the 64-cell reduced sphere: many tiny calls, "
            "fixed Python cost, calibration at set-up, snapshots and large "
            "meta.json. References built for data seeds 3-10, default 3.",
        geometry={"kind": "SphereReduced1D", "resolution": [64]},
        initial_data={"kind": "random", "amplitude": 0.05, "cutoff": 16},
        integrator="explicit", dt="auto", step=2.3300127110531065e-11,
        steps=1000, volume_rtol=5e-11, snapshot_every=100,
    ),
)}


# ---------------------------------------------------------------------------
# references


def _load(path: str) -> dict:
    try:
        with open(path, encoding="ascii") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def stored_reference(workload: Workload, data_seed: int) -> float:
    """The committed reference final energy; raises ``KeyError`` if
    ``references.json`` holds none for this workload, data seed and flow
    time (rebuild it with ``build_references.py``)."""
    entry = _load(REFERENCES).get(workload.name, {})
    value = entry.get("final_energy", {}).get(str(data_seed))
    if value is None or entry.get("flow_time") != workload.flow_time:
        raise KeyError(f"no stored reference for {workload.name} at data seed "
                       f"{data_seed} and flow time {workload.flow_time!r}")
    return value


def store_reference(workload: Workload, data_seed: int, value: float) -> None:
    """Write one reference final energy into ``references.json``."""
    refs = _load(REFERENCES)
    entry = refs.setdefault(workload.name, {})
    if entry.get("flow_time") != workload.flow_time:
        entry.clear()
    entry["flow_time"] = workload.flow_time
    entry["reference_integrator"] = workload.reference_config(data_seed)["integrator"]
    entry.setdefault("final_energy", {})[str(data_seed)] = value
    tmp = REFERENCES + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, REFERENCES)


# ---------------------------------------------------------------------------
# correctness gate


def read_diagnostics(outdir: str) -> list:
    """Rows of ``diagnostics.csv`` as float lists in ``CSV_COLUMNS`` order."""
    with open(os.path.join(outdir, "diagnostics.csv"), encoding="ascii",
              newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"diagnostics.csv lacks columns {sorted(missing)}")
        return [[float(row[c]) for c in CSV_COLUMNS] for row in reader]


def check_run(workload: Workload, outdir: str, flow_time: float,
              reference: float | None) -> tuple:
    """Check one run's artifacts.  Returns ``(failures, report)``: the
    list of violated checks (empty when the run is correct) and the
    measured values, including the ones reported but not gated."""
    failures: list = []
    report: dict = {}
    try:
        rows = read_diagnostics(outdir)
        with open(os.path.join(outdir, "meta.json"), encoding="ascii") as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"artifacts unreadable: {exc}"], report
    if not rows or not all(math.isfinite(v) for row in rows for v in row):
        failures.append("diagnostics.csv holds a non-finite value or no row")
        return failures, report
    if meta.get("outcome") != "max_time":
        failures.append(f"outcome {meta.get('outcome')!r}, expected 'max_time'")
    if meta.get("n_steps") != len(rows) - 1:
        failures.append("meta.json n_steps disagrees with diagnostics.csv")
    final_time = rows[-1][1]
    report["final_time"] = final_time
    if abs(final_time - flow_time) > 1e-9 * flow_time:
        failures.append(f"final time {final_time!r} is not the target {flow_time!r}")

    volumes = [row[2] for row in rows]
    energies = [row[3] for row in rows]
    drift = max(abs(v - volumes[0]) for v in volumes) / volumes[0]
    rises = sum(b > a * (1.0 + ENERGY_RISE) for a, b in zip(energies, energies[1:]))
    report.update(volume_drift=drift, energy_rises=rises, final_energy=energies[-1])
    if workload.volume_rtol is not None:
        if drift > workload.volume_rtol:
            failures.append(f"volume drift {drift:.3e} > {workload.volume_rtol:.0e}")
        if rises:
            failures.append(f"energy rose in {rises} steps")
    rtol = IMEX_ENERGY_RTOL if workload.integrator == "imex" else RK4_ENERGY_RTOL
    if reference is not None:
        err = abs(energies[-1] - reference) / abs(reference)
        report["energy_error"] = err
        if err > rtol:
            failures.append(f"final energy {energies[-1]!r} is {err:.3e} off the "
                            f"reference {reference!r} (tolerance {rtol:.0e})")

    if workload.snapshot_every:
        n_snap = len(range(0, len(rows), workload.snapshot_every))
        n_snap += (len(rows) - 1) % workload.snapshot_every != 0
        snapdir = os.path.join(outdir, "snapshots")
        names = os.listdir(snapdir) if os.path.isdir(snapdir) else []
        if len([n for n in names if n.endswith(".f64")]) != n_snap:
            failures.append(f"expected {n_snap} snapshots in {snapdir}")
    return failures, report
