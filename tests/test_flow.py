"""Time integration: functionals, descent identity, steppers, outcomes."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from crflow import (
    ScalarField,
    auto_dt,
    bondi,
    build_geometry,
    energy,
    flow_rhs,
    gradient_check,
    initial_data,
    integrate,
    run,
    stability_symbol_max,
    step_explicit,
    step_imex,
    volume,
    webster_curvature,
)
from crflow.conventions import (
    BLOWUP_THRESHOLD,
    C_STAB,
    DEFAULT_LEDGER,
    PLATEAU_WINDOW,
    SPHERE_KAPPA,
    YAMABE_COEFFICIENT,
)
from crflow import flow
from crflow.flow import _rhs_values, _weighted_sum, detect_blowup, make_state


def sector(n=16):
    return build_geometry(
        {"kind": "HeisenbergSector2D", "resolution": [n, n], "periods": [1.0, 1.0]}
    )


def sphere(n=32):
    return build_geometry(
        {"kind": "SphereReduced1D", "resolution": [n], "periods": [1.0]}
    )


def lattice():
    return build_geometry(
        {
            "kind": "HeisenbergLattice3D",
            "resolution": [8, 8, 16],
            "periods": [1.0, 1.0, 1.0],
        }
    )


def random_data(geom, seed, amplitude=0.1, cutoff=2, **extra):
    return initial_data(
        geom,
        {"kind": "random", "seed": seed, "amplitude": amplitude, "cutoff": cutoff,
         **extra},
    )


def constant(geom, c):
    return ScalarField(geom, np.full(geom.resolution, c))


# ---------------------------------------------------------------------------
# functionals


def test_volume_closed_form_on_constants():
    c = 0.3
    # 2D sector: weight 4, unit coordinate box
    assert volume(constant(sector(), c)) == pytest.approx(
        4.0 * math.exp(4.0 * c), rel=1e-14
    )
    # sphere: total measure kappa
    kappa = SPHERE_KAPPA
    assert volume(constant(sphere(), c)) == pytest.approx(
        kappa * math.exp(4.0 * c), rel=1e-14
    )


def test_bondi_closed_form_on_constants():
    c = -0.2
    assert bondi(constant(sector(), c)) == pytest.approx(
        4.0 * math.exp(5.0 * c), rel=1e-14
    )


def test_heisenberg_constant_energy_is_exactly_zero():
    for make in (sector, lattice):
        for c in (0.0, 0.4, -1.1):
            assert energy(constant(make(), c)) == 0.0


def test_sphere_constant_energy_matches_background():
    geom = sphere()
    kappa = SPHERE_KAPPA
    w0 = geom.background_curvature
    for c in (0.0, 0.3):
        assert energy(constant(geom, c)) == pytest.approx(kappa * w0**2, rel=1e-13)


def test_energy_is_shift_invariant_to_machine_precision():
    geom = sector()
    lam = random_data(geom, 21, amplitude=0.2, cutoff=3)
    shifted = ScalarField(geom, lam.values + 0.45)
    e0, e1 = energy(lam), energy(shifted)
    assert abs(e1 - e0) <= 1e-13 * abs(e0)


# ---------------------------------------------------------------------------
# descent direction


@pytest.mark.parametrize("make", [sector, sphere, lattice])
def test_constant_states_are_exactly_stationary(make):
    geom = make()
    for c in (0.0, 0.5, -0.7):
        assert np.all(flow_rhs(constant(geom, c)).values == 0.0)


def test_rhs_has_exact_weighted_mean_zero():
    for make in (sector, sphere, lattice):
        geom = make()
        lam = random_data(geom, 22, amplitude=0.15, cutoff=2)
        rhs = flow_rhs(lam).values
        w = np.exp(4.0 * lam.values)
        total = float(integrate(ScalarField(geom, rhs * w)))
        norm = float(integrate(ScalarField(geom, np.abs(rhs) * w)))
        assert abs(total) <= 1e-13 * norm


def test_rhs_is_shift_covariant_with_the_volume_weight():
    # the energy is shift-invariant, so its volume-weighted gradient picks
    # up exactly e^{4c} under lambda -> lambda + c
    geom = sector()
    lam = random_data(geom, 23, amplitude=0.2, cutoff=3)
    c = 0.45
    shifted = ScalarField(geom, lam.values + c)
    r0 = flow_rhs(lam).values
    r1 = flow_rhs(shifted).values * math.exp(4.0 * c)
    assert np.max(np.abs(r1 - r0)) <= 1e-12 * np.max(np.abs(r0))


@pytest.mark.parametrize("make", [sector, sphere, lattice])
def test_gradient_identity_against_finite_differences(make):
    geom = make()
    worst = 0.0
    for seed in (31, 32, 33):
        lam = random_data(geom, seed, amplitude=0.1, cutoff=2)
        phi = random_data(geom, seed + 50, amplitude=0.1, cutoff=2)
        worst = max(worst, gradient_check(lam, phi))
    assert worst <= 1e-6


def test_rhs_flags_non_finite_states():
    geom = sector(8)
    bad = ScalarField(geom, np.full((8, 8), np.nan))
    assert np.all(np.isnan(flow_rhs(bad).values))


@pytest.mark.parametrize("make", [sector, sphere, lattice])
@pytest.mark.parametrize("level", [400.0, -400.0])
def test_public_entry_points_signal_overflow_without_warnings(make, level):
    # e^{4 lambda}, e^{5 lambda} overflow at +400 and e^{-2 lambda},
    # e^{-3 lambda} at -400: each entry point returns the non-finite
    # signal and warns of nothing
    geom = make()
    lam = ScalarField(geom, level + random_data(geom, 41).values)
    phi = random_data(geom, 42)
    dt = auto_dt(geom)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for functional in (energy, volume, bondi):
            functional(lam)
        webster_curvature(lam)
        flow_rhs(lam)
        gradient_check(lam, phi)
        state = make_state(lam, 0.0, 0, dt, DEFAULT_LEDGER)
        assert state.diagnostics.overflow_flag
        step_explicit(state, dt, DEFAULT_LEDGER)
        step_imex(state, 10.0 * dt, DEFAULT_LEDGER)


# ---------------------------------------------------------------------------
# step control


def test_auto_dt_matches_the_symbol_formula():
    for make in (sector, sphere, lattice):
        geom = make()
        sigma = stability_symbol_max(geom)
        damping = C_STAB * sigma**2 + (
            YAMABE_COEFFICIENT
            * 4.0
            * abs(geom.background_curvature)
            * sigma
        )
        assert auto_dt(geom) == pytest.approx(0.2 / damping, rel=1e-12)
        assert auto_dt(geom) > 0.0


def test_explicit_step_advances_bookkeeping():
    geom = sector()
    state = make_state(random_data(geom, 41), 0.0, 0, 1e-9, DEFAULT_LEDGER)
    nxt = step_explicit(state, 1e-9, DEFAULT_LEDGER)
    assert nxt.step_index == 1
    assert nxt.time == pytest.approx(1e-9)
    assert nxt.lam.is_finite()
    assert nxt.diagnostics.energy <= state.diagnostics.energy


def test_explicit_step_is_deterministic():
    geom = sector()
    a = step_explicit(make_state(random_data(geom, 42), 0.0, 0, 1e-9, DEFAULT_LEDGER),
                      1e-9, DEFAULT_LEDGER)
    b = step_explicit(make_state(random_data(geom, 42), 0.0, 0, 1e-9, DEFAULT_LEDGER),
                      1e-9, DEFAULT_LEDGER)
    np.testing.assert_array_equal(a.lam.values, b.lam.values)


# The three kinds, the lattice with a non-trivial x-wrap twist (8 of 16
# tau-cells) and twisted vertical modes in its data.
FSAL_CASES = [
    (lambda: sector(16), {}),
    (lambda: sphere(64), {"amplitude": 0.05, "cutoff": 16}),
    (lambda: lattice(), {"cutoff_t": 2}),
]


def fsal_case(make, data):
    geom = make()
    if geom.t_wrap_shift:
        assert geom.t_wrap_shift % geom.resolution[2] != 0
    return geom, random_data(geom, 3, **data)


def assert_same_diagnostics(a, b):
    for f in dataclasses.fields(a):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


def reference_diagnostics(lam, time):
    """The Diagnostics record computed from the public functionals and a
    fresh right-hand side, independently of ``make_state``."""
    geom = lam.geometry
    rhs = _rhs_values(geom, lam.values, DEFAULT_LEDGER)[0]
    w = webster_curvature(lam).values
    abs_lam = np.abs(lam.values)
    argmax = int(np.argmax(abs_lam))
    return flow.Diagnostics(
        time=time, volume=volume(lam), energy=energy(lam), bondi=bondi(lam),
        w_min=float(w.min()), w_max=float(w.max()),
        dissipation=DEFAULT_LEDGER.flow_sign * _weighted_sum(
            geom, rhs * rhs * np.exp(4.0 * lam.values)),
        overflow_flag=False, lam_max=float(abs_lam.flat[argmax]),
        lam_argmax=argmax)


@pytest.mark.parametrize("make, data", FSAL_CASES, ids=["sector", "sphere", "lattice"])
def test_fsal_step_matches_a_naive_rk4_bitwise(make, data):
    geom, lam0 = fsal_case(make, data)
    dt = auto_dt(geom)

    def f(v):
        return _rhs_values(geom, v, DEFAULT_LEDGER)[0]

    state = make_state(lam0, 0.0, 0, dt, DEFAULT_LEDGER)
    y, t = lam0.values, 0.0
    for _ in range(24):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + dt
        state = step_explicit(state, dt, DEFAULT_LEDGER)
        assert np.array_equal(state.lam.values, y)
        assert np.array_equal(state.rhs, f(y))
        assert_same_diagnostics(state.diagnostics,
                                reference_diagnostics(ScalarField(geom, y), t))


@pytest.mark.parametrize("make, data", FSAL_CASES, ids=["sector", "sphere", "lattice"])
def test_imex_step_is_the_same_with_a_fresh_rhs(make, data):
    geom, lam0 = fsal_case(make, data)
    dt = 10.0 * auto_dt(geom)
    state = make_state(lam0, 0.0, 0, dt, DEFAULT_LEDGER)
    for _ in range(5):
        fresh = dataclasses.replace(
            state, rhs=_rhs_values(geom, state.lam.values, DEFAULT_LEDGER)[0])
        a = step_imex(state, dt, DEFAULT_LEDGER)
        b = step_imex(fresh, dt, DEFAULT_LEDGER)
        assert np.array_equal(a.lam.values, b.lam.values)
        assert np.array_equal(a.rhs, b.rhs)
        assert_same_diagnostics(a.diagnostics, b.diagnostics)
        state = a


@pytest.mark.parametrize("integrator, per_step", [("explicit", 4), ("imex", 1)])
def test_right_hand_side_and_curvature_evaluations_per_step(
    monkeypatch, integrator, per_step
):
    counts = dict.fromkeys(("_rhs_values", "_webster_core"), 0)
    for name in counts:
        def counted(*args, _fn=getattr(flow, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(flow, name, counted)
    geom = sector()
    lam0 = random_data(geom, 58)
    dt = auto_dt(geom) * (1.0 if integrator == "explicit" else 10.0)
    for steps in (1, 3):
        counts.update(dict.fromkeys(counts, 0))
        traj = run(geom, lam0, integrator=integrator, dt=dt, max_time=1.0,
                   max_steps=steps)
        assert len(traj.diagnostics) - 1 == steps
        # the initial state's one of each, then per_step of each per step
        assert counts == dict.fromkeys(counts, 1 + per_step * steps)


@pytest.mark.parametrize(
    "make, amplitude, cutoff",
    [(lambda: sector(32), 0.1, 3), (lambda: sphere(64), 0.05, 16)],
    ids=["sector", "sphere"],
)
def test_imex_is_stable_and_monotone_at_ten_times_the_explicit_edge(
    make, amplitude, cutoff
):
    geom = make()
    dt = 10.0 * auto_dt(geom)
    lam0 = initial_data(
        geom,
        {"kind": "random", "seed": 3, "amplitude": amplitude, "cutoff": cutoff},
    )
    traj = run(geom, lam0, integrator="imex", dt=dt, max_time=1.0, max_steps=100)
    es = traj.energies
    assert traj.outcome == "max_time"
    assert all(np.isfinite(e) for e in es)
    assert all(es[k + 1] <= es[k] * (1.0 + 1e-10) for k in range(len(es) - 1))


@pytest.mark.parametrize(
    "make, amplitude, cutoff",
    [(lambda: sector(32), 0.1, 3), (lambda: sphere(64), 0.05, 16)],
    ids=["sector", "sphere"],
)
def test_imex_restores_volume_and_descends_at_a_thousand_times_the_edge(
    make, amplitude, cutoff
):
    geom = make()
    dt = 1e3 * auto_dt(geom)
    lam0 = initial_data(
        geom,
        {"kind": "random", "seed": 3, "amplitude": amplitude, "cutoff": cutoff},
    )
    traj = run(geom, lam0, integrator="imex", dt=dt, max_time=40.5 * dt,
               max_steps=40)
    assert traj.outcome == "max_time"
    assert len(traj.diagnostics) - 1 == 40
    vols, es = traj.volumes, traj.energies
    assert max(abs(v - vols[0]) for v in vols) <= 1e-13 * vols[0]
    assert all(es[k + 1] <= es[k] * (1.0 + 1e-10) for k in range(len(es) - 1))


def test_solver_failure_ends_the_run_with_the_accepted_steps():
    # the lattice keeps plain CG, which one iteration cannot converge
    geom = lattice()
    starved = DEFAULT_LEDGER.replace(cg_max_iter=1)
    traj = run(geom, random_data(geom, 3), integrator="imex", dt=1e-7,
               max_time=1.0, max_steps=3, ledger=starved)
    assert traj.outcome == "solver_failure"
    assert "no convergence" in traj.solver_error
    assert len(traj.diagnostics) == 1
    assert traj.final_state.step_index == 0


def test_detect_blowup_on_threshold_crossing():
    geom = sector(8)
    tall = constant(geom, BLOWUP_THRESHOLD + 1.0)
    state = make_state(tall, 0.0, 0, 1e-9, DEFAULT_LEDGER)
    assert detect_blowup(state)
    ok = make_state(constant(geom, 0.1), 0.0, 0, 1e-9, DEFAULT_LEDGER)
    assert not detect_blowup(ok)


# ---------------------------------------------------------------------------
# the run loop and its outcome taxonomy


def test_zero_data_plateaus_at_the_window():
    geom = sector(32)
    lam0 = constant(geom, 0.0)
    traj = run(geom, lam0, dt=1e-9, max_time=1.0, max_steps=500)
    assert traj.outcome == "plateau"
    assert len(traj.diagnostics) - 1 == PLATEAU_WINDOW
    assert all(e == 0.0 for e in traj.energies)


def test_smooth_data_runs_to_the_budget_without_contamination():
    geom = sector(32)
    for seed in (3, 4, 5):
        lam0 = initial_data(
            geom, {"kind": "random", "seed": seed, "amplitude": 0.1, "cutoff": 3}
        )
        traj = run(geom, lam0, dt=1.8e-9, max_time=1.0, max_steps=60)
        assert traj.outcome == "max_time"
        assert all(np.isfinite(d.energy) and np.isfinite(d.volume)
                   for d in traj.diagnostics)


def test_ascending_probe_blows_up_with_a_localized_trace():
    geom = build_geometry(
        {"kind": "HeisenbergSector2D", "resolution": [32, 32], "periods": [1.0, 1.0]}
    )
    probe = DEFAULT_LEDGER.replace(flow_sign=1.0)
    lam0 = initial_data(
        geom, {"kind": "random", "seed": 7, "amplitude": 0.15, "cutoff": 2}
    )
    traj = run(geom, lam0, dt=5e-10, max_time=1.0, max_steps=20000, ledger=probe)
    assert traj.outcome == "blowup"
    assert len(traj.diagnostics) - 1 < 20000
    finite = [d for d in traj.diagnostics if np.isfinite(d.lam_max)]
    peaks = [d.lam_max for d in finite[-5:]]
    assert all(b > a for a, b in zip(peaks, peaks[1:]))
    cells = {d.lam_argmax for d in finite[-5:]}
    assert len(cells) <= 3


def test_converged_outcome_after_a_real_drop():
    geom = build_geometry(
        {"kind": "HeisenbergSector2D", "resolution": [32, 32], "periods": [1.0, 1.0]}
    )
    lam0 = initial_data(
        geom, {"kind": "random", "seed": 5, "amplitude": 0.1, "cutoff": 3}
    )
    traj = run(
        geom,
        lam0,
        integrator="imex",
        dt=10.0 * auto_dt(geom),
        max_time=1.0,
        max_steps=3000,
        plateau_tol=5e-4,
        plateau_window=10,
    )
    assert traj.outcome == "converged"
    assert traj.energies[-1] < 0.99 * traj.energies[0]


def test_run_records_one_diagnostics_row_per_step():
    geom = sector()
    traj = run(geom, random_data(geom, 51), dt=1e-9, max_time=1.0, max_steps=7)
    assert len(traj.diagnostics) == 8
    assert all(math.isfinite(d.lam_max) and 0 <= d.lam_argmax < 16 * 16
               for d in traj.diagnostics)
    assert traj.diagnostics[0].time == 0.0
    assert traj.diagnostics[-1].time == pytest.approx(7e-9)
    assert math.isfinite(traj.bondi_sup_rate)


def test_snapshot_cadence_and_final_state():
    geom = sector()
    traj = run(
        geom, random_data(geom, 52), dt=1e-9, max_time=1.0, max_steps=10,
        snapshot_every=4,
    )
    assert [s for s, _ in traj.snapshots] == [0, 4, 8, 10]
    np.testing.assert_array_equal(
        traj.snapshots[-1][1].values, traj.final_state.lam.values
    )
    none = run(geom, random_data(geom, 52), dt=1e-9, max_time=1.0, max_steps=3)
    assert none.snapshots == []


def test_run_honors_the_time_budget():
    geom = sector()
    traj = run(geom, random_data(geom, 53), dt=1e-3, max_time=5e-3)
    assert traj.outcome in ("max_time", "blowup")
    assert traj.diagnostics[-1].time <= 5e-3 * (1.0 + 1e-9)


def test_run_validates_inputs():
    geom = sector()
    lam = random_data(geom, 54)
    with pytest.raises(ValueError):
        run(geom, lam, integrator="leapfrog")
    with pytest.raises(ValueError):
        run(geom, lam, dt=-1e-9)
    other = sector()
    with pytest.raises(ValueError):
        run(other, lam)


def test_dt_auto_resolves_to_the_formula_value():
    geom = sector()
    traj = run(geom, random_data(geom, 55), dt="auto", max_time=1.0, max_steps=2)
    assert traj.dt == pytest.approx(auto_dt(geom))


# ---------------------------------------------------------------------------
# dimensional reduction


def test_t_independent_lattice_run_matches_the_sector_run():
    geom3 = lattice()
    geom2 = sector(8)
    lam2 = random_data(geom2, 9)
    lam3 = ScalarField(
        geom3, np.repeat(lam2.values[:, :, None], geom3.resolution[2], axis=2)
    )
    dt = 1e-9
    ledger = DEFAULT_LEDGER
    s2 = make_state(lam2, 0.0, 0, dt, ledger)
    s3 = make_state(lam3, 0.0, 0, dt, ledger)
    for _ in range(10):
        s2 = step_explicit(s2, dt, ledger)
        s3 = step_explicit(s3, dt, ledger)
        spread = float(np.max(s3.lam.values.max(axis=2) - s3.lam.values.min(axis=2)))
        mismatch = float(np.max(np.abs(s3.lam.values[:, :, 0] - s2.lam.values)))
        assert spread <= 1e-13
        assert mismatch <= 1e-12


def test_diagnostics_record_is_serializable():
    geom = sector()
    state = make_state(random_data(geom, 56), 0.0, 0, 1e-9, DEFAULT_LEDGER)
    record = dataclasses.asdict(state.diagnostics)
    assert set(record) == {
        "time", "volume", "energy", "bondi", "w_min", "w_max", "dissipation",
        "overflow_flag", "lam_max", "lam_argmax",
    }
    assert isinstance(record["volume"], float)
    assert record["w_min"] <= record["w_max"]


def test_dissipation_is_nonpositive_for_the_descent_sign():
    geom = sector()
    state = make_state(random_data(geom, 57, amplitude=0.2), 0.0, 0, 1e-9,
                       DEFAULT_LEDGER)
    assert state.diagnostics.dissipation <= 0.0
