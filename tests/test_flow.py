"""Time integration: functionals, descent identity, steppers, outcomes."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import crflow.flow as flow
from crflow.conventions import (
    BLOWUP_THRESHOLD,
    C_STAB,
    DESCENT,
    PLATEAU_WINDOW,
    SPHERE_KAPPA,
    YAMABE_COEFFICIENT,
)
from crflow.flow import (
    _rhs_values,
    auto_dt,
    bondi,
    detect_blowup,
    energy,
    flow_rhs,
    gradient_check,
    make_state,
    run,
    step_explicit,
    step_imex,
    volume,
)
from crflow.manifold import ScalarField, _weighted_sum, build_geometry, initial_data, integrate
from crflow.operators import (
    Workspace,
    _div_form_values,
    shifted_bilap_inverse,
    stability_symbol_max,
    webster_curvature,
)

from tests.test_operators import STENCIL_GEOMETRIES, three_point_div_form


def sector(n=16):
    return build_geometry(
        {"kind": "HeisenbergSector2D", "resolution": [n, n], "periods": [1.0, 1.0]}
    )


def sphere(n=32):
    return build_geometry({"kind": "SphereReduced1D", "resolution": [n]})


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
        4.0 * math.exp(4.0 * c), rel=1e-14, abs=0
    )
    # sphere: total measure kappa
    kappa = SPHERE_KAPPA
    assert volume(constant(sphere(), c)) == pytest.approx(
        kappa * math.exp(4.0 * c), rel=1e-14, abs=0
    )


def test_bondi_closed_form_on_constants():
    c = -0.2
    assert bondi(constant(sector(), c)) == pytest.approx(
        4.0 * math.exp(5.0 * c), rel=1e-14, abs=0
    )


def test_sphere_constant_energy_matches_background():
    geom = sphere()
    kappa = SPHERE_KAPPA
    w0 = geom.background_curvature
    for c in (0.0, 0.3):
        assert energy(constant(geom, c)) == pytest.approx(kappa * w0**2, rel=1e-13)


# ---------------------------------------------------------------------------
# descent direction


def test_rhs_has_exact_weighted_mean_zero():
    for make in (sector, sphere, lattice):
        geom = make()
        lam = random_data(geom, 22, amplitude=0.15, cutoff=2)
        rhs = flow_rhs(lam).values
        w = np.exp(4.0 * lam.values)
        total = float(integrate(ScalarField(geom, rhs * w)))
        norm = float(integrate(ScalarField(geom, np.abs(rhs) * w)))
        assert abs(total) <= 1e-13 * norm


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
        state = make_state(lam, 0.0, 0)
        assert state.diagnostics.overflow_flag
        step_explicit(state, dt)
        step_imex(state, 10.0 * dt)


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
        assert auto_dt(geom) == 0.2 / damping
        assert auto_dt(geom) > 0.0


def test_explicit_step_advances_bookkeeping():
    geom = sector()
    state = make_state(random_data(geom, 41), 0.0, 0)
    nxt = step_explicit(state, 1e-9)
    assert nxt.step_index == 1
    assert nxt.time == 1e-9
    assert nxt.lam.is_finite()
    assert nxt.diagnostics.energy <= state.diagnostics.energy


@pytest.mark.parametrize("stepper", [step_explicit, step_imex], ids=["rk4", "imex"])
@pytest.mark.parametrize("dt", [0.0, -1e-9, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
def test_steppers_refuse_a_step_that_is_not_positive_and_finite(stepper, dt):
    # resolve_dt's rule, 0 < dt < inf: a NaN passes a test of dt <= 0,
    # and an infinite step gives a state at time inf
    state = make_state(random_data(sector(), 3), 0.0, 0)
    with pytest.raises(ValueError, match="positive"):
        stepper(state, dt)


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


@pytest.mark.parametrize("make, data", FSAL_CASES, ids=["sector", "sphere", "lattice"])
def test_fsal_step_matches_a_naive_rk4_bitwise(make, data):
    geom, lam0 = fsal_case(make, data)
    dt = auto_dt(geom)

    def f(v):
        return _rhs_values(geom, v)[0]

    state = make_state(lam0, 0.0, 0)
    y, t = lam0.values, 0.0
    for _ in range(24):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + dt
        state = step_explicit(state, dt)
        assert np.array_equal(state.lam.values, y)
        assert np.array_equal(state.rhs, f(y))
        assert_same_diagnostics(state.diagnostics, expression_state(geom, y, t)[2])


@pytest.mark.parametrize("make, data", FSAL_CASES, ids=["sector", "sphere", "lattice"])
def test_imex_step_is_the_same_with_a_fresh_rhs(make, data):
    geom, lam0 = fsal_case(make, data)
    dt = 10.0 * auto_dt(geom)
    state = make_state(lam0, 0.0, 0)
    for _ in range(5):
        fresh = dataclasses.replace(
            state, rhs=_rhs_values(geom, state.lam.values)[0])
        a = step_imex(state, dt)
        b = step_imex(fresh, dt)
        assert np.array_equal(a.lam.values, b.lam.values)
        assert np.array_equal(a.rhs, b.rhs)
        assert_same_diagnostics(a.diagnostics, b.diagnostics)
        state = a


# ---------------------------------------------------------------------------
# in-place kernels against the expression form


def expression_webster_core(geom, lam_values):
    u = np.exp(lam_values)
    m2 = np.exp(-2.0 * lam_values)
    em3 = np.exp(-3.0 * lam_values)
    w = em3 * (YAMABE_COEFFICIENT * three_point_div_form(geom, u)) \
        + geom.background_curvature * m2
    return u, m2, em3, w


def expression_rhs_values(geom, values):
    u, m2, em3, w = expression_webster_core(geom, values)
    if not np.isfinite(values).all():
        return np.full_like(values, np.nan), w
    uw = u * w
    cov = em3 * (YAMABE_COEFFICIENT * three_point_div_form(geom, uw)) \
        + (geom.background_curvature * m2) * w
    return DESCENT * 2.0 * (cov - w * w), w


def expression_state(geom, values, time):
    """(rhs, w, Diagnostics) of ``values``, as make_state assembled them
    with one whole-array temporary per operation."""
    rhs, w = expression_rhs_values(geom, values)
    m4 = np.exp(4.0 * values)
    vol = _weighted_sum(geom, m4)
    ene = _weighted_sum(geom, w * w * m4)
    bon = _weighted_sum(geom, np.exp(5.0 * values))
    dis = DESCENT * _weighted_sum(geom, rhs * rhs * m4)
    finite_w = bool(np.isfinite(w).all())
    w_min = float(w.min()) if finite_w else float("nan")
    w_max = float(w.max()) if finite_w else float("nan")
    abs_lam = np.abs(values)
    argmax = int(np.argmax(abs_lam))
    if np.isnan(abs_lam.flat[argmax]):
        argmax = int(np.argmax(np.where(np.isnan(abs_lam), np.inf, abs_lam)))
    overflow = not (finite_w and np.isfinite(vol) and np.isfinite(ene)
                    and np.isfinite(bon) and np.isfinite(rhs).all())
    diag = flow.Diagnostics(time=time, volume=vol, energy=ene, bondi=bon,
                            w_min=w_min, w_max=w_max, dissipation=dis,
                            overflow_flag=overflow,
                            lam_max=float(abs_lam.flat[argmax]), lam_argmax=argmax)
    return rhs, w, diag


def expression_rk4(geom, y, dt):
    def f(v):
        return expression_rhs_values(geom, v)[0]

    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def expression_imex(geom, y, rhs, v_old, dt):
    b = dt * rhs
    if not np.isfinite(b).all():
        return np.full_like(y, np.nan)
    inc = shifted_bilap_inverse(geom, dt * C_STAB)(b)
    if not inc.any():
        return y.copy()
    sol = y + inc
    v_new = _weighted_sum(geom, np.exp(4.0 * sol))
    if 0.0 < v_old < math.inf and 0.0 < v_new < math.inf:
        sol = sol + 0.25 * math.log(v_old / v_new)
    return sol


def pinned_case(name):
    geom = build_geometry(STENCIL_GEOMETRIES[name])
    extra = {"cutoff_t": 2} if geom.kind == "HeisenbergLattice3D" else {}
    return geom, random_data(geom, 3, **extra)


def assert_same_bits(a, b):
    """Equal values, NaN matching any NaN (a commuted operation may keep
    the other operand's NaN), and equal signs on zeros."""
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a[a == 0]), np.signbit(b[b == 0]))


def assert_pinned(state, y, time):
    """``state`` and a fresh ``_rhs_values`` at ``y`` hold the expression
    form's bits; returns the expression form's (rhs, Diagnostics)."""
    geom = state.lam.geometry
    with np.errstate(over="ignore", invalid="ignore"):
        ref_rhs, ref_w, ref_diag = expression_state(geom, y, time)
        rhs, w = _rhs_values(geom, y)
    assert_same_bits(state.lam.values, y)
    for got in (rhs, state.rhs):
        assert_same_bits(got, ref_rhs)
    assert_same_bits(w, ref_w)
    for f in dataclasses.fields(ref_diag):   # repr tells -0.0 from 0.0
        assert repr(getattr(state.diagnostics, f.name)) \
            == repr(getattr(ref_diag, f.name)), f.name
    return ref_rhs, ref_diag


@pytest.mark.parametrize("name", list(STENCIL_GEOMETRIES))
def test_steps_keep_the_expression_form_bits(name):
    geom, lam0 = pinned_case(name)
    dt = auto_dt(geom)
    for stepper, steps, h in ((step_explicit, 20, dt), (step_imex, 5, 10.0 * dt)):
        state = make_state(lam0, 0.0, 0)
        y, t = lam0.values, 0.0
        rhs, diag = assert_pinned(state, y, t)
        for _ in range(steps):
            with np.errstate(over="ignore", invalid="ignore"):
                if stepper is step_explicit:
                    y = expression_rk4(geom, y, h)
                else:
                    y = expression_imex(geom, y, rhs, diag.volume, h)
            t = t + h
            state = stepper(state, h)
            rhs, diag = assert_pinned(state, y, t)
        assert not state.diagnostics.overflow_flag


@pytest.mark.parametrize("name", list(STENCIL_GEOMETRIES))
def test_kernels_keep_the_expression_form_bits_past_overflow(name):
    # +-400 overflows e^{4 lambda}, e^{5 lambda} or e^{-2 lambda},
    # e^{-3 lambda}; a single NaN cell takes the non-finite branches.
    # +150 overflows only bondi's e^{5 lambda}, so make_state scans w and
    # finds it finite; two cells at 1e308 are finite but overflow the sum
    # _rhs_values tests before its cell scan.  The flat kinds skip
    # e^{-2 lambda} only while every lambda is above -354: -300 overflows
    # e^{-3 lambda} but not e^{-2 lambda}, so the skip runs with w = +-inf,
    # and two states put their minimum one ulp either side of -354
    geom, lam0 = pinned_case(name)
    dt = auto_dt(geom)
    one_nan = lam0.values.copy()
    one_nan.flat[one_nan.size // 3] = np.nan
    two_huge = lam0.values.copy()
    two_huge.flat[[1, two_huge.size // 2]] = 1e308
    bondi_only = lam0.values + 150.0
    near_bound = []
    for toward in (0.0, -np.inf):
        near = lam0.values - 353.0
        near.flat[near.size // 2] = np.nextafter(-354.0, toward)
        near_bound.append(near)
    for values in (lam0.values + 400.0, lam0.values - 400.0, one_nan,
                   bondi_only, two_huge, lam0.values - 300.0, *near_bound):
        lam = ScalarField(geom, values)
        state = make_state(lam, 0.0, 0)
        rhs, diag = assert_pinned(state, values, 0.0)
        for functional in (energy, volume, bondi):
            assert repr(functional(lam)) == repr(getattr(diag, functional.__name__))
        assert_same_bits(flow_rhs(lam).values, rhs)
        assert diag.overflow_flag
        if values is two_huge:
            assert np.isfinite(rhs).any()
        elif values is bondi_only:
            assert math.isinf(diag.bondi)
            assert math.isfinite(diag.energy) and math.isfinite(diag.w_min)
        with np.errstate(over="ignore", invalid="ignore"):
            y_rk4 = expression_rk4(geom, values, dt)
            y_imex = expression_imex(geom, values, rhs, diag.volume, 10.0 * dt)
        assert_pinned(step_explicit(state, dt), y_rk4, dt)
        assert_pinned(step_imex(state, 10.0 * dt), y_imex, 10.0 * dt)


def assert_untouched(arrays, before):
    for a, b in zip(arrays, before):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", list(STENCIL_GEOMETRIES))
def test_kernels_and_steps_never_write_their_inputs(name):
    geom, lam = pinned_case(name)
    v = lam.values
    g = np.exp(2.0 * v)
    ints = np.arange(v.size).reshape(v.shape) % 5
    for x in (v, ints):
        for weight in (None, g, ints + 1):
            inputs = [a for a in (x, weight) if a is not None]
            before = [a.copy() for a in inputs]
            out = _div_form_values(geom, x, weight)
            assert_untouched(inputs, before)
            assert out.dtype == np.float64
            assert not any(np.shares_memory(out, a) for a in inputs)
            if x is ints:   # small integers: the float input's exact values
                wf = None if weight is None else weight.astype(float)
                assert np.array_equal(out, _div_form_values(geom, ints.astype(float), wf))

    before = v.copy()
    rhs, w = _rhs_values(geom, v)
    assert_untouched([v], [before])
    assert not (np.shares_memory(rhs, v) or np.shares_memory(w, v)
                or np.shares_memory(rhs, w))

    state = make_state(lam, 0.0, 0)
    assert_untouched([v], [before])
    assert state.lam is lam and not np.shares_memory(state.rhs, v)
    dt = auto_dt(geom)
    for stepper, h in ((step_explicit, dt), (step_imex, 10.0 * dt)):
        old = [state.lam.values, state.rhs]
        before = [a.copy() for a in old]
        new = stepper(state, h)
        assert_untouched(old, before)
        fresh = [new.lam.values, new.rhs]
        assert not np.shares_memory(*fresh)
        assert not any(np.shares_memory(a, b) for a in fresh for b in old)


@pytest.mark.parametrize("stepper, dt_factor", [(step_explicit, 1.0), (step_imex, 10.0)],
                         ids=["rk4", "imex"])
@pytest.mark.parametrize("make, data", FSAL_CASES, ids=["sector", "sphere", "lattice"])
def test_a_kept_state_survives_later_steps_on_one_workspace(make, data, stepper,
                                                            dt_factor):
    # a run steps on one workspace: no workspace array may escape into a
    # state, so a state kept while two more steps reuse it keeps its
    # bytes, and the steps match steps that build their own workspace
    geom, lam = fsal_case(make, data)
    dt = dt_factor * auto_dt(geom)
    work = Workspace(geom)
    before = lam.values.copy()
    state = make_state(lam, 0.0, 0, work=work)
    assert_untouched([lam.values], [before])
    kept = stepper(state, dt, work=work)
    kept_before = [kept.lam.values.copy(), kept.rhs.copy()]
    later = alone = kept
    for _ in range(2):
        later = stepper(later, dt, work=work)
        alone = stepper(alone, dt)
        assert later.lam.values.tobytes() == alone.lam.values.tobytes()
        assert later.rhs.tobytes() == alone.rhs.tobytes()
        assert later.diagnostics == alone.diagnostics
    assert_untouched([kept.lam.values, kept.rhs], kept_before)
    # the sphere slot holds views of r and the cached face weights
    scratch = [getattr(work, name) for name in Workspace.__slots__ if name != "sphere"]
    for st in (state, kept, later):
        for kept_array in (st.lam.values, st.rhs):
            assert not any(np.shares_memory(kept_array, a) for a in scratch)


@pytest.mark.parametrize("config", [
    {"kind": "HeisenbergSector2D", "resolution": [128, 128]},
    {"kind": "HeisenbergLattice3D", "resolution": [16, 16, 32], "periods": [1, 1, 0.5]},
    {"kind": "SphereReduced1D", "resolution": [4096]},
], ids=["sector128", "lattice16x16x32", "sphere4096"])
def test_an_rk4_step_on_a_workspace_allocates_only_the_new_state(config):
    # numpy reports its data buffers to tracemalloc.  Past a warm-up
    # step, a step's peak is the new state's lam and rhs, with one more
    # grid array of room for the small objects
    geom = build_geometry(config)
    lam = random_data(geom, 3)
    dt = auto_dt(geom)
    work = Workspace(geom)
    state = step_explicit(make_state(lam, 0.0, 0, work=work), dt, work=work)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        state = step_explicit(state, dt, work=work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.step_index == 2
    assert peak - start <= 3 * lam.values.nbytes


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
        traj = run(lam0, integrator=integrator, dt=dt, max_time=1.0,
                   max_steps=steps)
        assert len(traj.diagnostics) - 1 == steps
        # the initial state's one of each, then per_step of each per step
        assert counts == dict.fromkeys(counts, 1 + per_step * steps)


def test_run_calls_the_module_steppers_once_per_step(monkeypatch):
    # run looks step_explicit and step_imex up in the module at call
    # time, so a wrapper put there, such as perfbench's flow.step span,
    # sees every step
    counts = dict.fromkeys(("step_explicit", "step_imex"), 0)
    for name in counts:
        def counted(*args, _fn=getattr(flow, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(flow, name, counted)
    geom = sector()
    lam0 = random_data(geom, 3)
    for integrator, name in (("explicit", "step_explicit"), ("imex", "step_imex")):
        counts.update(dict.fromkeys(counts, 0))
        traj = run(lam0, integrator=integrator, dt=auto_dt(geom), max_steps=3)
        assert traj.final_state.step_index == 3
        assert counts == {n: 3 if n == name else 0 for n in counts}


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
    traj = run(lam0, integrator="imex", dt=dt, max_time=1.0, max_steps=100)
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
    traj = run(lam0, integrator="imex", dt=dt, max_time=40.5 * dt,
               max_steps=40)
    assert traj.outcome == "max_time"
    assert len(traj.diagnostics) - 1 == 40
    vols, es = traj.volumes, traj.energies
    assert max(abs(v - vols[0]) for v in vols) <= 1e-13 * vols[0]
    assert all(es[k + 1] <= es[k] * (1.0 + 1e-10) for k in range(len(es) - 1))


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("make", [
    lambda: build_geometry({"kind": "HeisenbergLattice3D", "resolution": [16, 16, 32],
                            "periods": [1.0, 1.0, 0.5]}),
    lattice,
], ids=["lattice16x16x32", "lattice8x8x16"])
def test_lattice_imex_descends_and_keeps_volume_at_ten_times_the_edge(make, seed):
    geom = make()
    dt = 10.0 * auto_dt(geom)
    lam0 = random_data(geom, seed, cutoff=3, cutoff_t=2)
    traj = run(lam0, integrator="imex", dt=dt, max_time=20.5 * dt,
               max_steps=20)
    assert traj.outcome == "max_time"
    assert len(traj.diagnostics) - 1 == 20
    vols, es = traj.volumes, traj.energies
    assert max(abs(v - vols[0]) for v in vols) <= 1e-13 * vols[0]
    assert all(es[k + 1] <= es[k] * (1.0 + 1e-10) for k in range(len(es) - 1))


def test_imex_descends_at_a_hundred_million_times_the_edge():
    # the exact inverse's rounding does not grow with the step: at 1e8
    # times auto, applying the shifted operator to the solution misses b
    # by more than 1e-10 ||b||, yet the run descends to its step budget
    geom = sphere(64)
    dt = 0.0023300127110531064
    assert dt == 1e8 * auto_dt(geom)
    lam0 = initial_data(geom, {"kind": "random", "seed": 3, "amplitude": 0.01})
    traj = run(lam0, integrator="imex", dt=dt, max_time=1e300, max_steps=5)
    assert traj.outcome == "max_time"
    assert len(traj.diagnostics) - 1 == 5
    es = traj.energies
    assert all(es[k + 1] <= es[k] for k in range(len(es) - 1))


def test_detect_blowup_on_threshold_crossing():
    geom = sector(8)
    tall = constant(geom, BLOWUP_THRESHOLD + 1.0)
    state = make_state(tall, 0.0, 0)
    assert detect_blowup(state)
    ok = make_state(constant(geom, 0.1), 0.0, 0)
    assert not detect_blowup(ok)


# ---------------------------------------------------------------------------
# the run loop and its outcome taxonomy


def test_zero_data_plateaus_at_the_window():
    geom = sector(32)
    lam0 = constant(geom, 0.0)
    traj = run(lam0, dt=1e-9, max_time=1.0, max_steps=500)
    assert traj.outcome == "plateau"
    assert len(traj.diagnostics) - 1 == PLATEAU_WINDOW
    assert all(e == 0.0 for e in traj.energies)


@pytest.mark.parametrize("data, dt, max_steps, outcome, steps", [
    ({"kind": "random", "seed": 7, "amplitude": 0.15, "cutoff": 2}, 1e-7, 2, "blowup", 2),
    ({"kind": "constant", "value": 0.0}, 1e-9, PLATEAU_WINDOW, "plateau", PLATEAU_WINDOW),
    ({"kind": "constant", "value": 0.0}, 1e-9, PLATEAU_WINDOW - 1, "max_time",
     PLATEAU_WINDOW - 1),
], ids=["blowup-and-budget", "plateau-and-budget", "budget-first"])
def test_stop_order_when_two_stop_tests_hold(data, dt, max_steps, outcome, steps):
    # blow-up is tested before the plateau, and the plateau before the
    # step budget: RK4 at about 270 times auto overflows at step 2, and
    # zero data fill the plateau window at step 50
    geom = sector(32)
    traj = run(initial_data(geom, data), dt=dt, max_steps=max_steps)
    assert traj.outcome == outcome
    assert len(traj.diagnostics) - 1 == steps


def test_converged_outcome_after_a_real_drop():
    geom = sector(16)
    traj = run(random_data(geom, 3), integrator="imex", dt=1e4 * auto_dt(geom),
               max_steps=3000)
    assert traj.outcome == "converged"
    assert traj.energies[-1] < 0.99 * traj.energies[0]


def test_run_records_one_diagnostics_row_per_step():
    geom = sector()
    traj = run(random_data(geom, 51), dt=1e-9, max_time=1.0, max_steps=7)
    assert len(traj.diagnostics) == 8
    assert all(math.isfinite(d.lam_max) and 0 <= d.lam_argmax < 16 * 16
               for d in traj.diagnostics)
    assert traj.diagnostics[0].time == 0.0
    assert traj.diagnostics[-1].time == pytest.approx(7e-9, rel=1e-15, abs=0)
    assert math.isfinite(traj.bondi_sup_rate)


def test_snapshot_cadence_and_final_state():
    geom = sector()
    traj = run(random_data(geom, 52), dt=1e-9, max_time=1.0, max_steps=10,
               snapshot_every=4)
    assert [s for s, _ in traj.snapshots] == [0, 4, 8, 10]
    np.testing.assert_array_equal(
        traj.snapshots[-1][1].values, traj.final_state.lam.values
    )
    none = run(random_data(geom, 52), dt=1e-9, max_time=1.0, max_steps=3)
    assert none.snapshots == []


def test_run_honors_the_time_budget():
    geom = sector()
    traj = run(random_data(geom, 53), dt=1e-3, max_time=5e-3)
    assert traj.outcome in ("max_time", "blowup")
    assert traj.diagnostics[-1].time <= 5e-3 * (1.0 + 1e-9)


def test_run_validates_inputs():
    geom = sector()
    lam = random_data(geom, 54)
    for bad in ({"integrator": "leapfrog"}, {"dt": -1e-9}, {"dt": True},
                {"dt": "1e-9"}, {"max_time": math.nan}, {"max_steps": 2.5},
                {"snapshot_every": True}, {"max_time": 10**5000}, {"max_steps": -(10**5000)},
                {"integrator": "k" * 300}, {"dt": "k" * 300}):
        with pytest.raises(ValueError, match=next(iter(bad))) as exc:
            run(lam, **bad)
        # a huge integer is named by its size, a long string by its head
        # and length
        assert len(str(exc.value)) <= 200
    # an integer argument may be an integral float, as in a config file
    traj = run(lam, dt=1e-9, max_steps=2.0, snapshot_every=1.0)
    assert len(traj.diagnostics) == 3
    assert [s for s, _ in traj.snapshots] == [0, 1, 2]


def test_run_refuses_a_bad_flow_sign():
    with pytest.raises(TypeError, match="unexpected keyword argument 'flow_sign'"):
        run(random_data(sector(), 54), flow_sign=-1.0)


def test_dt_auto_resolves_to_the_formula_value():
    geom = sector()
    traj = run(random_data(geom, 55), dt="auto", max_time=1.0, max_steps=2)
    assert traj.dt == auto_dt(geom)


@pytest.mark.parametrize("dt", [True, "1e-9"], ids=["bool", "string"])
def test_resolve_dt_refuses_what_run_refuses(dt):
    # resolve_dt reads dt as run's argument check does, not by float()
    lam0 = random_data(sector(), 55)
    for call in (lambda: flow.resolve_dt(lam0.geometry, dt),
                 lambda: run(lam0, dt=dt, max_steps=1)):
        with pytest.raises(ValueError, match="dt must be a finite number"):
            call()


# ---------------------------------------------------------------------------
# the diagnostics record


def test_diagnostics_record_is_serializable():
    geom = sector()
    state = make_state(random_data(geom, 56), 0.0, 0)
    record = dataclasses.asdict(state.diagnostics)
    assert set(record) == {
        "time", "volume", "energy", "bondi", "w_min", "w_max", "dissipation",
        "overflow_flag", "lam_max", "lam_argmax",
    }
    assert isinstance(record["volume"], float)
    assert record["w_min"] <= record["w_max"]


def test_dissipation_is_nonpositive_for_the_descent_sign():
    geom = sector()
    state = make_state(random_data(geom, 57, amplitude=0.2), 0.0, 0)
    assert state.diagnostics.dissipation <= 0.0
