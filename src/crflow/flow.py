"""Curvature energy, volume and Bondi-type functionals, and the downward
gradient flow of the energy.

The energy of the rescaled structure theta = e^{2 lambda} theta-hat is

    E(lambda) = integrate( W(lambda)^2 * e^{4 lambda} ),

and the flow evolves lambda by (minus) its volume-weighted gradient.  The
right-hand side is assembled from the *exact discrete* first variation:
with u = e^lambda, L-hat = 4 * sublap + What, and W = u^{-3} L-hat(u),

    grad E = 2 * ( u^{-3} L-hat(u W) - W^2 ),

which in the continuum collapses to 8 * conformal-sublaplacian of W (the
8 being 2 * yamabe_coefficient; ``invariants.gradient_check`` verifies
rather than assumes it).  Two consequences hold to rounding, not merely to
discretization order, because L-hat is exactly self-adjoint:

* integrate(rhs * e^{4 lambda}) = 0  — the flow is exactly tangent to
  the constant-volume manifold, so volume drift is purely a time-
  stepping error of the integrator's order;
* the weighted pairing <-rhs, phi> reproduces the finite-difference
  derivative of E in any direction phi, which is the gradient check
  ``invariants.gradient_check(lam, phi)`` (descent sign, step h = 1e-5).

Blow-up handling: overflow of e^{k lambda} is a *signal*, not an error.
Functionals return non-finite values, the right-hand side propagates
NaNs, and the run loop classifies the state via detect_blowup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conventions import (BLOWUP_THRESHOLD, C_STAB, DESCENT, PLATEAU_TOL,
                          PLATEAU_WINDOW, YAMABE_COEFFICIENT, _shown)
from .manifold import ModelGeometry, ScalarField, _as_finite, _as_int, _weighted_sum
from .operators import (Workspace, _div_form_values, _webster_core, linear_solve,
                        shifted_bilap_inverse, stability_symbol_max)

__all__ = [
    "Diagnostics", "FlowState", "Trajectory", "energy", "volume", "bondi",
    "flow_rhs", "make_state", "step_explicit", "step_imex",
    "detect_blowup", "auto_dt", "INTEGRATORS", "run",
]

INTEGRATORS = ("explicit", "imex")   # stepped by step_explicit, step_imex


@dataclass(frozen=True)
class Diagnostics:
    """Per-step scalar monitors of a flow state at flow time ``time``: the
    one schema of a run's record.  ``diagnostics.csv`` is ``step`` and
    then these fields in this order, and ``meta.json``'s ``final`` is the
    last row.

    ``w_min`` and ``w_max`` are NaN iff the curvature has a non-finite
    cell.  ``lam_max`` is max |lambda| and ``lam_argmax`` its flat
    C-order cell index; non-finite cells rank highest, so the record
    still localizes an incipient singularity.  Overflow needs no flag of
    its own: it leaves a non-finite value in the row.
    """

    time: float
    volume: float
    energy: float
    bondi: float
    w_min: float
    w_max: float
    dissipation: float
    lam_max: float
    lam_argmax: int


@dataclass
class FlowState:
    """The conformal exponent and its bookkeeping at one time level.

    ``rhs`` is the flow right-hand side at ``lam``, computed once with
    the diagnostics: the next explicit step reuses it as its first stage
    (first same as last), the IMEX step as its explicit term.
    """

    lam: ScalarField
    rhs: np.ndarray
    step_index: int
    diagnostics: Diagnostics

    @property
    def time(self) -> float:
        return self.diagnostics.time


@dataclass
class Trajectory:
    """Result of a run: outcome label plus the per-step record."""

    outcome: str
    dt: float
    diagnostics: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    final_state: FlowState | None = None

    @property
    def energies(self):
        return [d.energy for d in self.diagnostics]

    @property
    def volumes(self):
        return [d.volume for d in self.diagnostics]

    @property
    def bondi_sup_rate(self) -> float:
        """Supremum of the per-step rate (bondi[k] - bondi[k-1]) / dt:
        +inf once any rate is non-finite, -inf before the first step."""
        b = [d.bondi for d in self.diagnostics]
        rates = [(b1 - b0) / self.dt for b0, b1 in zip(b, b[1:])]
        if not all(math.isfinite(r) for r in rates):
            return float("inf")
        return max(rates, default=float("-inf"))


# ---------------------------------------------------------------------------
# functionals


# The functionals and flow_rhs return make_state's values, their one
# definition.  Overflow of e^{k lambda} is the blow-up signal, never a
# warning: make_state and the steppers each set
# np.errstate(over="ignore", invalid="ignore") once, and the kernels they
# call (_weighted_sum, _rhs_values, _webster_core, _accept) set none of
# their own.


def energy(lam: ScalarField) -> float:
    """Curvature energy integrate(W^2 e^{4 lambda}) of e^{2 lambda} theta-hat."""
    return make_state(lam, 0.0, 0).diagnostics.energy


def volume(lam: ScalarField) -> float:
    """Total volume integrate(e^{4 lambda}) of the rescaled structure."""
    return make_state(lam, 0.0, 0).diagnostics.volume


def bondi(lam: ScalarField) -> float:
    """Monitored quantity integrate(e^{5 lambda}).

    Its discrete time-derivative is recorded along runs and its running
    supremum reported; no bound on it is asserted anywhere.
    """
    return make_state(lam, 0.0, 0).diagnostics.bondi


# ---------------------------------------------------------------------------
# gradient flow right-hand side


def _rhs_values(geom: ModelGeometry, values: np.ndarray, *,
                out: np.ndarray | None = None,
                work: Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Returns (rhs, w) at the conformal exponent ``values``: sigma *
    grad E with grad E = 2 (u^{-3} L-hat(uW) - W^2), and the curvature
    values w it was assembled from.

    The covariant term is assembled with the same background-term
    grouping as the curvature itself, so constant states cancel to
    exactly zero, not merely to rounding.  A non-finite state still gets
    its curvature, and an all-NaN rhs.

    rhs is written into ``out``, or into a fresh array without it; w is
    ``work.w``, valid until the next call on ``work`` (a workspace is
    built when ``work`` is None).  ``values`` is never written and
    shares no memory with ``out`` or ``work``'s stencil and curvature
    arrays.  The curvature's scratch is reused in place, each product
    and sum with the operands and grouping of

        DESCENT * 2 * (em3 * (4 * sublap(u * w)) + (What * m2) * w - w * w)

    with the background product left out where What == 0 (the flat
    kinds).  bg = What * m2 is the curvature's own product, held in
    ``work.m2``, and bg * w goes there too; w * w goes into the stencil's
    ``work.e``, free once it returns.
    """
    if out is None:
        out = np.empty(geom.resolution)
    if work is None:
        work = Workspace(geom)
    u, bg, em3, w = _webster_core(geom, values, work=work)
    # a finite sum has no inf or NaN summand, so only a non-finite one
    # needs the cell scan
    if not math.isfinite(np.add.reduce(values, axis=None)) \
            and not np.isfinite(values).all():
        out.fill(np.nan)
        return out, w
    u *= w
    cov = _div_form_values(geom, u, out=out, work=work)
    cov *= em3
    if bg is not None:
        cov += np.multiply(bg, w, out=bg)
    cov -= np.multiply(w, w, out=work.e)
    cov *= DESCENT * 2.0
    return cov, w


def flow_rhs(lam: ScalarField) -> ScalarField:
    """Right-hand side of the volume-preserving downward energy flow.

    Exactly annihilates constants and has exactly zero e^{4 lambda}-
    weighted mean (tangency to the volume constraint).  A non-finite
    input produces an all-NaN output rather than an exception, so
    blow-up propagates to the detector.
    """
    return ScalarField(lam.geometry, make_state(lam, 0.0, 0).rhs)


# ---------------------------------------------------------------------------
# states and diagnostics


def make_state(lam: ScalarField, time: float, step_index: int, *,
               work: Workspace | None = None) -> FlowState:
    """Assemble a FlowState with its right-hand side and freshly computed
    diagnostics: one rhs and one curvature evaluation.  Every Diagnostics
    field is computed here and nowhere else, so a new per-row quantity is
    one field there and one line here.

    ``lam`` is kept, never written, and ``rhs`` is a fresh array; every
    other array is scratch of ``work`` (a workspace is built when it is
    None), whose ``u`` and ``e`` hold the integrands once the rhs is
    done."""
    geom = lam.geometry
    values = lam.values
    if work is None:
        work = Workspace(geom)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs, w = _rhs_values(geom, values, work=work)
        m4 = np.multiply(values, 4.0, out=work.u)
        np.exp(m4, out=m4)
        vol = _weighted_sum(geom, m4)
        scratch = np.multiply(w, w, out=work.e)
        scratch *= m4
        ene = _weighted_sum(geom, scratch)
        np.multiply(values, 5.0, out=scratch)
        bon = _weighted_sum(geom, np.exp(scratch, out=scratch))
        np.multiply(rhs, rhs, out=scratch)
        scratch *= m4
        dis = DESCENT * _weighted_sum(geom, scratch)
    # the energy sums w^2 e^{4 lambda}, never negative: a finite sum has
    # finite terms, and a finite term has a finite w even where
    # e^{4 lambda} is 0 (inf * 0 is NaN), so only a non-finite energy needs
    # the cell scan.  Reductions and array methods: the work of min, max,
    # argmax and flat without numpy's Python wrappers
    if math.isfinite(ene) or np.isfinite(w).all():
        w_min = float(np.minimum.reduce(w, axis=None))
        w_max = float(np.maximum.reduce(w, axis=None))
    else:
        w_min = w_max = float("nan")
    abs_lam = np.abs(values, out=scratch)
    argmax = int(abs_lam.argmax())      # the first NaN, if there is one
    lam_max = abs_lam.item(argmax)
    if math.isnan(lam_max):             # rank NaN like inf: first of either
        argmax = int(np.where(np.isnan(abs_lam), np.inf, abs_lam).argmax())
        lam_max = abs_lam.item(argmax)
    diag = Diagnostics(time=time, volume=vol, energy=ene, bondi=bon,
                       w_min=w_min, w_max=w_max, dissipation=dis,
                       lam_max=lam_max, lam_argmax=argmax)
    return FlowState(lam=lam, rhs=rhs, step_index=step_index, diagnostics=diag)


def detect_blowup(state: FlowState) -> bool:
    """True iff the state is non-finite or |lambda| exceeds the
    classification threshold (chosen so e^{4 lambda} is still
    representable: classify before NaN contamination).  Reads the
    recorded max |lambda|, which is non-finite iff the state is."""
    return not state.diagnostics.lam_max <= BLOWUP_THRESHOLD


# ---------------------------------------------------------------------------
# time stepping


def step_explicit(state: FlowState, dt: float, *,
                  work: Workspace | None = None) -> FlowState:
    """One classical four-stage Runge-Kutta step of the semi-discrete flow.

    The first stage is the state's stored rhs (first same as last), so a
    step makes three stage evaluations plus the one in ``make_state``.

    The stage inputs share ``work.stage`` and k3 is ``work.k3`` (a
    workspace is built when ``work`` is None).  The increment
    (dt/6) * (((k1 + 2 k2) + 2 k3) + k4) accumulates into k2, in place:
    (k1 + 2 k2) + 2 k3 once stage 4's input is formed, which frees k3's
    buffer for k4, and then k4 and the factor dt/6.  k2 is the one fresh
    stage array, which ``_accept`` turns into the new state's ``lam``.
    The old state's ``lam`` and ``rhs`` are never written.
    """
    _check_dt(dt, "dt")
    geom = state.lam.geometry
    y = state.lam.values
    if work is None:
        work = Workspace(geom)
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = state.rhs
        stage = np.multiply(k1, 0.5 * dt, out=work.stage)
        stage += y
        k2 = _rhs_values(geom, stage, work=work)[0]
        np.multiply(k2, 0.5 * dt, out=stage)
        stage += y
        k3 = _rhs_values(geom, stage, out=work.k3, work=work)[0]
        np.multiply(k3, dt, out=stage)
        stage += y
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k4 = _rhs_values(geom, stage, out=k3, work=work)[0]     # k3 is summed
        k2 += k4
        k2 *= dt / 6.0
        return _accept(state, k2, dt, work)


def step_imex(state: FlowState, dt: float, *,
              work: Workspace | None = None) -> FlowState:
    """One implicit-explicit Euler step with biharmonic stabilization,
    solved for the increment:

        (I + dt c Delta-hat^2) (lambda' - lambda) = dt rhs(lambda)

    with c = C_STAB: in exact arithmetic the step (I + dt c Delta-hat^2)
    lambda' = lambda + dt (rhs + c Delta-hat^2 lambda), but a zero rhs
    gives a zero increment, which ``_accept`` turns into lambda itself,
    so constant states stay fixed to the last bit on every kind.  The
    shifted operator is symmetric positive definite, so the solve is well
    posed at any dt.  On every kind it is the exact spectral inverse
    (``shifted_bilap_inverse``), a division by 1 + s sigma^2 between
    orthonormal transforms, whose rounding does not grow with s (only
    applying the shifted operator amplifies it, by s sigma_max^2): it is
    applied unchecked at any dt.

    The explicit term dt * rhs is scratch of ``work`` (a workspace is
    built when it is None).  The solved increment is fresh.  One
    non-finite cell of dt * rhs makes every transformed coefficient and
    every increment cell non-finite, so a blown-up state propagates for
    classification.  ``_accept`` turns the increment into the new state's
    ``lam`` and restores the volume.  The old state's ``lam`` and ``rhs``
    are never written.
    """
    _check_dt(dt, "dt")
    geom = state.lam.geometry
    if work is None:
        work = Workspace(geom)
    with np.errstate(over="ignore", invalid="ignore"):
        b = np.multiply(state.rhs, dt, out=work.stage)
        increment = linear_solve(shifted_bilap_inverse(geom, dt * C_STAB), b)
        return _accept(state, increment, dt, work, restore_volume=True)


def _accept(state: FlowState, increment: np.ndarray, dt: float, work: Workspace, *,
            restore_volume: bool = False) -> FlowState:
    """The state one step of dt after ``state``, whose lambda is ``state``'s
    plus a stepper's fresh ``increment``: the one place a step changes
    lambda.

    An increment with no nonzero cell leaves a fresh copy of lambda's own
    bytes, -0.0 included, and nothing else is done.  Otherwise lambda is
    added into the increment, in place, and with ``restore_volume``
    (IMEX) the constant shift += log(V / V') / 4 then restores the volume
    V of ``state`` exactly; the energy is invariant under constant shifts,
    so only the step's volume drift goes.  The shift is skipped unless V
    and V' are positive and finite, and V''s integrand is scratch in
    ``work.k3``.  A kernel of the steppers, run under their errstate."""
    geom = state.lam.geometry
    if not increment.any():
        values = state.lam.values.copy()
    else:
        values = increment
        values += state.lam.values
        if restore_volume:
            v_old = state.diagnostics.volume
            m4 = np.multiply(values, 4.0, out=work.k3)    # volume(values)
            v_new = _weighted_sum(geom, np.exp(m4, out=m4))
            if 0.0 < v_old < math.inf and 0.0 < v_new < math.inf:
                values += 0.25 * math.log(v_old / v_new)
    return make_state(ScalarField(geom, values), state.time + dt,
                      state.step_index + 1, work=work)


def auto_dt(geom: ModelGeometry) -> float:
    """Explicit step size from the linearized symbol, for lambda near 0.

    Around a flat state the right-hand side linearizes to
    -(2b^2) Delta-hat^2 + lower order with 2b^2 = C_STAB = 32, so the
    stiffest rate is C_STAB * sigma^2 (+ a curvature correction on the
    sphere), and the step is 0.2 / rate at sigma =
    ``stability_symbol_max``.  On the flat kinds that sigma is the top of
    the spectrum, so dt * rate <= 0.2.  On the sphere it is up to 2x
    below the top, and dt times the true stiffest rate is 0.65-0.79 (8
    to 256 cells): still inside RK4's real-axis limit 2.78, but not the
    0.2 margin the flat kinds get.  A rate that underflows to 0 (a huge
    cell spacing) gives an infinite step, which ``run`` refuses.
    """
    sigma = stability_symbol_max(geom)
    rate = C_STAB * sigma * sigma \
        + 4.0 * YAMABE_COEFFICIENT * abs(geom.background_curvature) * sigma
    return 0.2 / rate if rate else math.inf


def _check_dt(dt: float, what: str) -> float:
    """The one rule for a step, which ``run``, for the step it resolves,
    and both steppers apply: dt, else ValueError unless 0 < dt < inf (NaN
    included).  An extreme cell spacing can make the automatic step 0
    (C_STAB * sigma^2 overflows), NaN (a subnormal squared spacing) or
    infinite (the rate underflows)."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"{what} {dt!r} is not a positive finite number")
    return dt


_PLATEAU_FLOOR = 1e-300


def _check_run_args(integrator, dt, max_time, max_steps, snapshot_every) -> None:
    """The one rule for ``run``'s arguments, which ``RunConfig`` applies
    to a config file too.  Numbers are read by manifold's readers:
    booleans and strings are refused, and an integer may be an integral
    float.  Raises ValueError, or a reader's GeometryError (a ValueError),
    naming the first bad argument."""
    if integrator not in INTEGRATORS:
        raise ValueError(f"integrator must be one of {INTEGRATORS}, got {_shown(integrator)}")
    if dt != "auto":
        _check_dt(_as_finite(dt, "dt"), "dt")
    if _as_finite(max_time, "max_time") <= 0:
        raise ValueError(f"max_time must be positive, got {_shown(max_time)}")
    if max_steps is not None and _as_int(max_steps, "max_steps") < 1:
        raise ValueError(f"max_steps must be None or at least 1, got {_shown(max_steps)}")
    if _as_int(snapshot_every, "snapshot_every") < 0:
        raise ValueError(f"snapshot_every must be at least 0, got {_shown(snapshot_every)}")


def run(lam0: ScalarField, *, integrator: str = "explicit",
        dt: float | str = "auto", max_time: float = 1.0,
        max_steps: int | None = None, snapshot_every: int = 0) -> Trajectory:
    """March the flow from ``lam0``, on its geometry, to one of four outcomes.

    The loop reads stop, step, record.  Before each step ``_stop`` tests,
    in this order, for ``blowup`` (non-finite state or |lambda| past
    threshold), ``converged`` (energy plateau after a genuine decrease)
    or ``plateau`` (energy plateau without one — e.g. data that starts
    stationary), and ``max_time`` (the next step would pass ``max_time``,
    or ``max_steps`` steps are done); the first that holds ends the run.
    A plateau is ``PLATEAU_WINDOW`` consecutive steps whose relative
    energy change is below ``PLATEAU_TOL``.
    Deterministic for fixed inputs.  One Diagnostics record per step,
    including step 0; snapshots of lambda every ``snapshot_every`` steps
    (0 disables them) plus the final state.

    The arguments are checked before the first step by the rule of
    ``_check_run_args``, and the resolved dt must be positive and
    finite; a bad one raises ValueError or its subclass GeometryError.
    """
    _check_run_args(integrator, dt, max_time, max_steps, snapshot_every)
    geom = lam0.geometry
    dt_val = _check_dt(auto_dt(geom), "the resolved dt") if dt == "auto" else _as_finite(dt, "dt")
    # read from the module at call time, so a patched step is the one run
    stepper = step_explicit if integrator == "explicit" else step_imex
    if max_steps is None:
        max_steps = math.inf    # the time test alone ends the run

    work = Workspace(geom)      # every step's scratch, released on return
    state = make_state(lam0, 0.0, 0, work=work)
    traj = Trajectory(outcome="max_time", dt=dt_val)

    def record(st: FlowState) -> None:
        traj.diagnostics.append(st.diagnostics)
        if snapshot_every > 0 and st.step_index % snapshot_every == 0:
            traj.snapshots.append((st.step_index, st.lam.copy()))

    record(state)
    e_first = state.diagnostics.energy
    quiet = 0  # consecutive steps whose relative energy change is below tol

    while (outcome := _stop(state, quiet, e_first, max_steps, max_time, dt_val)) is None:
        e_old = state.diagnostics.energy
        state = stepper(state, dt_val, work=work)
        record(state)
        rel = abs(state.diagnostics.energy - e_old) / max(e_old, _PLATEAU_FLOOR)
        quiet = quiet + 1 if rel < PLATEAU_TOL else 0  # a NaN change is never quiet

    traj.outcome = outcome
    if snapshot_every > 0 and state.step_index % snapshot_every:
        traj.snapshots.append((state.step_index, state.lam.copy()))
    traj.final_state = state
    return traj


def _stop(state: FlowState, quiet: int, e_first: float, max_steps: float,
          max_time: float, dt: float) -> str | None:
    """``run``'s outcome at ``state``, or None to step on; ``quiet`` counts
    the steps of energy plateau and ``e_first`` is step 0's energy."""
    if detect_blowup(state):
        return "blowup"
    if quiet >= PLATEAU_WINDOW:
        return "converged" if state.diagnostics.energy < 0.99 * e_first else "plateau"
    if state.step_index >= max_steps or state.time + dt > max_time * (1.0 + 1e-12):
        return "max_time"
    return None
