"""Curvature energy, volume and Bondi-type functionals, and the downward
gradient flow of the energy.

The energy of the rescaled structure theta = e^{2 lambda} theta-hat is

    E(lambda) = integrate( W(lambda)^2 * e^{4 lambda} ),

and the flow evolves lambda by (minus) its volume-weighted gradient.  The
right-hand side is assembled from the *exact discrete* first variation:
with u = e^lambda, L-hat = 4 * sublap + What, and W = u^{-3} L-hat(u),

    grad E = 2 * ( u^{-3} L-hat(u W) - W^2 ),

which in the continuum collapses to 8 * conformal-sublaplacian of W (the
8 being 2 * yamabe_coefficient; gradient_check verifies rather than
assumes it).  Two consequences hold to rounding, not merely to
discretization order, because L-hat is exactly self-adjoint:

* integrate(rhs * e^{4 lambda}) = 0  — the flow is exactly tangent to
  the constant-volume manifold, so volume drift is purely a time-
  stepping error of the integrator's order;
* the weighted pairing <-rhs, phi> reproduces the finite-difference
  derivative of E in any direction phi, which is the gradient check.

Blow-up handling: overflow of e^{k lambda} is a *signal*, not an error.
Functionals return non-finite values, the right-hand side propagates
NaNs, and the run loop classifies the state via detect_blowup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conventions import (BLOWUP_THRESHOLD, C_STAB, DEFAULT_LEDGER, PLATEAU_TOL,
                          PLATEAU_WINDOW, YAMABE_COEFFICIENT, ConventionLedger)
from .manifold import ModelGeometry, ScalarField
from .operators import (
    LinearSolveError,
    _div_form_values,
    _webster_core,
    linear_solve,
    shifted_bilap_inverse,
    stability_symbol_max,
)

__all__ = [
    "Diagnostics",
    "FlowState",
    "Trajectory",
    "energy",
    "volume",
    "bondi",
    "flow_rhs",
    "gradient_check",
    "make_state",
    "step_explicit",
    "step_imex",
    "detect_blowup",
    "auto_dt",
    "run",
]


@dataclass(frozen=True)
class Diagnostics:
    """Per-step scalar monitors of a flow state at flow time ``time``.

    ``lam_max`` is max |lambda| and ``lam_argmax`` its flat C-order cell
    index; non-finite cells rank highest, so the record still localizes
    an incipient singularity.
    """

    time: float
    volume: float
    energy: float
    bondi: float
    w_min: float
    w_max: float
    dissipation: float
    overflow_flag: bool
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
    dt: float
    diagnostics: Diagnostics

    @property
    def time(self) -> float:
        return self.diagnostics.time


@dataclass
class Trajectory:
    """Result of a run: outcome label plus the per-step record.

    ``solver_error`` holds the solver's message when the outcome is
    ``solver_failure``, else ``None``.
    """

    outcome: str
    dt: float
    diagnostics: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    final_state: FlowState | None = None
    solver_error: str | None = None

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


# Overflow of e^{k lambda} is the blow-up signal, never a warning: each
# public entry point sets np.errstate(over="ignore", invalid="ignore")
# once, and the kernels it calls (_weighted_sum, _rhs_values,
# _webster_core) set none of their own.


def _weighted_sum(geom: ModelGeometry, values: np.ndarray) -> float:
    """Riemann sum against the geometric volume element; non-finite
    summands pass through as the blow-up signal."""
    return float(values.sum() * geom.cell_weight())


def energy(lam: ScalarField) -> float:
    """Curvature energy integrate(W^2 e^{4 lambda}) of e^{2 lambda} theta-hat."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = _webster_core(lam.geometry, lam.values)[3]
        return _weighted_sum(lam.geometry, w * w * np.exp(4.0 * lam.values))


def volume(lam: ScalarField) -> float:
    """Total volume integrate(e^{4 lambda}) of the rescaled structure."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _weighted_sum(lam.geometry, np.exp(4.0 * lam.values))


def bondi(lam: ScalarField) -> float:
    """Monitored quantity integrate(e^{5 lambda}).

    Its discrete time-derivative is recorded along runs and its running
    supremum reported; no bound on it is asserted anywhere.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _weighted_sum(lam.geometry, np.exp(5.0 * lam.values))


# ---------------------------------------------------------------------------
# gradient flow right-hand side


def _rhs_values(geom: ModelGeometry, values: np.ndarray,
                ledger: ConventionLedger) -> tuple[np.ndarray, np.ndarray]:
    """Returns (rhs, w) at the conformal exponent ``values``: sigma *
    grad E with grad E = 2 (u^{-3} L-hat(uW) - W^2), and the curvature
    values w it was assembled from.

    The covariant term is assembled with the same background-term
    grouping as the curvature itself, so constant states cancel to
    exactly zero, not merely to rounding.  A non-finite state still gets
    its curvature, and an all-NaN rhs.
    """
    u, m2, em3, w = _webster_core(geom, values)
    if not np.isfinite(values).all():
        return np.full_like(values, np.nan), w
    uw = u * w
    cov = em3 * (YAMABE_COEFFICIENT * _div_form_values(geom, uw)) \
        + (geom.background_curvature * m2) * w
    return ledger.flow_sign * 2.0 * (cov - w * w), w


def flow_rhs(lam: ScalarField, ledger: ConventionLedger = DEFAULT_LEDGER) -> ScalarField:
    """Right-hand side of the volume-preserving downward energy flow.

    Exactly annihilates constants and has exactly zero e^{4 lambda}-
    weighted mean (tangency to the volume constraint).  A non-finite
    input produces an all-NaN output rather than an exception, so
    blow-up propagates to the detector.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return ScalarField(lam.geometry,
                           _rhs_values(lam.geometry, lam.values, ledger)[0])


def gradient_check(lam: ScalarField, phi: ScalarField, h: float = 1e-5,
                   ledger: ConventionLedger = DEFAULT_LEDGER) -> float:
    """Relative defect between the weighted pairing of -rhs with phi and
    the central finite difference of the energy in direction phi."""
    geom = lam.geometry
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = _rhs_values(geom, lam.values, ledger)[0]
        lhs = _weighted_sum(geom, -rhs * phi.values * np.exp(4.0 * lam.values))
    e_plus = energy(ScalarField(geom, lam.values + h * phi.values))
    e_minus = energy(ScalarField(geom, lam.values - h * phi.values))
    d_h = (e_plus - e_minus) / (2.0 * h)
    return abs(lhs - d_h) / max(abs(d_h), 1e-30)


# ---------------------------------------------------------------------------
# states and diagnostics


def make_state(lam: ScalarField, time: float, step_index: int, dt: float,
               ledger: ConventionLedger = DEFAULT_LEDGER) -> FlowState:
    """Assemble a FlowState with its right-hand side and freshly computed
    diagnostics: one rhs and one curvature evaluation."""
    geom = lam.geometry
    values = lam.values
    with np.errstate(over="ignore", invalid="ignore"):
        rhs, w = _rhs_values(geom, values, ledger)
        m4 = np.exp(4.0 * values)
        vol = _weighted_sum(geom, m4)
        ene = _weighted_sum(geom, w * w * m4)
        bon = _weighted_sum(geom, np.exp(5.0 * values))
        dis = ledger.flow_sign * _weighted_sum(geom, rhs * rhs * m4)
    finite_w = bool(np.isfinite(w).all())
    w_min = float(w.min()) if finite_w else float("nan")
    w_max = float(w.max()) if finite_w else float("nan")
    abs_lam = np.abs(values)
    argmax = int(np.argmax(abs_lam))    # the first NaN, if there is one
    if np.isnan(abs_lam.flat[argmax]):  # rank NaN like inf: first of either
        argmax = int(np.argmax(np.where(np.isnan(abs_lam), np.inf, abs_lam)))
    overflow = not (finite_w and np.isfinite(vol) and np.isfinite(ene)
                    and np.isfinite(bon) and np.isfinite(rhs).all())
    diag = Diagnostics(time=time, volume=vol, energy=ene, bondi=bon,
                       w_min=w_min, w_max=w_max, dissipation=dis,
                       overflow_flag=overflow,
                       lam_max=float(abs_lam.flat[argmax]), lam_argmax=argmax)
    return FlowState(lam=lam, rhs=rhs, step_index=step_index, dt=dt,
                     diagnostics=diag)


def detect_blowup(state: FlowState) -> bool:
    """True iff the state is non-finite or |lambda| exceeds the
    classification threshold (chosen so e^{4 lambda} is still
    representable: classify before NaN contamination).  Reads the
    recorded max |lambda|, which is non-finite iff the state is."""
    return not state.diagnostics.lam_max <= BLOWUP_THRESHOLD


# ---------------------------------------------------------------------------
# time stepping


def step_explicit(state: FlowState, dt: float,
                  ledger: ConventionLedger = DEFAULT_LEDGER) -> FlowState:
    """One classical four-stage Runge-Kutta step of the semi-discrete flow.

    The first stage is the state's stored rhs (first same as last), so a
    step makes three stage evaluations plus the one in ``make_state``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    geom = state.lam.geometry
    y = state.lam.values
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = state.rhs
        k2 = _rhs_values(geom, y + 0.5 * dt * k1, ledger)[0]
        k3 = _rhs_values(geom, y + 0.5 * dt * k2, ledger)[0]
        k4 = _rhs_values(geom, y + dt * k3, ledger)[0]
        y_new = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return make_state(ScalarField(geom, y_new), state.time + dt,
                      state.step_index + 1, dt, ledger)


def step_imex(state: FlowState, dt: float,
              ledger: ConventionLedger = DEFAULT_LEDGER) -> FlowState:
    """One implicit-explicit Euler step with biharmonic stabilization:

        (I + dt c Delta-hat^2) lambda' = lambda + dt (rhs(lambda)
                                                      + c Delta-hat^2 lambda)

    with c = C_STAB.  The shifted operator is symmetric positive
    definite, so the conjugate-gradient solve is well posed at any dt.
    On the sector and the sphere it is preconditioned by the exact
    spectral inverse (``shifted_bilap_inverse``): one operator
    application per step whatever dt, still checked against the CG
    residual tolerance.  The lattice keeps plain CG.

    The step then restores the volume of the incoming state exactly, by
    the constant shift lambda' += log(V / V') / 4.  The energy is
    invariant under constant shifts, so this removes the implicit
    step's volume drift without touching the energy.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    geom = state.lam.geometry
    c = C_STAB

    def bilap(v: np.ndarray) -> np.ndarray:
        return _div_form_values(geom, _div_form_values(geom, v))

    y = state.lam.values
    with np.errstate(over="ignore", invalid="ignore"):
        b = y + dt * (state.rhs + c * bilap(y))
    if not np.isfinite(b).all():
        # blown-up state: skip the solve, propagate for classification
        return make_state(ScalarField(geom, np.full_like(y, np.nan)),
                          state.time + dt, state.step_index + 1, dt, ledger)

    def shifted(v: np.ndarray) -> np.ndarray:
        return v + (dt * c) * bilap(v)

    sol = linear_solve(shifted, ScalarField(geom, b), max_iter=ledger.cg_max_iter,
                       preconditioner=shifted_bilap_inverse(geom, dt * c))
    v_old, v_new = state.diagnostics.volume, volume(sol)
    if 0.0 < v_old < math.inf and 0.0 < v_new < math.inf:
        sol = ScalarField(geom, sol.values + 0.25 * math.log(v_old / v_new))
    return make_state(sol, state.time + dt, state.step_index + 1, dt, ledger)


def auto_dt(geom: ModelGeometry) -> float:
    """Conservative explicit step size from the linearized symbol.

    Around a flat state the right-hand side linearizes to
    -(2b^2) Delta-hat^2 + lower order with 2b^2 = C_STAB = 32, so the
    stiffest rate is C_STAB * sigma^2 (+ a curvature correction on the
    sphere); the step keeps RK4 well inside its stability interval.
    """
    sigma = stability_symbol_max(geom)
    rate = C_STAB * sigma * sigma \
        + 4.0 * YAMABE_COEFFICIENT * abs(geom.background_curvature) * sigma
    return 0.2 / rate


_PLATEAU_FLOOR = 1e-300


def run(geom: ModelGeometry, lam0: ScalarField, *, integrator: str = "explicit",
        dt: float | str = "auto", max_time: float = 1.0,
        max_steps: int | None = None, plateau_tol: float = PLATEAU_TOL,
        plateau_window: int = PLATEAU_WINDOW, snapshot_every: int = 0,
        ledger: ConventionLedger = DEFAULT_LEDGER) -> Trajectory:
    """March the flow to one of four outcomes.

    Outcomes: ``blowup`` (non-finite state or |lambda| past threshold),
    ``converged`` (energy plateau after a genuine decrease),
    ``plateau`` (energy plateau without one — e.g. data that starts
    stationary), ``max_time`` (time or step budget exhausted first),
    ``solver_failure`` (an implicit solve raised ``LinearSolveError``;
    the record ends at the last accepted step).
    Deterministic for fixed inputs.  One Diagnostics record per step,
    including step 0; snapshots of lambda every ``snapshot_every`` steps
    (0 disables them) plus the final state.
    """
    if integrator not in ("explicit", "imex"):
        raise ValueError(f"unknown integrator {integrator!r}")
    if lam0.geometry is not geom:
        raise ValueError("initial data not on the supplied geometry")
    dt_val = auto_dt(geom) if dt == "auto" else float(dt)
    if dt_val <= 0:
        raise ValueError("dt must be positive")
    stepper = step_explicit if integrator == "explicit" else step_imex
    if max_steps is None:
        max_steps = int(np.ceil(max_time / dt_val)) + 1

    state = make_state(lam0, 0.0, 0, dt_val, ledger)
    traj = Trajectory(outcome="max_time", dt=dt_val)

    def record(st: FlowState) -> None:
        traj.diagnostics.append(st.diagnostics)
        if snapshot_every > 0 and st.step_index % snapshot_every == 0:
            traj.snapshots.append((st.step_index, st.lam.copy()))

    record(state)
    e_first = state.diagnostics.energy
    quiet = 0  # consecutive steps whose relative energy change is below tol

    while True:
        if detect_blowup(state):
            traj.outcome = "blowup"
            break
        if quiet >= plateau_window:
            dropped = state.diagnostics.energy < 0.99 * e_first
            traj.outcome = "converged" if dropped else "plateau"
            break
        if (state.step_index >= max_steps
                or state.time + dt_val > max_time * (1.0 + 1e-12)):
            traj.outcome = "max_time"
            break
        e_old = state.diagnostics.energy
        try:
            state = stepper(state, dt_val, ledger)
        except LinearSolveError as exc:
            traj.outcome = "solver_failure"
            traj.solver_error = str(exc)
            break
        record(state)
        rel = abs(state.diagnostics.energy - e_old) / max(abs(e_old), _PLATEAU_FLOOR)
        quiet = quiet + 1 if rel < plateau_tol else 0  # a NaN change is never quiet

    if snapshot_every > 0 and (not traj.snapshots
                               or traj.snapshots[-1][0] != state.step_index):
        traj.snapshots.append((state.step_index, state.lam.copy()))
    traj.final_state = state
    return traj
