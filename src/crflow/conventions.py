"""Fixed numerical conventions shared by every module.

All sign and scale choices live in one place so that each cross-model
constant is pinned exactly once.  The conventions are:

* the sublaplacian is *positive*: its quadratic form is >= 0, and on the
  flat group it is -(X^2 + Y^2)/2 for the horizontal frame X, Y;
* the conformally covariant second-order operator is L = 4 * sublap + W
  (dimension-3 coefficient 4);
* the evolution moves *down* the energy gradient (flow_sign = -1); the
  ascending sign exists only as an expert override for probe runs;
* the reduced-sphere frame constant c_s = 8 and total volume kappa = pi^2
  follow from realizing the round structure as the |w + i|^{-2} rescaling
  of the flat one (derivation: tests/oracles/sphere_reduction.py);
* the background curvature of the sphere kind is *calibrated at runtime*
  (operators.calibrate_sphere_curvature), never transcribed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class ConventionLedger:
    """Snapshot of every fixed sign/scale convention.

    ``flow_sign`` is the one deliberately exposed knob: -1 is the
    energy-decreasing direction (the default contract); +1 drives the
    ascending probe used by the blow-up tests.
    """

    yamabe_coefficient: float = 4.0   # L = 4 * sublap + W
    flow_sign: float = -1.0           # descent; +1 only for probe runs
    # frame scale constants per geometry kind
    heisenberg_horizontal_factor: float = 0.5   # the 1/2 in -(X^2+Y^2)/2
    heisenberg_volume_weight: float = 4.0       # theta ^ dtheta = 4 dx dy dt
    sphere_cs: float = 8.0            # reduced operator -c_s (s(1-s) f')'
    sphere_kappa: float = math.pi**2  # total volume of the round model
    # discretization / solver defaults
    cg_tol: float = 1e-10
    cg_max_iter: int = 10000
    c_stab: float = 32.0              # linearized flat-state stiffness
    blowup_threshold: float = 20.0    # max |lambda| before declaring blow-up
    plateau_window: int = 50          # steps per plateau comparison
    plateau_tol: float = 1e-10        # |dE|/E threshold for a plateau

    def as_dict(self) -> dict:
        return asdict(self)

    def replace(self, **kw) -> "ConventionLedger":
        merged = {**asdict(self), **kw}
        return ConventionLedger(**merged)


DEFAULT_LEDGER = ConventionLedger()
