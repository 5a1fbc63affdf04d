"""Fixed numerical conventions shared by every module.

All sign and scale choices live in one place so that each cross-model
constant is pinned exactly once.  The conventions are:

* the sublaplacian is *positive*: its quadratic form is >= 0, and on the
  flat group it is -(X^2 + Y^2)/2 for the horizontal frame X, Y;
* the conformally covariant second-order operator is L = 4 * sublap + W
  (dimension-3 coefficient 4);
* the evolution moves *down* the energy gradient (flow_sign = -1); the
  ascending sign exists only as an expert override for probe runs.
  ``ConventionLedger`` holds it, the only value a caller may set;
  everything else here is constant;
* the reduced-sphere frame constant c_s = 8 and total volume kappa = pi^2
  follow from realizing the round structure as the |w + i|^{-2} rescaling
  of the flat one (derivation: tests/oracles/sphere_reduction.py);
* the background curvature of the sphere kind is *calibrated at runtime*
  (operators.calibrate_sphere_curvature), never transcribed.
"""

from __future__ import annotations

import dataclasses
import math

YAMABE_COEFFICIENT = 4.0              # L = 4 * sublap + W
HEISENBERG_HORIZONTAL_FACTOR = 0.5    # the 1/2 in -(X^2+Y^2)/2
HEISENBERG_VOLUME_WEIGHT = 4.0        # theta ^ dtheta = 4 dx dy dt
SPHERE_CS = 8.0                       # reduced operator -c_s (s(1-s) f')'
SPHERE_KAPPA = math.pi**2             # total volume of the round model
# linearized flat-state stiffness: the rhs linearizes to -(2b^2) sublap^2
C_STAB = 2.0 * YAMABE_COEFFICIENT**2
SOLVE_TOL = 1e-10                     # relative residual of a linear solve
BLOWUP_THRESHOLD = 20.0               # max |lambda| before declaring blow-up
PLATEAU_WINDOW = 50                   # steps per plateau comparison
PLATEAU_TOL = 1e-10                   # |dE|/E threshold for a plateau


@dataclasses.dataclass(frozen=True)
class ConventionLedger:
    """The convention a caller may set: ``flow_sign``, -1 for the
    energy-decreasing direction (the default contract) or +1 for the
    ascending probe used by the blow-up tests.  ``as_dict`` also lists
    the fixed constants, so a run's metadata records every convention it
    used; the plateau defaults are left out, since a run records the
    plateau values it resolved.
    """

    flow_sign: float = -1.0

    def __post_init__(self) -> None:
        if isinstance(self.flow_sign, bool) or self.flow_sign not in (-1.0, 1.0):
            raise ValueError(f"flow_sign must be -1.0 or 1.0, got {self.flow_sign!r}")

    def as_dict(self) -> dict:
        return {
            "yamabe_coefficient": YAMABE_COEFFICIENT,
            "heisenberg_horizontal_factor": HEISENBERG_HORIZONTAL_FACTOR,
            "heisenberg_volume_weight": HEISENBERG_VOLUME_WEIGHT,
            "sphere_cs": SPHERE_CS,
            "sphere_kappa": SPHERE_KAPPA,
            "c_stab": C_STAB,
            "solve_tol": SOLVE_TOL,
            "blowup_threshold": BLOWUP_THRESHOLD,
            **dataclasses.asdict(self),
        }

    def replace(self, **overrides) -> "ConventionLedger":
        fixed = sorted(set(overrides) - set(dataclasses.asdict(self)))
        if fixed:
            raise ValueError(f"only flow_sign may be set, not {fixed}")
        return dataclasses.replace(self, **overrides)


DEFAULT_LEDGER = ConventionLedger()
