"""Fixed numerical conventions shared by every module.

All sign and scale choices live in one place so that each cross-model
constant is pinned exactly once.  The conventions are:

* the sublaplacian is *positive*: its quadratic form is >= 0, and on the
  flat group it is -(X^2 + Y^2)/2 for the horizontal frame X, Y;
* the conformally covariant second-order operator is L = 4 * sublap + W
  (dimension-3 coefficient 4);
* the evolution moves *down* the energy gradient (flow_sign = -1); the
  ascending sign exists only as an expert override for probe runs.
  ``ConventionLedger`` holds it and the solver budget cg_max_iter, the
  only two values a caller may set; everything else here is constant;
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
CG_TOL = 1e-10
CG_MAX_ITER = 10000                   # default solver budget
BLOWUP_THRESHOLD = 20.0               # max |lambda| before declaring blow-up
PLATEAU_WINDOW = 50                   # steps per plateau comparison
PLATEAU_TOL = 1e-10                   # |dE|/E threshold for a plateau


@dataclasses.dataclass(frozen=True)
class ConventionLedger:
    """The two conventions a caller may set.

    ``flow_sign`` is -1 for the energy-decreasing direction (the default
    contract) or +1 for the ascending probe used by the blow-up tests;
    ``cg_max_iter`` is the conjugate-gradient budget of the implicit
    solve.  ``as_dict`` also lists the fixed constants, so a run's
    metadata records every convention it used.
    """

    flow_sign: float = -1.0
    cg_max_iter: int = CG_MAX_ITER

    def __post_init__(self) -> None:
        if isinstance(self.flow_sign, bool) or self.flow_sign not in (-1.0, 1.0):
            raise ValueError(f"flow_sign must be -1.0 or 1.0, got {self.flow_sign!r}")
        if type(self.cg_max_iter) is not int or self.cg_max_iter < 1:
            raise ValueError(
                f"cg_max_iter must be a positive integer, got {self.cg_max_iter!r}")

    def as_dict(self) -> dict:
        return {
            "yamabe_coefficient": YAMABE_COEFFICIENT,
            "heisenberg_horizontal_factor": HEISENBERG_HORIZONTAL_FACTOR,
            "heisenberg_volume_weight": HEISENBERG_VOLUME_WEIGHT,
            "sphere_cs": SPHERE_CS,
            "sphere_kappa": SPHERE_KAPPA,
            "c_stab": C_STAB,
            "cg_tol": CG_TOL,
            "blowup_threshold": BLOWUP_THRESHOLD,
            "plateau_window": PLATEAU_WINDOW,
            "plateau_tol": PLATEAU_TOL,
            **dataclasses.asdict(self),
        }

    def replace(self, **overrides) -> "ConventionLedger":
        fixed = sorted(set(overrides) - set(dataclasses.asdict(self)))
        if fixed:
            raise ValueError(f"only flow_sign and cg_max_iter may be set, not {fixed}")
        return dataclasses.replace(self, **overrides)


DEFAULT_LEDGER = ConventionLedger()
