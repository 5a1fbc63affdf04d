"""Fixed numerical conventions shared by every module.

All sign and scale choices live in one place so that each cross-model
constant is pinned exactly once.  The conventions are:

* the sublaplacian is *positive*: its quadratic form is >= 0, and on the
  flat group it is -(X^2 + Y^2)/2 for the horizontal frame X, Y;
* the conformally covariant second-order operator is L = 4 * sublap + W
  (dimension-3 coefficient 4);
* the evolution moves *down* the energy gradient: the flow's kernels
  multiply by DESCENT = -1, and no run sets another sign (the blow-up
  probe of ``crflow check`` climbs by its own RK4 on -rhs);
* the reduced-sphere frame constant c_s = 8 and total volume kappa = pi^2
  follow from realizing the round structure as the |w + i|^{-2} rescaling
  of the flat one (derivation: tests/oracles/sphere_reduction.py);
* the background curvature of the sphere kind is *calibrated at runtime*
  (``operators.calibrate_sphere_curvature()``, measured once per process
  and cached), never transcribed;
* no solver tolerance is a convention: every implicit solve is an exact
  spectral division (``operators.shifted_bilap_inverse``).
"""

from __future__ import annotations

import math
import numbers

YAMABE_COEFFICIENT = 4.0              # L = 4 * sublap + W
HEISENBERG_HORIZONTAL_FACTOR = 0.5    # the 1/2 in -(X^2+Y^2)/2
HEISENBERG_VOLUME_WEIGHT = 4.0        # theta ^ dtheta = 4 dx dy dt
SPHERE_CS = 8.0                       # reduced operator -c_s (s(1-s) f')'
SPHERE_KAPPA = math.pi**2             # total volume of the round model
# linearized flat-state stiffness: the rhs linearizes to -(2b^2) sublap^2
C_STAB = 2.0 * YAMABE_COEFFICIENT**2
BLOWUP_THRESHOLD = 20.0               # max |lambda| before declaring blow-up
PLATEAU_WINDOW = 50                   # steps per plateau comparison
PLATEAU_TOL = 1e-10                   # |dE|/E threshold for a plateau
DESCENT = -1.0                        # the flow moves down the gradient


_SHOWN_MAX = 80                       # characters of one value in a message


def _shown(value) -> str:
    """``ascii(value)`` for an error message, bounded to ``_SHOWN_MAX``
    characters, which are bytes too: a longer text keeps its head and
    names its length.  An integer of more than 64 bits, any beyond float
    range included, is named by its size (past 4300 digits ``ascii``
    raises), inside a list, tuple, dict, set or frozenset too."""
    text = _unbounded(value)
    if len(text) > _SHOWN_MAX:
        tail = f"... ({len(text)} characters)"
        text = text[:_SHOWN_MAX - len(tail)] + tail
    return text


def _unbounded(value) -> str:
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        bits = int(value).bit_length()
        if bits > 64:
            return f"an integer of {bits} bits"
    if isinstance(value, (list, tuple)):
        inner = ", ".join(map(_unbounded, value))
        if isinstance(value, list):
            return f"[{inner}]"
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_unbounded(k)}: {_unbounded(v)}"
                               for k, v in value.items()) + "}"
    if isinstance(value, (set, frozenset)) and value:
        inner = "{" + ", ".join(map(_unbounded, value)) + "}"
        return inner if isinstance(value, set) else f"frozenset({inner})"
    return ascii(value)


def conventions_record() -> dict:
    """Every convention a run uses, for its metadata, each once."""
    return {
        "yamabe_coefficient": YAMABE_COEFFICIENT,
        "heisenberg_horizontal_factor": HEISENBERG_HORIZONTAL_FACTOR,
        "heisenberg_volume_weight": HEISENBERG_VOLUME_WEIGHT,
        "sphere_cs": SPHERE_CS,
        "sphere_kappa": SPHERE_KAPPA,
        "c_stab": C_STAB,
        "blowup_threshold": BLOWUP_THRESHOLD,
        "plateau_window": PLATEAU_WINDOW,
        "plateau_tol": PLATEAU_TOL,
        "flow_sign": DESCENT,
    }
