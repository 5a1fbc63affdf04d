"""Acceptance gate: eleven structure-preservation criteria, and every
other entry of the invariant registry.

Each criterion runs the entries of the invariant registry
(``crflow.invariants``) that it covers, prints a single machine-readable
``[PASS]``/``[FAIL]`` line (to the real stdout, so it survives capture)
and then asserts.  A last test runs the entries no criterion covers and
fails if any registry entry is named by no test here, so every entry
runs in the test suite.  The registry works at reference scale: 32x32
sector, 64-cell sphere, 16x16x32 lattice.  All expected values are either
closed forms checked against the independent oracles in tests/oracles/
or structural identities; no tolerance there is looser than the contract
it verifies.
"""

from crflow.invariants import REGISTRY, evaluate

ENTRIES = {f"{module}: {name}": fn for module, name, fn in REGISTRY}
REPORT_LINES: list = []


def report(number: int, title: str, *entries: str) -> None:
    results = [(entry, *evaluate(ENTRIES[entry])) for entry in entries]
    ok = all(passed for _, passed, _ in results)
    detail = "; ".join(
        f"{entry}{'' if passed else ' FAILED'} — {text}"
        for entry, passed, text in results
    )
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {title} — {detail}"
    REPORT_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def test_criterion_01_volume_conservation():
    report(1, "volume conservation", "flow: volume-conservation")


def test_criterion_02_energy_dissipation():
    report(2, "energy dissipation", "flow: energy-monotone")


def test_criterion_03_gradient_identity():
    report(3, "gradient identity", "flow: gradient-consistency")


def test_criterion_04_operator_structure():
    report(
        4,
        "operator structure",
        "operators: self-adjointness",
        "operators: constants-annihilated",
        "operators: mean-zero-image",
    )


def test_criterion_05_conformal_covariance():
    report(5, "conformal covariance", "operators: conformal-covariance")


def test_criterion_06_fixed_points_and_scale_invariance():
    report(
        6,
        "fixed points and scale invariance",
        "flow: fixed-points",
        "flow: shift-invariance",
    )


def test_criterion_07_sphere_calibration():
    report(
        7,
        "sphere calibration",
        "operators: calibration",
        "operators: constants-annihilated",
    )


def test_criterion_08_inversion_suite():
    report(
        8,
        "inversion suite",
        "inversion: pullback-identity",
        "inversion: w-reciprocal",
        "inversion: double-inversion",
        "inversion: orientation",
        "inversion: sphere-swap",
    )


def test_criterion_09_blowup_taxonomy():
    report(9, "blow-up taxonomy", "flow: blowup-taxonomy")


def test_criterion_10_sector_closure():
    report(10, "sector closure", "flow: sector-closure")


def test_criterion_11_determinism():
    report(11, "determinism", "cli: determinism")


def test_every_registry_entry_runs_here():
    report(
        12,
        "the remaining entries",
        "manifold: quadrature-linearity",
        "manifold: twisted-periodicity",
        "manifold: sphere-measure",
        "operators: positivity",
        "flow: imex-modes",
        "flow: bondi-reported",
        "cli: self-description",
    )
    # an entry counts as named when a test here passes its name to report
    named = {
        const
        for name, fn in globals().items()
        if name.startswith("test_")
        for const in fn.__code__.co_consts
        if const in ENTRIES
    }
    missing = sorted(set(ENTRIES) - named)
    assert not missing, f"entries no test runs: {missing}"
