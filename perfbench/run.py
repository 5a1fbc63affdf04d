"""crflow benchmark: simulated flow time per wall second at a fixed accuracy.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each sample is one fresh process running
``crflow run`` on the workload's configuration (``launch.py``), and each
sample's artifacts pass the correctness gate of ``workloads.py``.  After one
untimed warm-up sample, samples repeat for about ``--seconds``.

Inputs come from ``--seed``: with ``--trace 0`` the samples cycle through
the eight initial-data seeds 3-10 in an order shuffled by ``--seed``, in
whole cycles, so every run times the same mix; with
``--trace 1`` they all use data seed ``3 + seed mod 8``, so the counts
repeat exactly.  ``--data-seed`` pins
every sample to one of those data seeds.  Every sample is checked against
the committed reference of ``references.json``.

``--trace 0`` reports the end-to-end metrics, with each sample followed by
a calibration process whose wall time scales that sample's times to
reference speed; ``--trace 1`` alternates
untraced and traced samples and reports the per-layer metrics from the
traced ones, plus the tracing overhead.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only if every sample passed the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from tracer import SOLVE_SPAN, SPAN_NAMES, summarize
from workloads import (
    DATA_SEEDS, HERE, WORKLOADS, Workload, check_run, stored_reference,
)

ROOT = os.path.dirname(HERE)
LAUNCH = os.path.join(HERE, "launch.py")

MIN_CYCLES = 2
# The calibration process: a fresh interpreter that imports numpy and runs
# a fixed array-and-loop kernel.  Its wall time tracks the machine's speed
# at the moment, which on a shared host drifts by up to 2x over minutes.
CALIBRATION = """\
import numpy as np
a = np.random.default_rng(0).standard_normal((128, 128))
for _ in range(200):
    b = np.roll(a, 1, axis=0) - np.roll(a, -1, axis=1)
    float(np.exp(-0.1 * b * b).sum())
x = 0
for i in range(100000):
    x += i * i
"""
CALIBRATION_REF_S = 0.2  # the calibration's wall time at reference speed
SAMPLE_TIMEOUT = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "flow_time_per_s": "flow-time/s",
             "peak_rss_mb": "MiB", "success_frac": "ratio"}
HIGHER_BETTER = {"flow_time_per_s", "success_frac"}
LAYER_UNITS = {".self_s": "s", ".calls_per_step": "calls/step",
               ".matvecs_per_solve": "matvecs/solve", "_frac": "ratio",
               ".steps": "count", "_bytes": "bytes"}
PER_STEP_SPANS = ("manifold.shift", "operators.div_form",
                  "operators.webster_core", "flow.rhs")


@dataclass
class Sample:
    traced: bool
    wall: float
    setup: float | None
    rss_mb: float
    failures: list
    report: dict
    layers: dict | None = None
    calibration: float | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    return env


def run_sample(config: dict, workdir: str, traced: bool = False) -> tuple:
    """Run one ``crflow run`` process on ``config`` inside ``workdir``.
    Returns ``(Sample, outdir)``; the sample is not yet gated."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cfg_path = os.path.join(workdir, "config.json")
    stamp = os.path.join(workdir, "stamp.json")
    spans = os.path.join(workdir, "spans.json")
    outdir = os.path.join(workdir, "out")
    with open(cfg_path, "w", encoding="ascii") as fh:
        json.dump(config, fh)
    argv = [sys.executable, LAUNCH, stamp]
    if traced:
        argv += ["--trace", spans]
    argv += ["run", cfg_path, "--output-dir", outdir]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.path.join(workdir, "stdout"), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.path.join(workdir, "stderr"), flags, 0o644),
    ]
    env = child_env()
    start = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    watchdog = threading.Timer(SAMPLE_TIMEOUT, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    reaped = False
    try:
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        watchdog.cancel()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    wall = time.monotonic() - start

    failures = []
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        failures.append(f"exit code {code}")
    with open(os.path.join(workdir, "stderr"), encoding="utf-8",
              errors="replace") as fh:
        err = fh.read()
    if "Traceback" in err:
        failures.append("traceback on stderr: " + err.strip().splitlines()[-1])
    setup = None
    try:
        with open(stamp, encoding="ascii") as fh:
            entered = json.load(fh)["run_entered"]
        setup = entered - start if entered is not None else None
    except (OSError, ValueError, KeyError):
        pass
    if setup is None:
        failures.append("crflow.flow.run was never entered")
    sample = Sample(traced=traced, wall=wall, setup=setup,
                    rss_mb=usage.ru_maxrss / 1024.0, failures=failures, report={})
    if traced and not failures:
        with open(spans, encoding="ascii") as fh:
            sample.layers = summarize(json.load(fh))
    return sample, outdir


def calibrate() -> float:
    """Wall time of one calibration process (see ``CALIBRATION``)."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", CALIBRATION], env=child_env(),
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   check=True, timeout=SAMPLE_TIMEOUT)
    return time.monotonic() - start


def artifact_bytes(outdir: str) -> int:
    """Bytes the run wrote, less the ``meta.json`` values that vary from
    run to run (the output path, given and resolved, and the wall time)."""
    total = sum(os.path.getsize(os.path.join(d, f))
                for d, _, files in os.walk(outdir) for f in files)
    with open(os.path.join(outdir, "meta.json"), encoding="ascii") as fh:
        meta = json.load(fh)
    varying = [meta.get("config", {}).get("output_dir"),
               meta.get("resolved", {}).get("output_dir"),
               meta.get("wall_time_seconds")]
    return total - sum(len(json.dumps(v)) for v in varying if v is not None)


def measure(workload: Workload, config: dict, reference: float | None,
            flow_time: float, workdir: str, traced: bool) -> Sample:
    """One gated sample."""
    sample, outdir = run_sample(config, workdir, traced)
    if not sample.failures:
        sample.failures, sample.report = check_run(workload, outdir,
                                                   flow_time, reference)
    if traced and not sample.failures:
        sample.layers["artifact_bytes"] = artifact_bytes(outdir)
    return sample


def build_reference(workload: Workload, data_seed: int, workdir: str,
                    steps: int | None = None) -> float:
    """Final energy of the workload's reference run (see
    ``Workload.reference_config``)."""
    config = workload.reference_config(data_seed, steps)
    sample = measure(workload, config, None, config["max_time"], workdir, False)
    if sample.failures:
        raise RuntimeError(f"reference run of {workload.name} failed: "
                           + "; ".join(sample.failures))
    return sample.report["final_energy"]


# ---------------------------------------------------------------------------
# metrics


def tail(values: list, higher_better: bool):
    """The percentile towards the bad end that has ten samples beyond it,
    as ``(percentile, value)``; None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    value = sorted(values, reverse=higher_better)[k - 1]
    pct = 100.0 * k / n
    return (100.0 - pct if higher_better else pct), value


def end_to_end(samples: list) -> dict:
    """Per end-to-end metric, its values over the samples that passed.
    Times are scaled to reference speed: each sample's by
    ``CALIBRATION_REF_S`` over the mean of the calibrations run right
    before and right after it."""
    good = [s for s in samples if not s.failures]
    scale = [CALIBRATION_REF_S / s.calibration for s in good]
    return {
        "wall_s": [s.wall * k for s, k in zip(good, scale)],
        "setup_s": [s.setup * k for s, k in zip(good, scale)],
        "flow_time_per_s": [s.report["final_time"] / ((s.wall - s.setup) * k)
                            for s, k in zip(good, scale)],
        "peak_rss_mb": [s.rss_mb for s in good],
    }


def layer_metrics(sample: Sample) -> dict:
    """Per-layer metrics of one traced sample."""
    lay = sample.layers
    spans, steps = lay["spans"], lay["steps"]
    out = {f"{n}.self_s": spans[n]["self_s"] for n in SPAN_NAMES}
    for n in PER_STEP_SPANS:
        out[f"{n}.calls_per_step"] = spans[n]["calls_in_step"] / steps if steps else 0.0
    solves = spans[SOLVE_SPAN]
    calls = solves["calls"]
    out[f"{SOLVE_SPAN}.matvecs_per_solve"] = lay["matvecs"] / calls if calls else 0.0
    out[f"{SOLVE_SPAN}.failed_frac"] = solves["failed"] / calls if calls else 0.0
    out["flow.steps"] = steps
    out["cli.artifact_bytes"] = lay["artifact_bytes"]
    return out


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def evaluate(workload: Workload, samples: list, trace: bool) -> tuple:
    """Metrics and failures of one run's samples: ``(metrics, failures,
    lines)`` with the human-readable lines to print."""
    failures = [f for s in samples for f in s.failures]
    lines = []
    if not trace:
        metrics = {}
        for name, values in end_to_end(samples).items():
            if not values:
                continue
            med = statistics.median(values)
            metrics[name] = med
            t = tail(values, name in HIGHER_BETTER)
            extra = (f"p{t[0]:.0f} {_fmt(t[1])} (10 beyond)" if t
                     else "no percentile with 10 beyond")
            lines.append(f"{name:18s} median {_fmt(med)} {E2E_UNITS[name]}  "
                         f"{extra}  n={len(values)}")
        good = [s for s in samples if not s.failures]
        if good:
            lines.append(
                "unscaled medians: wall "
                f"{_fmt(statistics.median(s.wall for s in good))} s, setup "
                f"{_fmt(statistics.median(s.setup for s in good))} s, "
                "calibration "
                f"{_fmt(statistics.median(s.calibration for s in good))} s")
        return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, failures, lines

    traced = [s for s in samples if s.traced and not s.failures]
    untraced = [s for s in samples if not s.traced and not s.failures]
    per_sample = [layer_metrics(s) for s in traced]
    metrics = {}
    if per_sample:
        for name in per_sample[0]:
            metrics[name] = statistics.median(m[name] for m in per_sample)
        counts = {json.dumps({k: v for k, v in m.items()
                              if not k.endswith(".self_s")}, sort_keys=True)
                  for m in per_sample}
        if len(counts) > 1:
            failures.append("exact counts differ between traced samples")
        for span in workload.must_fire:
            if traced[0].layers["spans"][span]["calls"] == 0:
                failures.append(f"span {span} never fired")
    if traced and untraced:
        metrics["trace.overhead_frac"] = (
            statistics.median(s.wall for s in traced)
            / statistics.median(s.wall for s in untraced) - 1.0)
    for name, value in metrics.items():
        lines.append(f"{name:42s} {_fmt(value)} {layer_unit(name)}")
    lines.append(f"traced samples n={len(traced)}, untraced n={len(untraced)}")
    return {k: (v, layer_unit(k)) for k, v in metrics.items()}, failures, lines


def run_workload(workload: Workload, data_seeds: list, seconds: float,
                 trace: bool, workdir: str, references: dict,
                 steps: int | None = None) -> dict:
    """Sample ``workload`` for about ``seconds`` and return the result
    object; prints the human-readable lines.  Samples go in whole cycles
    through the data seeds (one untraced and one traced sample per seed
    when tracing), so every run times the same mix of inputs; a further
    cycle starts only if it is predicted to end within ``seconds``.  The
    first failing sample ends the run."""
    runs = [(workload.config(s, steps), references[s]) for s in data_seeds]
    flow_time = runs[0][0]["max_time"]
    kinds = [False, True] if trace else [False]
    warmup = measure(workload, *runs[0], flow_time, workdir, False)
    before = None if trace else calibrate()
    samples = []

    def cycle() -> bool:
        nonlocal before
        for config, reference in runs:
            for traced in kinds:
                samples.append(measure(workload, config, reference, flow_time,
                                       workdir, traced))
                if samples[-1].failures:
                    return False
                if not trace:
                    after = calibrate()
                    samples[-1].calibration = (before + after) / 2
                    before = after
        return True

    cycles = 0
    start = time.monotonic()
    while not warmup.failures and cycle():
        cycles += 1
        elapsed = time.monotonic() - start
        if cycles >= MIN_CYCLES and elapsed * (cycles + 1) / cycles > seconds:
            break
    metrics, failures, lines = evaluate(workload, samples, trace)
    failures += warmup.failures
    attempted = len(samples) + 1
    failed = sum(bool(s.failures) for s in [warmup] + samples)
    if not trace:
        metrics["success_frac"] = ((attempted - failed) / attempted, "ratio")
        lines.append(f"{'failed_frac':18s} {failed}/{attempted} = "
                     f"{failed / attempted:.6g} ratio (warm-up included)")
    reports = [s.report for s in samples if "energy_error" in s.report]
    if workload.volume_rtol is None and reports:
        lines.append(
            "reported, not gated (worst sample): volume drift "
            f"{max(r['volume_drift'] for r in reports):.3e}, energy rises "
            f"{max(r['energy_rises'] for r in reports)}, energy error vs RK4 "
            f"{max(r['energy_error'] for r in reports):.3e}")
    for line in lines:
        print(line)
    for f in sorted(set(failures)):
        print(f"FAILED: {f}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def machine_facts() -> str:
    try:
        import numpy
        np_version = numpy.__version__
    except ImportError:
        np_version = "missing"
    threads = " ".join(f"{v}={child_env()[v]}" for v in THREAD_VARS)
    return (f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np_version} {threads}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-seed", type=int, default=None, choices=DATA_SEEDS,
                        help="use this one initial-data seed for every sample")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "crflow", "cli.py")):
        print(f"error: no crflow sources under {ROOT}/src", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        references = {s: stored_reference(workload, s) for s in DATA_SEEDS}
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.data_seed is not None:
        data_seeds = [args.data_seed]
    elif args.trace:  # one input, so that the counts repeat exactly
        data_seeds = [DATA_SEEDS[args.seed % len(DATA_SEEDS)]]
    else:
        data_seeds = list(DATA_SEEDS)
        random.Random(args.seed).shuffle(data_seeds)
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    try:
        print(machine_facts())
        print(f"workload {workload.name}: flow time {workload.flow_time!r}, "
              f"data seeds {data_seeds}")
        result = run_workload(workload, data_seeds, args.seconds,
                              bool(args.trace), workdir, references)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
