"""Outside-in span tracer for one ``crflow run`` process.

The tracer wraps the public and module-level functions of ``manifold``,
``operators``, ``flow`` and ``cli`` from outside the package: it replaces
every binding of each function in every loaded ``crflow`` module (so both
``crflow.operators._div_form_values`` and the copy ``crflow.flow`` imported
by name are traced), and ``ModelGeometry.shift`` on the class.  The
solver's ``operator`` argument is wrapped to count matrix-vector products.

Spans are ``[name, start, end, parent, failed]`` rows kept in memory and
written once, with the process's run id, when the run ends.
``summarize`` turns them into self times and call counts.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (span name, module, attribute) of every traced function.
TARGETS = (
    ("manifold.build_geometry", "crflow.manifold", "build_geometry"),
    ("manifold.initial_data", "crflow.manifold", "initial_data"),
    ("operators.div_form", "crflow.operators", "_div_form_values"),
    ("operators.webster_core", "crflow.operators", "_webster_core"),
    ("operators.linear_solve", "crflow.operators", "linear_solve"),
    ("operators.calibrate", "crflow.operators", "calibrate_sphere_curvature"),
    ("flow.rhs", "crflow.flow", "_rhs_values"),
    ("flow.make_state", "crflow.flow", "make_state"),
    ("flow.step", "crflow.flow", "step_explicit"),
    ("flow.step", "crflow.flow", "step_imex"),
    ("flow.run", "crflow.flow", "run"),
    ("cli.cmd_run", "crflow.cli", "cmd_run"),
    ("cli.write_diagnostics", "crflow.cli", "_write_diagnostics"),
    ("cli.write_snapshots", "crflow.cli", "_write_snapshots"),
    ("cli.dump_json", "crflow.cli", "_dump_json"),
)
SHIFT_SPAN = "manifold.shift"
SOLVE_SPAN = "operators.linear_solve"
STEP_SPAN = "flow.step"
SPAN_NAMES = tuple(dict.fromkeys([SHIFT_SPAN] + [t[0] for t in TARGETS]))


class Tracer:
    def __init__(self) -> None:
        self.run_id = f"{os.getpid()}-{time.time_ns()}"
        self.spans: list = []
        self.matvecs = 0
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(row)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                row[4] = True
                raise
            finally:
                stack.pop()
                row[2] = clock()

        return traced

    def _counting_solve(self, solve):
        @functools.wraps(solve)
        def counted_solve(operator, *args, **kwargs):
            def counted(v):
                self.matvecs += 1
                return operator(v)

            return solve(counted, *args, **kwargs)

        return counted_solve

    def install(self) -> None:
        """Wrap every target; call after importing ``crflow.cli``."""
        from crflow.manifold import ModelGeometry

        ModelGeometry.shift = self.wrap(SHIFT_SPAN, ModelGeometry.shift)
        modules = [m for k, m in sys.modules.items()
                   if k == "crflow" or k.startswith("crflow.")]
        for name, module, attr in TARGETS:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original)
            if name == SOLVE_SPAN:
                wrapper = self._counting_solve(wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counters": {"matvecs": self.matvecs}}, fh)


def summarize(trace: dict) -> dict:
    """Per span name: calls, calls inside ``flow.step`` spans, failed
    calls and self time (duration minus the time its child spans cover);
    plus the step count and the solver's matrix-vector products."""
    spans = trace["spans"]
    stats = {n: {"calls": 0, "calls_in_step": 0, "failed": 0, "self_s": 0.0}
             for n in SPAN_NAMES}
    child_time = [0.0] * len(spans)
    in_step = [False] * len(spans)
    for i, (name, start, end, parent, failed) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            in_step[i] = in_step[parent] or spans[parent][0] == STEP_SPAN
    for i, (name, start, end, parent, failed) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["calls_in_step"] += in_step[i]
        s["failed"] += failed
        s["self_s"] += (end - start) - child_time[i]
    return {"spans": stats, "steps": stats[STEP_SPAN]["calls"],
            "matvecs": trace["counters"]["matvecs"]}
