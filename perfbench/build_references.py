"""Rebuild the committed references, ``perfbench/references.json``.

    python3 perfbench/build_references.py

For every workload and every data seed in ``DATA_SEEDS``,
runs the reference configuration once through ``crflow run`` and stores
its final energy.  Rebuild only when a workload's definition changes: the
stored values are what later code is checked against.
"""

from __future__ import annotations

import os
import shutil
import sys

from run import build_reference
from workloads import DATA_SEEDS, HERE, WORKLOADS, store_reference


def main() -> int:
    workdir = os.path.join(HERE, ".work", f"refs-{os.getpid()}")
    try:
        for name in sorted(WORKLOADS):
            workload = WORKLOADS[name]
            for seed in DATA_SEEDS:
                value = build_reference(workload, seed, workdir)
                store_reference(workload, seed, value)
                print(f"{name} data seed {seed}: final energy {value!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
