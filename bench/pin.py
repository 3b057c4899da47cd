#!/usr/bin/env python3
"""Rewrite pinned_digests.json from the current program.

    python3 bench/pin.py

Runs ``run.MAX_PASSES`` passes of every workload at the default seed and
pins the report digest of each instance.  Run it only when a change is
meant to alter reports; every operation must still exit 0 with a valid,
passing report.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import DEFAULT_SEED, HERE, MAX_PASSES, PINS, Runner
from workloads import WORKLOADS


def main() -> int:
    pins = {}
    for name in WORKLOADS:
        workdir = os.path.join(HERE, "_work", f"pin-{name}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            runner = Runner(name, DEFAULT_SEED, False, workdir, {}, False)
            pins[name] = {}
            for index in range(MAX_PASSES):
                ops, _ = runner.setup(index)
                for op, (_, digest) in zip(ops, runner.run_ops(ops, f"p{index}")):
                    pins[name][op.instance] = digest
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if runner.failures:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        print(f"{name}: {len(pins[name])} digests")
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
