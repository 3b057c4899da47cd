#!/usr/bin/env python3
"""regulab benchmark: seeded CLI workloads, closed loop, one process.

    python3 bench/run.py --workload hyper-cylinder --seed 0 --seconds 45 --trace 0

Run it from the root of a checkout; it imports regulab from ``src/``.  One
operation is outstanding at a time and nothing runs in parallel.  Each
operation is one in-process ``regulab.cli.run(argv)`` call on input files
generated in set-up.  A run repeats passes (see ``workloads.py``), each on
fresh seeded instances, for about ``--seconds`` seconds.

An operation fails when ``regulab.cli.run`` raises, when its exit code is
not 0, when ``regulab.report.validate_report`` rejects its report, when the
report's audit does not pass, or when the SHA-256 of the report's
``audit``, ``trace`` and ``part_counts`` differs from the digest pinned in
``pinned_digests.json``.  Fixed instances are pinned at every seed, seeded
ones at the default seed 0; ``pin.py`` rewrites the pins.

With ``--trace 0`` the last line of standard output carries

- ``wall_s``: mean over passes of the time to finish a pass's operations;
- ``op_max_s``: slowest operation time;
- ``setup_s``: median over passes of a pass's set-up: a fresh import of
  regulab, then generating and writing the pass's input files;
- ``peak_rss_mib``: peak resident set size of the process.

With ``--trace 1`` it runs ``TRACE_PASSES`` passes, each once plain and once
with the functions in ``tracing.LAYERS`` wrapped, and reports their calls,
self times and work counters, plus ``trace.overhead_ratio``: traced over
plain time of the same operations.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

from tracing import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pinned_digests.json")
DEFAULT_SEED = 0
MIN_PASSES = 3
MAX_PASSES = 16
TRACE_PASSES = 2
SETUP_MIN_S = 0.5
DIGEST_FIELDS = ("audit", "trace", "part_counts")


def import_regulab():
    """Import regulab from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "regulab", "cli.py")):
        raise SystemExit(f"error: no regulab sources under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    import regulab.cli
    import regulab.report

    if not os.path.abspath(regulab.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported regulab from {regulab.__file__}, not {src}")
    return regulab.cli, regulab.report


def report_digest(report: dict) -> str:
    body = json.dumps({k: report[k] for k in DIGEST_FIELDS}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def check_report(rc: int, path: str, validate_report,
                 pinned: str | None) -> tuple[str | None, str | None]:
    """(why the operation failed or None, digest of its report or None)."""
    if rc != 0:
        return f"exit code {rc}", None
    try:
        with open(path) as fh:
            report = json.load(fh)
        validate_report(report)
        digest = report_digest(report)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        return f"report rejected: {exc}", None
    if report["audit"].get("passes") is not True:
        return "audit does not pass", digest
    if pinned is not None and digest != pinned:
        return f"digest {digest} differs from pinned {pinned}", digest
    return None, digest


class Runner:
    """Builds passes of one workload and runs their operations."""

    def __init__(self, workload: str, seed: int, tiny: bool, workdir: str,
                 pins: dict[str, str], require_pins: bool):
        self._import()  # untimed: it may compile bytecode
        self.build = WORKLOADS[workload]
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.pins = pins
        self.require_pins = require_pins
        self.failures: list[str] = []
        self.attempted = 0

    def _import(self) -> None:
        for name in [n for n in sys.modules if n == "regulab" or n.startswith("regulab.")]:
            del sys.modules[name]
        self.cli, report = import_regulab()
        self.validate = report.validate_report

    def setup(self, index: int):
        """Set up pass ``index``; return its operations and set-up seconds.

        A set-up imports regulab afresh, as a new process would, and then
        generates and writes the pass's input files.  It is repeated,
        rewriting the same files, until ``SETUP_MIN_S`` is measured, and
        the mean is returned, so that one short set-up does not catch the
        machine in a fast or slow moment.
        """
        reps = 0
        t0 = time.perf_counter()
        while True:
            self._import()
            ops = self.build(self.cli.run, self.workdir, self.seed, index, self.tiny)
            reps += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= SETUP_MIN_S:
                return ops, elapsed / reps

    def run_ops(self, ops, tag: str, tracer: Tracer | None = None):
        """Run and check each operation; return (seconds, digest) per op."""
        out = []
        for k, op in enumerate(ops):
            path = os.path.join(self.workdir, f"{tag}-{k}.json")
            gc.collect()  # start every operation from an empty collector
            if tracer is not None:
                tracer.begin_op(f"{tag}-{k} {op.instance}")
            raised = None
            t0 = time.perf_counter()
            try:
                rc = self.cli.run([*op.argv, "--output", path])
            except KeyboardInterrupt:
                raise
            except BaseException as exc:  # an escaping error fails the operation, not the run
                raised = f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            self.attempted += 1
            pinned = self.pins.get(op.instance)
            if raised is None:
                why, digest = check_report(rc, path, self.validate, pinned)
            else:
                why, digest = raised, None
            if why is None and pinned is None and self.require_pins:
                why = "no pinned digest at the default seed"
            if why is not None:
                self.failures.append(f"{op.instance}: {why}")
            out.append((dt, digest))
        return out


def measure(runner: Runner, seconds: float) -> dict:
    pass_setup, pass_wall, op_times = [], [], []
    t_start = time.perf_counter()
    while len(pass_wall) < MAX_PASSES:
        elapsed = time.perf_counter() - t_start
        if len(pass_wall) >= MIN_PASSES and elapsed * (1 + 1 / len(pass_wall)) > seconds:
            break
        ops, setup_s = runner.setup(len(pass_wall))
        times = [dt for dt, _ in runner.run_ops(ops, f"p{len(pass_wall)}")]
        pass_setup.append(setup_s)
        pass_wall.append(sum(times))
        op_times += times
    print(f"{len(pass_wall)} passes, {len(op_times)} operations; wall_s is the mean pass, "
          f"op_max_s the slowest of the {len(op_times)} operations")
    # The machine's speed drifts by tens of percent over tens of seconds;
    # the mean weighs every stretch of the run by its length, where a median
    # of a few passes jumps between the fast and the slow ones.
    return {
        "wall_s": (statistics.fmean(pass_wall), "s"),
        "op_max_s": (max(op_times), "s"),
        "setup_s": (statistics.median(pass_setup), "s"),
    }


def measure_traced(runner: Runner, spans_path: str) -> dict:
    tracer = Tracer()
    plain = traced = 0.0
    for index in range(TRACE_PASSES):
        ops, _ = runner.setup(index)
        # Alternate the order so neither side always runs first.
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    traced += sum(dt for dt, _ in runner.run_ops(ops, f"t{index}", tracer))
                finally:
                    tracer.uninstall()
            else:
                plain += sum(dt for dt, _ in runner.run_ops(ops, f"u{index}"))
    tracer.write_spans(spans_path)
    print(f"{TRACE_PASSES} passes, each plain and traced; "
          f"{len(tracer.spans)} spans in {os.path.relpath(spans_path, ROOT)}")
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small seeded instances for the self-test; no digests are pinned for them")
    args = ap.parse_args(argv)

    pins = {}
    if not args.tiny:
        with open(PINS) as fh:
            pins = json.load(fh)[args.workload]
    require_pins = args.seed == DEFAULT_SEED and not args.tiny
    work_root = os.path.join(HERE, "_work")
    workdir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    runner = Runner(args.workload, args.seed, args.tiny, workdir, pins, require_pins)
    os.makedirs(workdir)
    try:
        if args.trace:
            spans = os.path.join(work_root, f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics = measure_traced(runner, spans)
        else:
            metrics = measure(runner, args.seconds)
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mib"] = (rss_kib / 1024, "MiB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in runner.failures:
        print(f"FAILED {line}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
