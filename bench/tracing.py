"""Outside-in spans and work counters around regulab's public layer functions.

``Tracer.install`` rebinds each traced function in every loaded
``regulab.*`` module that holds it.  ``engines`` and ``cli`` import these
functions by name, so wrapping only the defining module would miss their
calls.  Private helpers are not wrapped: ``_useful_chains`` shows up as
self time of ``hyper_cylinder_regularity`` and ``_witness_split`` as self
time of ``dlr_cylinder_regularity``.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

LAYERS = {
    "cli": ("run",),
    "core": (
        "load_three_graph",
        "load_partite_3graph",
        "load_graph",
        "partite_from_three_graph",
        "triangle_count",
    ),
    "quasirandom": (
        "chain_quasirandomness",
        "masked_pair_quasirandomness",
        "pair_quasirandomness",
    ),
    "partitions": (
        "extract_cell_chain",
        "cylinder_quasirandomness_audit",
        "q_partition",
        "venn_diagram",
        "homogeneity_audit",
    ),
    "engines": (
        "homogeneous_decomposition",
        "graph_homogeneous_decomposition",
        "hyper_cylinder_regularity",
        "dlr_cylinder_regularity",
        "szemeredi_multi",
        "one_cylinder_refine",
    ),
    "report": ("save_report",),
}

# Engines whose return value ends with an IterationTrace.
STEPPED = (
    "homogeneous_decomposition",
    "graph_homogeneous_decomposition",
    "hyper_cylinder_regularity",
    "dlr_cylinder_regularity",
    "szemeredi_multi",
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
COUNTER_UNITS = {
    "partitions.extract_cell_chain.repeat_ratio": "ratio",
    "partitions.cylinder_quasirandomness_audit.tuples": "count",
    "partitions.cylinder_quasirandomness_audit.sampled": "count",
    "quasirandom.chain_quasirandomness.volume": "count",
    **{f"engines.{fn}.steps": "count" for fn in STEPPED},
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Spans (op, name, start, end, parent) and counters, kept in memory.

    ``op`` indexes ``ops``, the labels passed to ``begin_op``.
    """

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.ops: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.counts = dict.fromkeys(COUNTER_UNITS, 0)
        self._chain_calls = 0
        self._chain_distinct = 0
        self._chain_keys: set = set()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import regulab

        modules = [m for n, m in sys.modules.items() if n == "regulab" or n.startswith("regulab.")]
        for mod_name, fns in LAYERS.items():
            home = getattr(regulab, mod_name)
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def begin_op(self, label: str) -> None:
        self.ops.append(label)
        self._chain_distinct += len(self._chain_keys)
        self._chain_keys.clear()

    # -- spans and counters -------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = self._counter_for(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (len(self.ops) - 1, name, start, end, parent)
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def _counter_for(self, name):
        counts = self.counts
        fn = name.split(".", 1)[1]
        if fn in STEPPED:
            key = f"{name}.steps"

            def steps(args, kwargs, result):
                counts[key] += len(result[-1].rows)

            return steps
        if name == "partitions.extract_cell_chain":

            def chains(args, kwargs, result):
                h = _arg(args, kwargs, 0, "h")
                masks = _arg(args, kwargs, 1, "masks")
                parts = _arg(args, kwargs, 2, "parts")
                cells = _arg(args, kwargs, 3, "cells")
                self._chain_calls += 1
                self._chain_keys.add((h, tuple(masks), tuple(parts), tuple(map(tuple, cells))))

            return chains
        if name == "partitions.cylinder_quasirandomness_audit":

            def audit(args, kwargs, result):
                if result.mode == "sampled":
                    counts["partitions.cylinder_quasirandomness_audit.sampled"] += 1
                    walked = result.samples
                else:
                    walked = math.prod(_arg(args, kwargs, 0, "h").vertex_set.sizes)
                counts["partitions.cylinder_quasirandomness_audit.tuples"] += walked

            return audit
        if name == "quasirandom.chain_quasirandomness":

            def volume(args, kwargs, result):
                counts["quasirandom.chain_quasirandomness.volume"] += math.prod(
                    _arg(args, kwargs, 0, "c").vertex_set.sizes
                )

            return volume
        return None

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Calls and self time per traced function, then the counters.

        Self time is a span's duration minus what its child spans cover;
        spans nest strictly in one thread, so children never overlap.
        """
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for (_, name, start, end, _), cov in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] += end - start - cov
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        counts = dict(self.counts)
        distinct = self._chain_distinct + len(self._chain_keys)
        counts["partitions.extract_cell_chain.repeat_ratio"] = (
            self._chain_calls / distinct if distinct else 0.0
        )
        for name, unit in COUNTER_UNITS.items():
            out[name] = (counts[name], unit)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"ops": self.ops}) + "\n")
            for op, name, start, end, parent in self.spans:
                fh.write(json.dumps([op, name, start, end, parent]) + "\n")
