"""Seeded workloads for the regulab benchmark.

A workload is a list of passes.  Building pass ``index`` writes fresh input
files (the set-up) and returns the CLI operations that run on them; every
pass gets its own instances, drawn from ``(workload, seed, index)``, so no
operation in a run sees an input an earlier one already processed, except
the fixed instances named below.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

ETA_PSI = ("--eta", "1/4", "--psi", "1,1")


@dataclass(frozen=True)
class Op:
    """One ``regulab.cli.run`` call.

    ``instance`` names the input for the pinned digests: a seeded instance
    carries its instance seed, a fixed instance only its shape.
    """

    instance: str
    argv: tuple[str, ...]


def _instance_seeds(workload: str, seed: int, index: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}:{index}")
    return [rng.getrandbits(32) for _ in range(count)]


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _generate(cli_run, path: str, *argv: str) -> None:
    rc = cli_run(["generate", *argv, "--out", path])
    if rc != 0:
        raise RuntimeError(f"regulab generate {' '.join(argv)} exited {rc}")


def hyper_cylinder(cli_run, workdir: str, seed: int, index: int, tiny: bool) -> list[Op]:
    """Two criterion-6 instances: random 30x30x30 partite 3-graphs, p = 1/2."""
    size = 6 if tiny else 30
    ops = []
    for j, s in enumerate(_instance_seeds("hyper-cylinder", seed, index, 2)):
        path = os.path.join(workdir, f"p{index}-{j}.h3")
        _generate(cli_run, path, "--kind", "partite3", "--parts", f"{size},{size},{size}",
                  "--p", "1/2", "--seed", str(s))
        ops.append(Op(f"partite3-{size}-s{s}", ("cylinder", "--input", path, *ETA_PSI)))
    return ops


def _cone_base_text() -> str:
    # The two-block base of scripts/decompose_demo.py: its 5/4 cut is
    # misaligned with every equitable 9-partition of the 27-vertex cone.
    lines = ["part A 9", "part B 9"]
    for a in range(9):
        for b in (range(5) if a < 5 else range(5, 9)):
            lines.append(f"e {a} {9 + b}")
    return "\n".join(lines) + "\n"


# Below the cone's 3^9 tuples, so its cylinder audits sample instead of
# enumerating: the engine then accepts on unlabelled Monte Carlo.
CONE_AUDIT_CAP = "10000"


def decompose_3graph(cli_run, workdir: str, seed: int, index: int, tiny: bool) -> list[Op]:
    """Two tournament 3-graphs on 14 vertices, then the misaligned cone:
    audited exhaustively in even passes, with sampled audits in odd ones."""
    n = 9 if tiny else 14
    ops = []
    for j, s in enumerate(_instance_seeds("decompose-3graph", seed, index, 2)):
        path = os.path.join(workdir, f"t{index}-{j}.h3")
        _generate(cli_run, path, "--kind", "tournament", "--n", str(n), "--seed", str(s))
        ops.append(Op(f"tournament-{n}-s{s}", ("decompose", "--input", path, *ETA_PSI)))
    base = os.path.join(workdir, f"cone{index}-base.g")
    cone = os.path.join(workdir, f"cone{index}.h3")
    _write(base, _cone_base_text())
    _generate(cli_run, cone, "--kind", "cone", "--base", base, "--apex", "9")
    if index % 2 == 0:
        ops.append(Op("cone-27-t9", ("decompose", "--input", cone, *ETA_PSI, "--t", "9")))
    else:
        ops.append(Op(f"cone-27-t9-cap{CONE_AUDIT_CAP}",
                      ("decompose", "--input", cone, *ETA_PSI, "--t", "9",
                       "--audit-tuple-cap", CONE_AUDIT_CAP)))
    return ops


def _half_graph_text(k: int) -> str:
    # Half graph on 2 x k vertices (i ~ k + j iff i <= j) as one part, so
    # that decompose takes the graph pipeline.
    lines = [f"part V {2 * k}"]
    lines += [f"e {i} {k + j}" for i in range(k) for j in range(i, k)]
    return "\n".join(lines) + "\n"


def _two_cliques_text(n: int, flips: int, seed: int) -> str:
    # Cliques on [0, n/2) and [n/2, n), then `flips` seeded pair toggles.
    rng = random.Random(seed)
    half = n // 2
    adj = [set(range(half)) if v < half else set(range(half, n)) for v in range(n)]
    for v in range(n):
        adj[v].discard(v)
    for _ in range(flips):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].symmetric_difference_update((v,))
            adj[v].symmetric_difference_update((u,))
    lines = [f"part V {n}"]
    for u in range(n):
        lines += [f"e {u} {v}" for v in sorted(adj[u]) if v > u]
    return "\n".join(lines) + "\n"


def decompose_graph(cli_run, workdir: str, seed: int, index: int, tiny: bool) -> list[Op]:
    """A 2x48 half graph at eps 1/8, then two noisy 800-cliques at eps 1/5."""
    n, flips = (40, 40) if tiny else (1600, 16000)
    half = os.path.join(workdir, f"half{index}.g")
    _write(half, _half_graph_text(48))
    (s,) = _instance_seeds("decompose-graph", seed, index, 1)
    cliques = os.path.join(workdir, f"cliques{index}.g")
    _write(cliques, _two_cliques_text(n, flips, s))
    return [
        Op("half-2x48", ("decompose", "--input", half, "--eps", "1/8")),
        Op(f"cliques-{n}-s{s}", ("decompose", "--input", cliques, "--eps", "1/5")),
    ]


WORKLOADS: dict[str, Callable[..., list[Op]]] = {
    "hyper-cylinder": hyper_cylinder,
    "decompose-3graph": decompose_3graph,
    "decompose-graph": decompose_graph,
}
