#!/usr/bin/env python3
"""Sweep the fast kernels against the naive oracles over a size grid, the
hyperedge index against the naive membership test ``has_triple``, and the
tuple audit's per-chain verdict (``cells_quasirandom`` plus the chain
certificate <= eta) against ``eta_psi_check`` with the naive kernels.

Usage: python scripts/oracle_sweep.py [--max-size 10] [--cases 200] [--seed 7]
"""

import argparse
import sys
import time
from fractions import Fraction
from itertools import combinations, product

from regulab.generators import (
    SplitMix64,
    random_bipartite,
    random_chain,
    random_cylinder_chain_partition,
    random_partite_3graph,
)
from regulab.partitions import cell_chain_stats, cells_quasirandom, extract_cell_chain
from regulab.quasirandom import (
    PolyFunction,
    chain_quasirandomness,
    eta_psi_check,
    pair_quasirandomness,
)

THRESHOLDS = (
    (Fraction(1, 4), PolyFunction(Fraction(1), 1)),
    (Fraction(1, 64), PolyFunction(Fraction(1, 2), 2)),
)


def index_matches(h) -> bool:
    """Every z-mask of the hyperedge index equals a has_triple scan."""
    vs = h.vertex_set
    off = vs.offsets
    for i, j, k in combinations(range(vs.t), 3):
        zm = h.zmasks(i, j, k)
        for x in range(vs.sizes[i]):
            for y in range(vs.sizes[j]):
                want = sum(
                    1 << z
                    for z in range(vs.sizes[k])
                    if h.has_triple(off[i] + x, off[j] + y, off[k] + z)
                )
                if zm.get((x, y), 0) != want:
                    return False
    return True


def verdicts_match(h, p) -> int:
    """Cell chains of ``p`` whose verdict differs from eta_psi_check (naive)."""
    vs = h.vertex_set
    bad = 0
    for cyl, ep in zip(p.vertex.cylinders, p.edges):
        if cyl.is_empty():
            # No tuple lies in it, and eta_psi_check has no density to read.
            continue
        for i, j, k in combinations(range(vs.t), 3):
            pps = (ep.pair(i, j), ep.pair(i, k), ep.pair(j, k))
            masks = (cyl.masks[i], cyl.masks[j], cyl.masks[k])
            for combo in product(*(range(pp.cell_count) for pp in pps)):
                cells = tuple(pp.cells[idx] for pp, idx in zip(pps, combo))
                chain = extract_cell_chain(h, masks, (i, j, k), cells)
                chain_cert = cell_chain_stats(h, masks, (i, j, k), cells)[2]
                for eta, psi in THRESHOLDS:
                    verdict = cells_quasirandom(pps, combo, psi) and chain_cert <= eta
                    bad += verdict != eta_psi_check(chain, eta, psi, mode="naive")
    return bad


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-size", type=int, default=10)
    ap.add_argument("--cases", type=int, default=200)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    rng = SplitMix64(args.seed)
    t0 = time.monotonic()
    mismatches = 0
    for case in range(args.cases):
        na = 1 + rng.below(args.max_size)
        nb = 1 + rng.below(args.max_size)
        g = random_bipartite(na, nb, Fraction(1, 2), seed=rng.next_u64())
        fast = pair_quasirandomness(g, mode="fast")
        naive = pair_quasirandomness(g, mode="naive")
        if (fast.raw_sum, fast.value) != (naive.raw_sum, naive.value):
            mismatches += 1
            print(f"pair mismatch at case {case}: {na}x{nb}")
        if case % 4 == 0:
            sizes = tuple(1 + rng.below(min(args.max_size, 6)) for _ in range(3))
            c = random_chain(sizes, Fraction(2, 3), Fraction(1, 2), seed=rng.next_u64())
            cf = chain_quasirandomness(c, mode="fast")
            cn = chain_quasirandomness(c, mode="naive")
            if (cf.raw_sum, cf.value) != (cn.raw_sum, cn.value):
                mismatches += 1
                print(f"chain mismatch at case {case}: {sizes}")
        if case % 4 == 2:
            sizes = tuple(rng.below(min(args.max_size, 5) + 1) for _ in range(3 + rng.below(3)))
            h = random_partite_3graph(sizes, Fraction(1, 2), seed=rng.next_u64())
            if not index_matches(h):
                mismatches += 1
                print(f"index mismatch at case {case}: {sizes}")
            p = random_cylinder_chain_partition(h.vertex_set, 3, 3, seed=rng.next_u64())
            bad = verdicts_match(h, p)
            if bad:
                mismatches += 1
                print(f"{bad} cell-chain verdict mismatches at case {case}: {sizes}")
    dt = time.monotonic() - t0
    chains = (args.cases + 3) // 4
    indexes = (args.cases + 1) // 4
    print(
        f"{args.cases} pair cases + {chains} chain cases + {indexes} index and verdict cases"
        f" in {dt:.1f}s"
    )
    if mismatches:
        print(f"{mismatches} mismatches")
        return 1
    print("all kernels, the hyperedge index and the cell-chain verdicts match their oracles")
    return 0


if __name__ == "__main__":
    sys.exit(main())
