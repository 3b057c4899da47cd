#!/usr/bin/env python3
"""Sweep the fast kernels against the naive oracles over a size grid, and the
hyperedge index against the naive membership test ``has_triple``.

Usage: python scripts/oracle_sweep.py [--max-size 10] [--cases 200] [--seed 7]
"""

import argparse
import sys
import time
from fractions import Fraction
from itertools import combinations

from regulab.generators import SplitMix64, random_bipartite, random_chain, random_partite_3graph
from regulab.quasirandom import chain_quasirandomness, pair_quasirandomness


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
    dt = time.monotonic() - t0
    chains = (args.cases + 3) // 4
    indexes = (args.cases + 1) // 4
    print(f"{args.cases} pair cases + {chains} chain cases + {indexes} index cases in {dt:.1f}s")
    if mismatches:
        print(f"{mismatches} mismatches")
        return 1
    print("all kernels and the hyperedge index match their oracles")
    return 0


if __name__ == "__main__":
    sys.exit(main())
