#!/usr/bin/env python3
"""Sweep the fast kernels against the naive oracles over a size grid, the
hyperedge index against the naive membership test ``has_triple``, the
tuple audit's per-chain verdict (``cell_chain_passes``) against
``eta_psi_check`` with the naive kernels, and the tuple audit itself,
exhaustive and sampled, against a literal walk over the tuples.

Usage: python scripts/oracle_sweep.py [--max-size 10] [--cases 200] [--seed 7]
"""

import argparse
import sys
import time
from fractions import Fraction
from itertools import combinations, product
from math import prod

from regulab.generators import (
    SplitMix64,
    random_bipartite,
    random_chain,
    random_cylinder_chain_partition,
    random_partite_3graph,
)
from regulab.partitions import (
    cell_chain_passes,
    cylinder_quasirandomness_audit,
    extract_cell_chain,
)
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
AUDIT_SAMPLES = 30


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
        for i, j, k in combinations(range(vs.t), 3):
            pps = (ep.pair(i, j), ep.pair(i, k), ep.pair(j, k))
            masks = (cyl.masks[i], cyl.masks[j], cyl.masks[k])
            for combo in product(*(range(pp.cell_count) for pp in pps)):
                cells = tuple(pp.cells[idx] for pp, idx in zip(pps, combo))
                chain = extract_cell_chain(h, masks, (i, j, k), cells)
                for eta, psi in THRESHOLDS:
                    verdict = cell_chain_passes(h, cyl, ep, (i, j, k), combo, eta, psi)
                    bad += verdict != eta_psi_check(chain, eta, psi, mode="naive")
    return bad


def literal_audit(h, p, eta, psi, cap, samples, seed) -> Fraction:
    """Good tuple mass by the definition: every tuple (above ``cap``, the
    audit's seeded draws), its cylinder by ``lookup``, and eta_psi_check
    (naive) on the cell chain of each part triple that holds its edges.  An
    empty product has mass 1, as in the audit."""
    vs = h.vertex_set
    space = prod(vs.sizes)
    if space == 0:
        return Fraction(1)
    if space <= cap:
        tuples = list(product(*(range(s) for s in vs.sizes)))
    else:
        rng = SplitMix64(seed)
        tuples = [tuple(rng.below(s) for s in vs.sizes) for _ in range(samples)]
    good = 0
    for locals_ in tuples:
        c = p.vertex.lookup(locals_)
        cyl, ep = p.vertex.cylinders[c], p.edges[c]
        ok = True
        for i, j, k in combinations(range(vs.t), 3):
            cells = tuple(
                next(cell for cell in ep.pair(a, b).cells if cell[locals_[a]] >> locals_[b] & 1)
                for a, b in ((i, j), (i, k), (j, k))
            )
            masks = (cyl.masks[i], cyl.masks[j], cyl.masks[k])
            chain = extract_cell_chain(h, masks, (i, j, k), cells)
            if not eta_psi_check(chain, eta, psi, mode="naive"):
                ok = False
                break
        good += ok
    return Fraction(good, len(tuples))


def audits_match(h, p, seed) -> int:
    """Exhaustive and sampled tuple audits of ``p`` that differ from the
    literal walk, over both (eta, psi) pairs."""
    space = prod(h.vertex_set.sizes)
    bad = 0
    for eta, psi in THRESHOLDS:
        for cap in (space, space - 1):
            audit = cylinder_quasirandomness_audit(h, p, eta, psi, cap, AUDIT_SAMPLES, seed)
            bad += audit.degenerate_mass != 0
            bad += audit.good_mass != literal_audit(h, p, eta, psi, cap, AUDIT_SAMPLES, seed)
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
            bad = audits_match(h, p, case)
            if bad:
                mismatches += 1
                print(f"{bad} tuple-audit mismatches at case {case}: {sizes}")
    dt = time.monotonic() - t0
    chains = (args.cases + 3) // 4
    indexes = (args.cases + 1) // 4
    print(
        f"{args.cases} pair cases + {chains} chain cases"
        f" + {indexes} index, verdict and audit cases"
        f" in {dt:.1f}s"
    )
    if mismatches:
        print(f"{mismatches} mismatches")
        return 1
    print(
        "all kernels, the hyperedge index, the cell-chain verdicts and the tuple audit"
        " match their oracles"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
