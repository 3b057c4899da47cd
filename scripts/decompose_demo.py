#!/usr/bin/env python3
"""Walk a cone hypergraph through the full decomposition pipeline.

Builds a cone over a two-block bipartite graph whose 5/4 block cut is
misaligned with every equitable 9-partition, runs the decomposition,
and prints the trace plus the final audit.
"""

import argparse
import sys
import time
from fractions import Fraction

from regulab.core import BipartiteGraph
from regulab.engines import ConstantsProfile, homogeneous_decomposition
from regulab.generators import cone_hypergraph
from regulab.quasirandom import PolyFunction


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eta", default="1/4")
    ap.add_argument("--t", type=int, default=9)
    args = ap.parse_args()
    eta = Fraction(args.eta)

    rows = tuple(0b000011111 if a < 5 else 0b111100000 for a in range(9))
    h = cone_hypergraph(BipartiteGraph(9, 9, rows), 9).to_three_graph()

    psi = PolyFunction(Fraction(1), 1)
    prof = ConstantsProfile.desk()
    t0 = time.monotonic()
    q, audit, trace = homogeneous_decomposition(h, eta, psi, prof, t=args.t)
    dt = time.monotonic() - t0

    print(f"decomposed 27-vertex cone in {dt:.1f}s, {q.part_count} parts")
    for r in trace.rows:
        print(
            f"  {r.stage:8s} step {r.step}  q={float(r.q):.4f}  "
            f"cells={r.edge_cells}  {r.action}"
        )
    print(f"homogeneous mass: {audit.homogeneous_mass} "
          f"({float(audit.homogeneous_mass):.4f})")
    print(f"crossing homogeneous: {float(audit.homogeneous_crossing_mass):.4f}")
    print(f"target 1 - 2*eta = {1 - 2 * eta}: "
          f"{'reached' if audit.homogeneous_mass >= 1 - 2 * eta else 'missed'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
