#!/usr/bin/env python3
"""Sweep the fast kernels against the naive oracles over a size grid (the
masked c4 kernel against the literal ``c4_sum`` on row subsets and column
masks among them, and ``PairPartition.certificate_terms`` against the
``c4_sum`` certificate of each cell of random pair partitions restricted to
random sub-masks, empty ones included; the pair kernel's Cauchy-Schwarz
bound ``pair_bound_scaled`` against the ``c4_sum`` certificate, and
``dlr_cylinder_regularity``'s bound-first verdict against the naive
certificates, on the cylinders that random row and column masks cut from
each bipartite instance, with a sparse second input beside it and alpha at
the certificates, just below them, at the bounds and at each sweep eta (a
stream of its own); the octahedral kernel also on thin
chains whose z part may pass 64 vertices), the upper-half symmetry check
``rows_symmetric`` against the bit-by-bit walk, ``Graph.from_edges``
against a walk that checks each edge before setting its bits (on edge
lists with bad edges inserted: loops, negative, ``n`` and huge ids), the
hyperedge index against the naive membership test ``has_triple``, the
tuple audit's per-chain verdict (``cell_chain_passes``) against
``eta_psi_check`` with the naive kernels, the tuple audit itself against
a literal walk over the tuples (3 to 6 parts; also with complete cells
under eta = 1, where every chain passes),
exact as the walk's good mass and bounded as one minus the walk's failing
part triples per tuple, at most that mass, the partition survey against that
audit, ``q_partition`` naive and the useful chains filtered from
``located_cell_chains``, and ``q_partition`` and ``q_cell_chain`` fast
against naive, the latter on every part triple of a cylinder and on every
located cell chain taken as one cell (where q is d^2).  The counts and
certificate ``cell_chain_stats`` computes where a chain lies are checked
against the naive octahedral sum on its extracted copy, for the chain's
cells and for copies that reach outside the cylinder masks.  On random
chains where they lie (masks narrower than their parts, cell rows reaching
outside them, z parts that may pass 64 vertices; a stream of its own), the
first pass's certificate bound is checked to be at least the naive
certificate, and equal to it when one x carries every triangle, and the
bound-first verdict ``cell_chain_within`` against certificate <= eta at the
certificate, just below it, at the bound and at each sweep eta, with the
pair loop run only where the bound is above eta.  ``lookup`` and
``container`` are checked against a scan over the masks, and the linear
cylinder overlap check against the pairwise one, first offending pair
included, on random cylinder families that overlap about half the time.
``scan``'s bulk path for canonical files is checked against its line loop
(the bulk path patched out), records, kind and first error included, on
random generated files and on copies with a token, a line or a character
changed.  The bulk draw ``SplitMix64.accepted`` is checked against the
per-draw ``bernoulli`` it stands for, the words left behind included, on a
grid of run lengths (0, 1, 63, 64, 65, 300) and densities (0, 1,
denominators that are and are not powers of two, up to 2^70).

Usage: python scripts/oracle_sweep.py [--max-size 10] [--cases 200] [--seed 7]
"""

import argparse
import sys
import time
from fractions import Fraction
from itertools import combinations, product
from math import prod

from regulab import core
from regulab.core import (
    Graph,
    InvalidStructure,
    PartiteThreeGraph,
    PartiteVertexSet,
    bits,
    ratio,
    rows_symmetric,
    save_chain,
    save_graph,
    save_multipartite,
    save_partite_3graph,
    save_three_graph,
    scan,
    triangle_count,
)
from regulab.engines import (
    ConstantsProfile,
    NonterminationError,
    RefinementFailure,
    dlr_cylinder_regularity,
)
from regulab.generators import (
    SplitMix64,
    random_bipartite,
    random_chain,
    random_cylinder_chain_partition,
    random_graph,
    random_multipartite,
    random_partite_3graph,
    random_tournament_3graph,
    random_vertex_cylinder_partition,
)
from regulab.partitions import (
    CylinderChainPartition,
    EdgePartition,
    PairPartition,
    PartitionSurvey,
    VertexCylinder,
    VertexCylinderPartition,
    cell_chain_passes,
    cell_chain_stats,
    cell_chain_within,
    cells_by_label,
    cylinder_quasirandomness_audit,
    extract_cell_chain,
    first_overlap,
    located_cell_chains,
    q_cell_chain,
    q_partition,
    survey_partition,
)
from regulab.quasirandom import (
    DeviationFunction3,
    PolyFunction,
    c4_sum,
    chain_first_pass,
    chain_quasirandomness,
    eta_psi_check,
    masked_pair_quasirandomness,
    pair_bound_scaled,
    pair_quasirandomness,
)

THRESHOLDS = (
    (Fraction(1, 4), PolyFunction(Fraction(1), 1)),
    (Fraction(1, 64), PolyFunction(Fraction(1, 2), 2)),
    (Fraction(1, 16), PolyFunction(Fraction(1, 3), 3)),
)
# Under eta = 1 every located chain of a partition with complete cells
# passes: a complete cell's certificate is 0.
ALL_PASS = (Fraction(1), PolyFunction(Fraction(1), 1))


def masked_pair_matches(g, rng) -> bool:
    """The masked c4 kernel on a random row subset and column mask of ``g``
    equals the naive four-fold sum of the deviation table it stands for."""
    xs = [x for x in range(g.left_size) if rng.below(3)]
    mask = rng.next_u64() & ((1 << g.right_size) - 1)
    cert = masked_pair_quasirandomness(g.rows, xs, mask)
    ys = list(bits(mask))
    area = len(xs) * len(ys)
    if area == 0:
        return cert.raw_sum == 0 and cert.degenerate
    e = sum((g.rows[x] & mask).bit_count() for x in xs)
    table = [[Fraction(area * (g.rows[x] >> y & 1) - e, area) for y in ys] for x in xs]
    return cert.raw_sum == c4_sum(table)


def cell_terms_match(g, rng) -> bool:
    """Each cell's ``certificate_terms`` in a random pair partition of ``g``,
    restricted to random sub-masks (each empty one time in four), equal the
    naive certificate ``c4_sum`` / area^2 of the cell on the masked sides in
    lowest terms, and (0, 1) where the area is 0."""
    full_l, full_r = (1 << g.left_size) - 1, (1 << g.right_size) - 1
    k = 1 + rng.below(3)
    cells = cells_by_label(g.left_size, g.rows, lambda x, y: rng.below(k))
    pp = PairPartition(g.left_size, g.right_size, full_l, full_r, g.rows, cells)
    lm = 0 if rng.below(4) == 0 else rng.next_u64() & full_l
    rm = 0 if rng.below(4) == 0 else rng.next_u64() & full_r
    pp = pp.restrict(lm, rm)
    xs, ys = list(bits(pp.left_mask)), list(bits(pp.right_mask))
    area = len(xs) * len(ys)
    for cell, terms in zip(pp.cells, pp.certificate_terms):
        value = Fraction(0)
        if area:
            e = sum(row.bit_count() for row in cell)
            table = [[Fraction(area * (cell[x] >> y & 1) - e, area) for y in ys] for x in xs]
            value = c4_sum(table) / (area * area)
        if terms != (value.numerator, value.denominator):
            return False
    return True


def pair_bounds_match(g, rng) -> int:
    """Mismatches of the pair kernel's Cauchy-Schwarz bound and of ``dlr``'s
    bound-first verdict against the naive ``c4_sum``, on ``g`` and a sparse
    second input cut into up to four cylinders by a random row mask and
    column mask.  Each bound must be at least the naive certificate of its
    input on its cylinder; the bad mass of ``dlr``'s first walk must be the
    share of cylinders where some input's naive certificate is above alpha,
    at alpha = each certificate on the first cylinder, just below it, its
    bound and each THRESHOLDS eta."""
    na, nb = g.left_size, g.right_size
    full_l, full_r = (1 << na) - 1, (1 << nb) - 1
    lm, rm = rng.next_u64() & full_l, rng.next_u64() & full_r
    quads = [(a, b) for a in (lm, full_l ^ lm) for b in (rm, full_r ^ rm) if a and b]
    inputs = (g.rows, random_bipartite(na, nb, Fraction(1, 8), seed=rng.next_u64()).rows)
    bad = 0
    certs = []  # per cylinder, per input: (naive certificate, bound)
    for a, b in quads:
        xs, ys = list(bits(a)), list(bits(b))
        area = len(xs) * len(ys)
        row = []
        for rows in inputs:
            e = sum((rows[x] & b).bit_count() for x in xs)
            table = [[Fraction(area * (rows[x] >> y & 1) - e, area) for y in ys] for x in xs]
            cert = c4_sum(table) / (area * area)
            bound = Fraction(pair_bound_scaled(e, area), area**6)
            bad += bound < cert
            row.append((cert, bound))
        certs.append(row)
    vs = PartiteVertexSet.of_sizes(na, nb)
    pv = VertexCylinderPartition(vs, tuple(VertexCylinder(q) for q in quads))
    graphs = [(0, 1, rows) for rows in inputs]
    alphas = {x for cert, bound in certs[0] for x in (cert, cert - Fraction(1, 10**9), bound)}
    alphas.update(eta for eta, _ in THRESHOLDS)
    for alpha in sorted(x for x in alphas if 0 < x <= 1):
        want = sum(
            a.bit_count() * b.bit_count()
            for (a, b), row in zip(quads, certs)
            if any(cert > alpha for cert, _ in row)
        )
        try:
            _, trace = dlr_cylinder_regularity(
                vs, graphs, alpha, ConstantsProfile.desk(max_steps=1), initial=pv
            )
        except (NonterminationError, RefinementFailure) as exc:
            trace = exc.trace
        bad += trace.rows[0].useful_mass != Fraction(want, na * nb)
    return bad


def symmetry_matches(n, rng) -> bool:
    """``rows_symmetric`` agrees with the bit-by-bit walk on a random graph
    and on copies with one upper, one lower and a few arbitrary bits flipped."""
    rows = random_graph(n, Fraction(1 + rng.below(7), 8), rng.next_u64()).rows
    trials = [rows]
    for _ in range(3 if n >= 2 else 0):
        bad = list(rows)
        x, y = rng.sample(n, 2)
        bad[x] ^= 1 << y  # an upper bit
        trials.append(tuple(bad))
        bad = list(rows)
        bad[y] ^= 1 << x  # a lower bit
        trials.append(tuple(bad))
        bad = list(rows)
        for _ in range(1 + rng.below(3)):
            x, y = rng.sample(n, 2)
            bad[x] ^= 1 << y
        trials.append(tuple(bad))
    for r in trials:
        walk = all(r[y] >> x & 1 for x in range(n) for y in bits(r[x]))
        if rows_symmetric(r) != walk:
            return False
    return True


def from_edges_outcome(n, edges):
    """``Graph.from_edges``'s rows, or the message of its refusal."""
    try:
        return Graph.from_edges(n, edges).rows
    except InvalidStructure as exc:
        return str(exc)


def from_edges_matches(max_size, rng) -> bool:
    """``Graph.from_edges``, which its row reads and shifts check, agrees
    with a walk that checks each edge before setting its bits, on a random
    edge list and on copies with one or two bad edges inserted: a loop, an
    id in [-n, -1], below -n, n itself, 10^18 or 10^30, at either end."""
    n = 1 + rng.below(4 * max_size)
    edges = [(rng.below(n), rng.below(n)) for _ in range(rng.below(3 * n))]
    edges = [(u, v) for u, v in edges if u != v]
    edges += edges[: rng.below(len(edges) + 1)]  # duplicates
    trials = [edges]
    for _ in range(3):
        bad = list(edges)
        for _ in range(1 + rng.below(2)):
            good = rng.below(n)
            kind = rng.below(6)
            bad_id = (good, -1 - rng.below(n), -n - 1 - rng.below(3), n, 10**18, 10**30)[kind]
            edge = (bad_id, good) if rng.below(2) else (good, bad_id)
            bad.insert(rng.below(len(bad) + 1), edge)
        trials.append(bad)
    for trial in trials:
        rows = [0] * n
        want = None
        for u, v in trial:
            if u == v or not (0 <= u < n and 0 <= v < n):
                want = f"bad edge ({u},{v})"
                break
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        if from_edges_outcome(n, trial) != (tuple(rows) if want is None else want):
            return False
    return True


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


def q_matches(h, p, rng) -> int:
    """``p`` itself, part triples of its cylinders, and located cell chains
    of them taken as one cell each, whose q differs between the fast and
    naive modes; a one-cell chain must also have q = d^2 by the evaluator,
    and the evaluator's counts and certificate must equal the extracted
    chain's, certified by the naive kernel, on the chain's cells and on
    copies widened by random bits that reach outside the masks."""
    vs = h.vertex_set
    bad = q_partition(h, p, "fast") != q_partition(h, p, "naive")
    for cyl, ep in zip(p.vertex.cylinders, p.edges):
        for i, j, k in combinations(range(vs.t), 3):
            parts = (i, j, k)
            pps = (ep.pair(i, j), ep.pair(i, k), ep.pair(j, k))
            rows = tuple(pp.host_rows for pp in pps)
            fast = q_cell_chain(h, parts, rows, pps, "fast")
            bad += fast != q_cell_chain(h, parts, rows, pps, "naive")
            masks = (cyl.masks[i], cyl.masks[j], cyl.masks[k])
            for combo in product(*(range(pp.cell_count) for pp in pps)):
                cells = tuple(pp.cells[idx] for pp, idx in zip(pps, combo))
                whole = tuple(
                    PairPartition.trivial(
                        pp.left_size, pp.right_size, pp.left_mask, pp.right_mask, cell
                    )
                    for pp, cell in zip(pps, cells)
                )
                fast = q_cell_chain(h, parts, cells, whole, "fast")
                tri, hyp, _ = cell_chain_stats(h, masks, parts, cells)
                bad += fast != q_cell_chain(h, parts, cells, whole, "naive")
                bad += fast != ratio(hyp, tri) ** 2
                wide = tuple(
                    tuple(row | rng.next_u64() & vs.full_mask(b) for row in cell)
                    for (_, b), cell in zip(combinations(parts, 2), cells)
                )
                for cs in (cells, wide):
                    tri, hyp, cert = cell_chain_stats(h, masks, parts, cs)
                    chain = extract_cell_chain(h, masks, parts, cs)
                    bad += tri != triangle_count(chain.graph)
                    bad += hyp != chain.hyper.edge_count
                    bad += cert != chain_quasirandomness(chain, mode="naive").value
    return bad


def bounds_match(max_size, rng) -> int:
    """Mismatches of the octahedral kernel's Cauchy-Schwarz bound and of the
    bound-first verdict ``cell_chain_within`` against the naive octahedral
    sum on one random chain where it lies: masks narrower than their parts,
    cell rows that reach outside them and a z part that may pass 64
    vertices.  The bound must be at least the certificate, and equal to it
    when at most one x carries triangles; the verdict, read first on a
    fresh index and then again, must equal certificate <= eta at eta = the
    certificate, just below it, at the bound and at every THRESHOLDS eta,
    and must run the pair loop only where the bound is above eta."""
    sizes = (1 + rng.below(max_size), 1 + rng.below(min(max_size, 4)), 1 + rng.below(70))
    h = random_partite_3graph(sizes, Fraction(1, 2), seed=rng.next_u64())
    parts = (0, 1, 2)

    def draw(size):  # each bit set with probability 3/4
        words = [rng.next_u64() | rng.next_u64() for _ in range(2)]
        return (words[0] | words[1] << 64) & ((1 << size) - 1)

    masks = tuple(draw(n) for n in sizes)
    cells = tuple(tuple(draw(sizes[b]) for _ in range(sizes[a])) for a, b in combinations(parts, 2))
    chain = extract_cell_chain(h, masks, parts, cells)
    cert = chain_quasirandomness(chain, mode="naive").value
    fp = chain_first_pass(cells, masks, h.zmasks(*parts))
    bound = Fraction(*fp.scaled(fp.diagonal))
    bad = bound < cert
    bad += len({x for x, _, _ in DeviationFunction3.from_chain(chain).support}) <= 1 and bound != cert
    for eta in (cert, cert - Fraction(1, 10**9), bound, *(eta for eta, _ in THRESHOLDS)):
        fresh = PartiteThreeGraph(h.vertex_set, h.triples)
        for _ in range(2):
            bad += cell_chain_within(fresh, masks, parts, cells, eta) != (cert <= eta)
        looped = (masks, parts, cells) in fresh.index.chain_values and bool(fp.splits)
        bad += looped != (bound > eta and bool(fp.splits))
    return bad


def scan_lookup(pv, locals_):
    """The first cylinder whose masks hold the tuple, by a scan."""
    return next(
        (c for c, cyl in enumerate(pv.cylinders)
         if all(m >> a & 1 for m, a in zip(cyl.masks, locals_))),
        None,
    )


def scan_container(pv, cyl):
    """The first cylinder whose masks hold every mask of ``cyl``, by a scan;
    None for an empty ``cyl``, which has no tuple to hold."""
    if cyl.is_empty():
        return None
    return next(
        (c for c, big in enumerate(pv.cylinders)
         if all(m & ~b == 0 for m, b in zip(cyl.masks, big.masks))),
        None,
    )


def containment_matches(pv, rng) -> int:
    """Tuples whose ``lookup``, and cylinders (of a random partition, of its
    meet with ``pv`` and random ones) whose ``container``, differ from a
    scan over the masks."""
    vs = pv.vertex_set
    bad = sum(
        pv.lookup(locals_) != scan_lookup(pv, locals_)
        for locals_ in product(*(range(s) for s in vs.sizes))
    )
    other = random_vertex_cylinder_partition(vs, 1 + rng.below(8), rng.next_u64())
    meet = [
        VertexCylinder(tuple(x & y for x, y in zip(a.masks, b.masks)))
        for a in pv.cylinders
        for b in other.cylinders
    ]
    loose = [
        VertexCylinder(tuple(rng.next_u64() & vs.full_mask(i) for i in range(vs.t)))
        for _ in range(4)
    ]
    bad += sum(
        pv.container(cyl) != scan_container(pv, cyl)
        for cyl in list(other.cylinders) + meet + loose
    )
    return bad


def literal_audit(h, p, eta, psi) -> tuple[Fraction, Fraction]:
    """(good tuple mass, union bound) by the definition: every tuple, its
    cylinder by a scan over the masks, and eta_psi_check (naive) on the
    cell chain of each part triple that holds its edges.  The bound is one
    minus the tuples' failing part triples over the space, at least 0.  An
    empty product has mass 1, as in the audit."""
    vs = h.vertex_set
    space = prod(vs.sizes)
    if space == 0:
        return Fraction(1), Fraction(1)
    good = spoiled = 0
    for locals_ in product(*(range(s) for s in vs.sizes)):
        c = scan_lookup(p.vertex, locals_)
        cyl, ep = p.vertex.cylinders[c], p.edges[c]
        fails = 0
        for i, j, k in combinations(range(vs.t), 3):
            cells = tuple(
                next(cell for cell in ep.pair(a, b).cells if cell[locals_[a]] >> locals_[b] & 1)
                for a, b in ((i, j), (i, k), (j, k))
            )
            masks = (cyl.masks[i], cyl.masks[j], cyl.masks[k])
            chain = extract_cell_chain(h, masks, (i, j, k), cells)
            fails += not eta_psi_check(chain, eta, psi, mode="naive")
        good += fails == 0
        spoiled += fails
    return Fraction(good, space), max(Fraction(0), 1 - Fraction(spoiled, space))


def audits_match(h, p) -> int:
    """Tuple audits of ``p`` that differ from the literal walk, exact at
    the cap ``space`` and bounded at ``space - 1``, over every (eta, psi)
    pair, and under ALL_PASS on ``p``'s cylinders with complete cells,
    where the mass must be 1; a bound above the exact mass counts too.
    Each audit's survey must also hold q by ``q_partition``'s naive mode
    and, in walk order, the located chains with triangles and a
    certificate above eta."""
    vs = h.vertex_set
    space = prod(vs.sizes)
    complete = CylinderChainPartition(
        p.vertex, tuple(EdgePartition.trivial_for_cylinder(vs, cyl) for cyl in p.vertex.cylinders)
    )
    bad = 0
    for q, (eta, psi) in [(p, th) for th in THRESHOLDS] + [(complete, ALL_PASS)]:
        q_naive = q_partition(h, q, "naive")
        useful = tuple(
            (ci, parts, combo, cells, cert, q.vertex.cylinders[ci].weight(vs) * Fraction(tri, size))
            for ci, _, masks, parts, combo, cells in located_cell_chains(h, q)
            for tri, _, cert in [cell_chain_stats(h, masks, parts, cells)]
            if tri > 0 and cert > eta
            for size in [prod(m.bit_count() for m in masks)]
        )
        mass = sum(row[-1] for row in useful)
        exact, bound = literal_audit(h, q, eta, psi)
        bad += bound > exact
        for cap, want in ((space, exact), (space - 1, bound)):
            audit = cylinder_quasirandomness_audit(h, q, eta, psi, cap)
            bad += audit.degenerate_mass != 0
            bad += audit.good_mass != want
            bad += q is complete and audit.good_mass != 1
            survey = survey_partition(h, q, eta, psi, cap)
            bad += survey != PartitionSurvey(q_naive, audit, useful, mass)
    return bad


def overlap_matches(max_size, rng) -> tuple[bool, bool]:
    """(fast equals naive, the family overlaps) for ``first_overlap`` on a
    random cylinder partition with up to two edits: a widened mask, or an
    inserted copy, empty cylinder or random cylinder."""
    t = 1 + rng.below(5)
    vs = PartiteVertexSet.of_sizes(*(1 + rng.below(max_size) for _ in range(t)))
    pv = random_vertex_cylinder_partition(vs, 1 + rng.below(12), rng.next_u64())
    masks = [cyl.masks for cyl in pv.cylinders]
    for _ in range(rng.below(3)):
        kind = rng.below(4)
        if kind == 0:
            c, i = rng.below(len(masks)), rng.below(t)
            row = list(masks[c])
            row[i] |= rng.next_u64() & vs.full_mask(i)
            masks[c] = tuple(row)
            continue
        if kind == 1:
            new = masks[rng.below(len(masks))]
        else:
            row = [rng.next_u64() & vs.full_mask(i) for i in range(t)]
            if kind == 2:
                row[rng.below(t)] = 0
            new = tuple(row)
        masks.insert(rng.below(len(masks) + 1), new)
    cyls = [VertexCylinder(m) for m in masks]
    naive = first_overlap(vs, cyls, "naive")
    return first_overlap(vs, cyls) == naive, naive is not None


# Tokens and characters a mutated file may gain: signs, leading zeros, long
# ids, non-ASCII digits, other whitespace and line ends, comments, heads.
SCAN_TOKENS = ("0", "00", "07", "-1", "+1", "1_0", "\u0661", "1" + "0" * 18, "9" * 23,
               "x", "e", "t", "part", "#")
SCAN_NOISE = (" ", "\t", "\n", "\r", "\r\n", "\x0c", "\u2028", "#", "0", "e", "t", "-")


def random_file(max_size, rng) -> str:
    """A random generated file of one of the five savable kinds."""
    size = 1 + rng.below(max_size)
    sizes = tuple(1 + rng.below(max_size) for _ in range(3))
    seed = rng.next_u64()
    kind = rng.below(5)
    if kind == 0:
        return save_graph(random_graph(size, Fraction(1, 2), seed))
    if kind == 1:
        return save_multipartite(random_multipartite(sizes, Fraction(1, 2), seed))
    if kind == 2:
        return save_three_graph(random_tournament_3graph(3 + size, seed))
    if kind == 3:
        return save_partite_3graph(random_partite_3graph(sizes, Fraction(1, 2), seed))
    return save_chain(random_chain(sizes, Fraction(2, 3), Fraction(1, 2), seed))


def mutate_file(text, rng) -> str:
    """``text`` with a token replaced, a line moved to the end, or a
    character inserted or deleted."""
    op = rng.below(4)
    if op == 0:
        tokens = text.split(" ")
        tokens[rng.below(len(tokens))] = SCAN_TOKENS[rng.below(len(SCAN_TOKENS))]
        return " ".join(tokens)
    if op == 1:
        lines = text.splitlines(keepends=True)
        lines.append(lines.pop(rng.below(len(lines))))
        return "".join(lines)
    k = rng.below(len(text) + 1)
    if op == 2:
        return text[:k] + SCAN_NOISE[rng.below(len(SCAN_NOISE))] + text[k:]
    return text[:k] + text[k + 1 :]


def scan_fields(sc):
    """A scan's fields, its id and line stores as lists (a canonical block's
    line numbers are a range, the line loop's an array)."""
    error = None if sc.error is None else (sc.error.line, str(sc.error))
    stores = (sc.edges, sc.edge_lines, sc.triples, sc.triple_lines)
    return (sc.parts, *map(list, stores), sc.kind, error)


def scans_match(max_size, rng) -> tuple[int, int]:
    """``scan`` against its line loop on a random generated file and three
    mutated copies; returns (mismatches, copies the bulk path took)."""
    text = random_file(max_size, rng)
    texts = [text] + [mutate_file(text, rng) for _ in range(3)]
    bad = bulk = 0
    for text in texts:
        fast = scan_fields(scan(text))
        bulk_scan, core._bulk_scan = core._bulk_scan, lambda text: None
        try:
            loop = scan_fields(scan(text))
        finally:
            core._bulk_scan = bulk_scan
        bad += fast != loop
        bulk += bulk_scan(text) is not None
    return bad, bulk


RUN_LENGTHS = (0, 1, 63, 64, 65, 300)
DENSITIES = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 7),
             Fraction((1 << 64) - 1, 1 << 64), Fraction(1, 1 << 70), Fraction(5, 3**41))


def draws_match(rng) -> int:
    """Bulk draws that differ from the per-draw ``bernoulli``, in values or
    in the state they leave, for one seed taken from ``rng``: ``accepted``
    on every run length and density of the grid, plus one random density."""
    seed = rng.next_u64()
    den = 1 + (rng.next_u64() << 6 | rng.below(64))  # up to 2^70
    densities = DENSITIES + (Fraction((rng.next_u64() << 6 | rng.below(64)) % (den + 1), den),)
    bad = 0
    for n in RUN_LENGTHS:
        for p in densities:
            bulk, twin = SplitMix64(seed), SplitMix64(seed)
            got = bulk.accepted(n, p)
            bad += (got, bulk.state) != ([i for i in range(n) if twin.bernoulli(p)], twin.state)
    return bad


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-size", type=int, default=10)
    ap.add_argument("--cases", type=int, default=200)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    rng = SplitMix64(args.seed)
    # A stream of its own, so the other cases stay those of earlier sweeps.
    side = SplitMix64(args.seed + 1)
    cylinders = SplitMix64(args.seed + 2)
    extra = SplitMix64(args.seed + 3)
    files = SplitMix64(args.seed + 4)
    thin = SplitMix64(args.seed + 5)
    draws = SplitMix64(args.seed + 6)
    cell_pairs = SplitMix64(args.seed + 7)
    edge_lists = SplitMix64(args.seed + 8)
    bound_chains = SplitMix64(args.seed + 9)
    pair_bounds = SplitMix64(args.seed + 10)
    t0 = time.monotonic()
    mismatches = 0
    overlapping = 0
    canonical = 0
    for case in range(args.cases):
        na = 1 + rng.below(args.max_size)
        nb = 1 + rng.below(args.max_size)
        g = random_bipartite(na, nb, Fraction(1, 2), seed=rng.next_u64())
        fast = pair_quasirandomness(g, mode="fast")
        naive = pair_quasirandomness(g, mode="naive")
        if (fast.raw_sum, fast.value) != (naive.raw_sum, naive.value):
            mismatches += 1
            print(f"pair mismatch at case {case}: {na}x{nb}")
        if not masked_pair_matches(g, side):
            mismatches += 1
            print(f"masked pair mismatch at case {case}: {na}x{nb}")
        if not cell_terms_match(g, cell_pairs):
            mismatches += 1
            print(f"cell certificate terms mismatch at case {case}: {na}x{nb}")
        bad = pair_bounds_match(g, pair_bounds)
        if bad:
            mismatches += 1
            print(f"{bad} pair bound or bound-first verdict mismatches at case {case}: {na}x{nb}")
        n = side.below(8 * args.max_size + 2)  # past word boundaries
        if not symmetry_matches(n, side):
            mismatches += 1
            print(f"symmetry check mismatch at case {case}: n={n}")
        if not from_edges_matches(args.max_size, edge_lists):
            mismatches += 1
            print(f"Graph.from_edges mismatch at case {case}")
        same, overlaps = overlap_matches(args.max_size, cylinders)
        overlapping += overlaps
        if not same:
            mismatches += 1
            print(f"cylinder overlap mismatch at case {case}")
        bad = draws_match(draws)
        if bad:
            mismatches += 1
            print(f"{bad} bulk draw mismatches at case {case}")
        bad, bulk = scans_match(args.max_size, files)
        canonical += bulk
        if bad:
            mismatches += 1
            print(f"{bad} scan mismatches at case {case}")
        if case % 4 == 0:
            sizes = tuple(1 + rng.below(min(args.max_size, 6)) for _ in range(3))
            c = random_chain(sizes, Fraction(2, 3), Fraction(1, 2), seed=rng.next_u64())
            cf = chain_quasirandomness(c, mode="fast")
            cn = chain_quasirandomness(c, mode="naive")
            if (cf.raw_sum, cf.value) != (cn.raw_sum, cn.value):
                mismatches += 1
                print(f"chain mismatch at case {case}: {sizes}")
            # A thin chain whose z part may pass 64 vertices, so the
            # kernel's packed z planes cross machine-word boundaries.
            sizes = (1 + thin.below(3), 1 + thin.below(3), 1 + thin.below(70))
            c = random_chain(sizes, Fraction(2, 3), Fraction(1, 2), seed=thin.next_u64())
            cf = chain_quasirandomness(c, mode="fast")
            cn = chain_quasirandomness(c, mode="naive")
            if (cf.raw_sum, cf.value) != (cn.raw_sum, cn.value):
                mismatches += 1
                print(f"thin chain mismatch at case {case}: {sizes}")
            bad = bounds_match(args.max_size, bound_chains)
            if bad:
                mismatches += 1
                print(f"{bad} chain bound or bound-first verdict mismatches at case {case}")
        if case % 4 == 2:
            t = 3 + rng.below(4)
            # Parts of at most 3 at t = 6 keep the literal audit walk short.
            sizes = tuple(rng.below(min(args.max_size, 5 if t < 6 else 3) + 1) for _ in range(t))
            h = random_partite_3graph(sizes, Fraction(1, 2), seed=rng.next_u64())
            if not index_matches(h):
                mismatches += 1
                print(f"index mismatch at case {case}: {sizes}")
            p = random_cylinder_chain_partition(h.vertex_set, 3, 3, seed=rng.next_u64())
            bad = verdicts_match(h, p)
            if bad:
                mismatches += 1
                print(f"{bad} cell-chain verdict mismatches at case {case}: {sizes}")
            bad = audits_match(h, p)
            if bad:
                mismatches += 1
                print(f"{bad} tuple-audit or survey mismatches at case {case}: {sizes}")
            bad = q_matches(h, p, extra)
            if bad:
                mismatches += 1
                print(f"{bad} q or certificate mismatches at case {case}: {sizes}")
            bad = containment_matches(p.vertex, extra)
            if bad:
                mismatches += 1
                print(f"{bad} lookup or container mismatches at case {case}: {sizes}")
    dt = time.monotonic() - t0
    chains = (args.cases + 3) // 4
    indexes = (args.cases + 1) // 4
    print(
        f"{args.cases} pair, masked pair, cell terms, pair bound, symmetry, edge list,"
        " cylinder overlap, bulk draw and scan cases"
        f" ({overlapping} overlapping, {canonical} of {4 * args.cases} files scanned in bulk)"
        f" + {chains} chain, {chains} thin chain and {chains} chain bound cases"
        f" + {indexes} index, verdict, audit, q, certificate and containment cases"
        f" in {dt:.1f}s"
    )
    if mismatches:
        print(f"{mismatches} mismatches")
        return 1
    print(
        "all kernels, the cell certificate terms, the pair bounds and dlr's bound-first"
        " verdicts, the symmetry check, the edge-list graph builder, the hyperedge index,"
        " the cell-chain verdicts, bounds"
        " and certificates, the tuple audit, the survey, q, lookup, container, the cylinder"
        " overlap check, the bulk draw and the bulk scan match their oracles"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
