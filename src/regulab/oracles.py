"""The oracle registry: every fast path beside the naive oracle it must
match bit for bit.

Each case of ``CASES`` names the fast paths it checks and the oracles they
must match.  Its ``check(rng, lo, hi)``, whose docstring says what it
compares, draws one seeded instance from ``rng`` and returns how many of
its comparisons differ.  :func:`run_cases` gives each case its own
SplitMix64 stream, keyed by the seed and the case's name, so adding a case
leaves the others' instances as they were.  Part sizes come from
``lo..hi`` unless a check caps them; a cap keeps a naive walk short.  A
case with ``every`` = 4 runs on one instance in four.

``regulab oracle-check`` runs every case; the tests import the literal
walks and the (eta, psi) pairs below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import prod
from typing import Callable
from zlib import crc32

from . import core
from .core import (
    Graph,
    InvalidStructure,
    PartiteThreeGraph,
    PartiteVertexSet,
    bits,
    product_density,
    ratio,
    relative_density,
    rows_symmetric,
    save_chain,
    save_graph,
    save_multipartite,
    save_partite_3graph,
    save_three_graph,
    scan,
    triangle_count,
)
from .engines import (
    ConstantsProfile,
    NonterminationError,
    RefinementFailure,
    dlr_cylinder_regularity,
)
from .generators import (
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
from .partitions import (
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
    q_edge_partition,
    q_partition,
    survey_partition,
)
from .quasirandom import (
    DeviationFunction3,
    PolyFunction,
    c4_sum,
    chain_first_pass,
    chain_quasirandomness,
    eta_psi_check,
    graph_quasirandomness,
    is_graph_quasirandom,
    masked_pair_quasirandomness,
    oct_sum,
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


# ---------------------------------------------------------------------------
# Literal walks, shared with the tests.
# ---------------------------------------------------------------------------


def scan_lookup(pv: VertexCylinderPartition, locals_) -> int | None:
    """The first cylinder whose masks hold the tuple, by a scan."""
    return next(
        (c for c, cyl in enumerate(pv.cylinders)
         if all(m >> a & 1 for m, a in zip(cyl.masks, locals_))),
        None,
    )


def scan_container(pv: VertexCylinderPartition, cyl: VertexCylinder) -> int | None:
    """The first cylinder whose masks hold every mask of ``cyl``, by a scan;
    None for an empty ``cyl``, which has no tuple to hold."""
    if cyl.is_empty():
        return None
    return next(
        (c for c, big in enumerate(pv.cylinders)
         if all(m & ~b == 0 for m, b in zip(cyl.masks, big.masks))),
        None,
    )


class NaiveChain:
    """A chain judged by the naive kernels as eta_psi_check judges it: its
    octahedral certificate, then the c4 certificates of its pairs against
    psi of their product density, each found on first use."""

    def __init__(self, chain):
        self.chain = chain

    @cached_property
    def cert(self):
        return chain_quasirandomness(self.chain, "naive")

    @cached_property
    def pairs(self):
        return graph_quasirandomness(self.chain.graph, "naive")

    @cached_property
    def density(self) -> Fraction:
        return product_density(self.chain.graph)

    def passes(self, eta, psi) -> bool:
        if self.cert.value > eta:
            return False
        alpha = psi(self.density)
        return all(c.value <= alpha for c in self.pairs.values())


def literal_audit(h, p, eta, psi, facts=None) -> tuple[Fraction, Fraction]:
    """The tuple audit written out: every tuple of X_1 x ... x X_t, its
    cylinder by a scan over the masks, and for each part triple the cells
    holding its three edges, cut out by extract_cell_chain and judged with
    the naive kernels.  Gives the good tuple mass and the union bound
    max(0, 1 - (failing part triples summed over the tuples) / space).  An
    empty product has mass 1, as in the audit.  Each cell chain is cut out
    once, on the first tuple that reaches it, and kept as a NaiveChain in
    ``facts`` by (cylinder, i, j, k, cell indices), so the audits of one
    partition at several (eta, psi) share its certificates."""
    vs = h.vertex_set
    space = prod(vs.sizes)
    if space == 0:
        return Fraction(1), Fraction(1)
    good = spoiled = 0
    facts = {} if facts is None else facts
    verdicts = {}
    for locals_ in product(*(range(s) for s in vs.sizes)):
        c = scan_lookup(p.vertex, locals_)
        cyl, ep = p.vertex.cylinders[c], p.edges[c]
        fails = 0
        for i, j, k in combinations(range(vs.t), 3):
            combo = tuple(
                next(n for n, cell in enumerate(ep.pair(a, b).cells)
                     if cell[locals_[a]] >> locals_[b] & 1)
                for a, b in ((i, j), (i, k), (j, k))
            )
            key = (c, i, j, k, combo)
            if key not in verdicts:
                if key not in facts:
                    pps = (ep.pair(i, j), ep.pair(i, k), ep.pair(j, k))
                    cells = tuple(pp.cells[n] for pp, n in zip(pps, combo))
                    masks = (cyl.masks[i], cyl.masks[j], cyl.masks[k])
                    facts[key] = NaiveChain(extract_cell_chain(h, masks, (i, j, k), cells))
                verdicts[key] = facts[key].passes(eta, psi)
            fails += not verdicts[key]
        good += fails == 0
        spoiled += fails
    return Fraction(good, space), max(Fraction(0), 1 - Fraction(spoiled, space))


def literal_bound(chain) -> tuple[Fraction, bool]:
    """The octahedral kernel's Cauchy-Schwarz bound written out on
    ``DeviationFunction3.from_chain``: B, the sum over ordered (y, y') of
    (sum over x of S(x, x))^2, with S(x, x) the z-sum of
    f(x, y, z)^2 f(x, y', z)^2; and whether some y carries triangles for
    two x."""
    dev = DeviationFunction3.from_chain(chain)
    nx, ny, nz = chain.vertex_set.sizes
    sq = [[[v * v for v in col] for col in plane] for plane in dev.table]
    bound = sum(
        sum(sq[x][y][z] * sq[x][y2][z] for x in range(nx) for z in range(nz)) ** 2
        for y in range(ny)
        for y2 in range(ny)
    )
    carriers = {}
    for x, y, _ in dev.support:
        carriers.setdefault(y, set()).add(x)
    return Fraction(bound), any(len(xs) > 1 for xs in carriers.values())


def scan_fields(sc):
    """A scan's fields, its id and line stores as lists: a canonical block's
    line numbers are a range, the line loop's an array."""
    error = None if sc.error is None else (sc.error.line, str(sc.error))
    stores = (sc.edges, sc.edge_lines, sc.triples, sc.triple_lines)
    return (sc.parts, *map(list, stores), sc.kind, error)


def loop_scan(text: str):
    """``scan`` with its bulk entry point patched out: the line loop alone."""
    bulk_scan, core._bulk_scan = core._bulk_scan, lambda text: None
    try:
        return scan(text)
    finally:
        core._bulk_scan = bulk_scan


def built_from_edges(n, edges):
    """``Graph.from_edges``'s rows, or the message of its refusal."""
    try:
        return Graph.from_edges(n, edges).rows
    except InvalidStructure as exc:
        return str(exc)


def walked_from_edges(n, edges):
    """``Graph.from_edges`` as a literal walk: each edge checked before its
    bits are set; the rows, or the message of the first bad edge."""
    rows = [0] * n
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            return f"bad edge ({u},{v})"
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def built_index(vs, triples):
    """``PartiteThreeGraph.from_triples``'s z-mask buckets, or the message
    of its refusal."""
    try:
        return PartiteThreeGraph.from_triples(vs, triples).index.zmasks
    except InvalidStructure as exc:
        return str(exc)


def walked_index(vs, triples):
    """The placement loop as a literal walk: each triple sorted and checked
    before its bit is set; the z-mask buckets, or the message of the first
    bad triple."""
    buckets = {}
    for ids in triples:
        s = tuple(sorted(ids))
        if not (0 <= s[0] and s[2] < vs.total):
            return f"bad triple {s}"
        (i, x), (j, y), (k, z) = map(vs.to_local, s)
        if not i < j < k:
            return f"bad triple {s}"
        bucket = buckets.setdefault((i, j, k), {})
        bucket[x, y] = bucket.get((x, y), 0) | 1 << z
    return buckets


def walked_symmetric(rows) -> bool:
    """Symmetry of bitset rows, bit by bit: every y in row x has x in row y."""
    return all(rows[y] >> x & 1 for x in range(len(rows)) for y in bits(rows[x]))


def _c4_raw(rows, xs, ys) -> Fraction:
    """The literal c4 sum of 1_E - d on rows ``xs`` and columns ``ys``."""
    area = len(xs) * len(ys)
    e = sum(rows[x] >> y & 1 for x in xs for y in ys)
    return c4_sum([[Fraction(area * (rows[x] >> y & 1) - e, area) for y in ys] for x in xs])


def _size(rng: SplitMix64, lo: int, hi: int) -> int:
    """A size drawn uniformly from lo..hi."""
    return lo + rng.below(hi - lo + 1)


def _bipartite(rng, lo, hi):
    return random_bipartite(_size(rng, lo, hi), _size(rng, lo, hi), Fraction(1, 2), rng.next_u64())


def _partitioned(rng, lo, hi):
    """A random partite 3-graph on 3 to 6 parts, each of lo - 1 to hi
    vertices (at most 5, or 3 at t = 6, so the literal walks stay short),
    and a random cylinder chain partition of it."""
    t = 3 + rng.below(4)
    cap = 5 if t < 6 else 3
    sizes = tuple(_size(rng, min(lo, cap) - 1, min(hi, cap)) for _ in range(t))
    h = random_partite_3graph(sizes, Fraction(1, 2), rng.next_u64())
    return h, random_cylinder_chain_partition(h.vertex_set, 3, 3, rng.next_u64())


# ---------------------------------------------------------------------------
# The cases.
# ---------------------------------------------------------------------------


def pair_kernel(rng, lo, hi) -> int:
    """The c4 kernel against its naive mode, the literal four-index sum, on
    a random bipartite graph: raw sum and value."""
    g = _bipartite(rng, lo, hi)
    fast, naive = (pair_quasirandomness(g, mode) for mode in ("fast", "naive"))
    return (fast.raw_sum, fast.value) != (naive.raw_sum, naive.value)


def masked_pair(rng, lo, hi) -> int:
    """The masked c4 kernel on a random row subset and column mask of a
    random bipartite graph against the literal sum over the deviation
    table they cut out; degenerate exactly where the area is 0."""
    g = _bipartite(rng, lo, hi)
    xs = [x for x in range(g.left_size) if rng.below(3)]
    mask = rng.next_u64() & ((1 << g.right_size) - 1)
    cert = masked_pair_quasirandomness(g.rows, xs, mask)
    ys = list(bits(mask))
    return (cert.degenerate != (not xs or not ys)) + (cert.raw_sum != _c4_raw(g.rows, xs, ys))


def cell_terms(rng, lo, hi) -> int:
    """Each cell's ``certificate_terms`` in a random pair partition of a
    random bipartite graph, restricted to random sub-masks (each empty one
    time in four), against the literal certificate c4_sum / area^2 of the
    cell on the masked sides in lowest terms, and (0, 1) at area 0."""
    g = _bipartite(rng, lo, hi)
    full_l, full_r = (1 << g.left_size) - 1, (1 << g.right_size) - 1
    k = 1 + rng.below(3)
    cells = cells_by_label(g.left_size, g.rows, lambda x, y: rng.below(k))
    pp = PairPartition(g.left_size, g.right_size, full_l, full_r, g.rows, cells)
    lm = 0 if rng.below(4) == 0 else rng.next_u64() & full_l
    rm = 0 if rng.below(4) == 0 else rng.next_u64() & full_r
    pp = pp.restrict(lm, rm)
    xs, ys = list(bits(pp.left_mask)), list(bits(pp.right_mask))
    area = len(xs) * len(ys)
    bad = 0
    for cell, terms in zip(pp.cells, pp.certificate_terms):
        value = _c4_raw(cell, xs, ys) / (area * area) if area else Fraction(0)
        bad += terms != (value.numerator, value.denominator)
    return bad


def pair_bound(rng, lo, hi) -> int:
    """The pair kernel's Cauchy-Schwarz bound and ``dlr``'s bound-first
    verdict against the literal c4 sum, on a random bipartite graph and a
    sparse second input cut into up to four cylinders by a random row mask
    and column mask.  Each bound must be at least the certificate of its
    input on its cylinder; the bad mass of ``dlr``'s first walk must be the
    share of cylinders where some input's certificate is above alpha, at
    alpha = each certificate on the first cylinder, just below it, its
    bound and each THRESHOLDS eta."""
    g = _bipartite(rng, lo, hi)
    na, nb = g.left_size, g.right_size
    full_l, full_r = (1 << na) - 1, (1 << nb) - 1
    lm, rm = rng.next_u64() & full_l, rng.next_u64() & full_r
    quads = [(a, b) for a in (lm, full_l ^ lm) for b in (rm, full_r ^ rm) if a and b]
    inputs = (g.rows, random_bipartite(na, nb, Fraction(1, 8), rng.next_u64()).rows)
    bad = 0
    certs = []  # per cylinder, per input: (certificate, bound)
    for a, b in quads:
        xs, ys = list(bits(a)), list(bits(b))
        area = len(xs) * len(ys)
        row = []
        for rows in inputs:
            cert = _c4_raw(rows, xs, ys) / (area * area)
            e = sum((rows[x] & b).bit_count() for x in xs)
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


def symmetry(rng, lo, hi) -> int:
    """``rows_symmetric`` against the bit-by-bit walk on a random graph of
    lo - 1 to 8 hi + 1 vertices (past word boundaries) and on copies with
    one upper, one lower and a few arbitrary bits flipped."""
    n = _size(rng, lo - 1, 8 * hi + 1)
    rows = random_graph(n, Fraction(1 + rng.below(7), 8), rng.next_u64()).rows
    trials = [rows]
    for _ in range(3 if n >= 2 else 0):
        x, y = rng.sample(n, 2)
        for a, b in ((x, y), (y, x)):  # an upper bit, then a lower one
            bad = list(rows)
            bad[a] ^= 1 << b
            trials.append(bad)
        bad = list(rows)
        for _ in range(1 + rng.below(3)):
            x, y = rng.sample(n, 2)
            bad[x] ^= 1 << y
        trials.append(bad)
    return sum(rows_symmetric(r) != walked_symmetric(r) for r in trials)


def from_edges(rng, lo, hi) -> int:
    """``Graph.from_edges``, which its row reads and shifts check, against
    a walk that checks each edge before setting its bits, on a random edge
    list of lo to 4 hi vertices, duplicates included, and on copies with
    one or two bad edges inserted: a loop, an id in [-n, -1], below -n, n
    itself, 10^18 or 10^30, at either end."""
    n = _size(rng, lo, 4 * hi)
    edges = [(rng.below(n), rng.below(n)) for _ in range(rng.below(3 * n))]
    edges = [(u, v) for u, v in edges if u != v]
    edges += edges[: rng.below(len(edges) + 1)]
    trials = [edges]
    for _ in range(3):
        bad = list(edges)
        for _ in range(1 + rng.below(2)):
            good = rng.below(n)
            bad_ids = (good, -1 - rng.below(n), -n - 1 - rng.below(3), n, 10**18, 10**30)
            bad_id = bad_ids[rng.below(6)]
            bad.insert(rng.below(len(bad) + 1), (bad_id, good) if rng.below(2) else (good, bad_id))
        trials.append(bad)
    return sum(built_from_edges(n, trial) != walked_from_edges(n, trial) for trial in trials)


def overlap(rng, lo, hi) -> int:
    """The linear cylinder overlap check against the pairwise one, first
    offending pair included, on a random cylinder partition of 1 to 5 parts
    with up to two edits: a widened mask, or an inserted copy, empty
    cylinder or random cylinder (so about half the families overlap)."""
    t = 1 + rng.below(5)
    vs = PartiteVertexSet.of_sizes(*(_size(rng, lo, hi) for _ in range(t)))
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
    return first_overlap(vs, cyls) != first_overlap(vs, cyls, "naive")


RUN_LENGTHS = (0, 1, 63, 64, 65, 300)
DENSITIES = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 7),
             Fraction((1 << 64) - 1, 1 << 64), Fraction(1, 1 << 70), Fraction(5, 3**41))


def bulk_draw(rng, lo, hi) -> int:
    """The bulk draw ``SplitMix64.accepted`` against the per-draw
    ``bernoulli`` it stands for, values and the state left behind, for one
    seed on every run length (0, 1, 63, 64, 65, 300) and density of the
    grid (0, 1, denominators that are and are not powers of two, up to
    2^70), plus one random density."""
    seed = rng.next_u64()
    den = 1 + (rng.next_u64() << 6 | rng.below(64))
    densities = DENSITIES + (Fraction((rng.next_u64() << 6 | rng.below(64)) % (den + 1), den),)
    bad = 0
    for n in RUN_LENGTHS:
        for p in densities:
            bulk, twin = SplitMix64(seed), SplitMix64(seed)
            got = bulk.accepted(n, p)
            bad += (got, bulk.state) != ([i for i in range(n) if twin.bernoulli(p)], twin.state)
    return bad


# Tokens and characters a mutated file may gain: signs, leading zeros, long
# ids, non-ASCII digits, other whitespace and line ends, comments, heads.
SCAN_TOKENS = ("0", "00", "07", "-1", "+1", "1_0", "\u0661", "1" + "0" * 18, "9" * 23,
               "x", "e", "t", "part", "#")
SCAN_NOISE = (" ", "\t", "\n", "\r", "\r\n", "\x0c", "\u2028", "#", "0", "e", "t", "-")


def _random_file(rng, lo, hi) -> str:
    """A random generated file of one of the five savable kinds."""
    size = _size(rng, lo, hi)
    sizes = tuple(_size(rng, lo, hi) for _ in range(3))
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


def _mutated(text, rng) -> str:
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


def bulk_scan(rng, lo, hi) -> int:
    """``scan``'s bulk path for canonical files against its line loop (the
    bulk path patched out), records, kind and first error included, on a
    random generated file and three copies with a token, a line or a
    character changed."""
    text = _random_file(rng, lo, hi)
    texts = [text] + [_mutated(text, rng) for _ in range(3)]
    return sum(scan_fields(scan(text)) != scan_fields(loop_scan(text)) for text in texts)


def chain_kernel(rng, lo, hi) -> int:
    """The octahedral kernel against its naive mode, the literal six-index
    sum, on a random chain of parts up to 6 and on a thin one whose z part
    may pass 64 vertices (so the packed z planes cross word boundaries);
    on the first, also the pair certificates of its graph, eta_psi_check
    at every THRESHOLDS pair against the naive kernels, and q of the
    trivial edge partition, fast, naive and d^2."""
    sizes = tuple(_size(rng, min(lo, 6), min(hi, 6)) for _ in range(3))
    c = random_chain(sizes, Fraction(2, 3), Fraction(1, 2), rng.next_u64())
    thin = (1 + rng.below(3), 1 + rng.below(3), 1 + rng.below(70))
    thin = random_chain(thin, Fraction(2, 3), Fraction(1, 2), rng.next_u64())
    naive = NaiveChain(c)
    bad = 0
    for chain, cert in ((c, naive.cert), (thin, chain_quasirandomness(thin, "naive"))):
        fast = chain_quasirandomness(chain, "fast")
        bad += (fast.raw_sum, fast.value) != (cert.raw_sum, cert.value)
    bad += graph_quasirandomness(c.graph, "fast") != naive.pairs
    for eta, psi in THRESHOLDS:
        bad += eta_psi_check(c, eta, psi, "fast") != naive.passes(eta, psi)
    trivial = EdgePartition.trivial_for_graph(c.graph)
    d = relative_density(c)
    qs = {q_edge_partition(c, trivial, mode) for mode in ("fast", "naive")}
    return bad + (qs != {d * d})


def chain_bound(rng, lo, hi) -> int:
    """The octahedral kernel's first pass and the bound-first verdict
    ``cell_chain_within`` against the literal walks on a random chain
    where it lies: masks narrower than their parts, cell rows reaching
    outside them and a z part that may pass 64 vertices.  One instance in
    two has at least 4 x, 2 y and 65 z, so that the planes, one z slot per
    x that carries a triangle, pass 128 bits once two x do.  The first
    pass's bound, scaled by q^8, must equal the literal B and be at least
    the certificate, and equal to it when no y is met by two x;
    ``paired`` must tell whether some y is.  The verdict, read on a fresh
    index and then again, must equal certificate <= eta at eta = the
    certificate, just below it, at the bound and at every THRESHOLDS eta,
    and must run the pair loop only where the bound is above eta and some
    y is met by two x."""
    if rng.below(2):
        sizes = (max(4, _size(rng, lo, hi)), 2, 65 + rng.below(6))
    else:
        sizes = (_size(rng, lo, hi), _size(rng, min(lo, 4), min(hi, 4)), 1 + rng.below(70))
    h = random_partite_3graph(sizes, Fraction(1, 2), rng.next_u64())
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
    literal, paired = literal_bound(chain)
    bad = fp.diagonal != literal * fp.triangles**8
    bad += fp.paired != paired
    bad += bound < cert
    bad += not paired and bound != cert
    for eta in (cert, cert - Fraction(1, 10**9), bound, *(eta for eta, _ in THRESHOLDS)):
        fresh = PartiteThreeGraph.from_triples(h.vertex_set, h.triples)
        for _ in range(2):
            bad += cell_chain_within(fresh, masks, parts, cells, eta) != (cert <= eta)
        looped = (masks, parts, cells) in fresh.index.chain_values and paired
        bad += looped != (bound > eta and paired)
    return bad


def hyperedge_index(rng, lo, hi) -> int:
    """``PartiteThreeGraph.from_triples``, whose one placement loop builds
    and checks the hyperedge index, against a literal walk over a drawn
    list T of crossing triples on 3 to 6 parts, each in a random id order,
    some repeated, and over copies of T with one or two bad triples
    inserted (an id in [-total, -1], among them the one that indexes a
    table of the vertices like the id it replaces, below -total, total
    itself, 10^18 or 10^30, a repeated vertex, or a second vertex of one
    part): the z-mask buckets, or the message of the first bad triple.
    On T itself, ``triples`` must be the set of T's sorted triples,
    ``save_partite_3graph`` must write them in order, and ``has_triple``
    must hold on each of them in a random id order and, on random id
    triples, exactly when the sorted triple is in that set."""
    t = 3 + rng.below(4)
    cap = 5 if t < 6 else 3
    vs = PartiteVertexSet.of_sizes(*(_size(rng, min(lo, cap) - 1, min(hi, cap)) for _ in range(t)))
    off, total = vs.offsets, vs.total
    full = [i for i in range(t) if vs.sizes[i]]
    triples = []
    for _ in range(rng.below(3 * total + 1) if len(full) >= 3 else 0):
        parts = map(full.__getitem__, rng.sample(len(full), 3))
        ids = [off[i] + rng.below(vs.sizes[i]) for i in parts]
        rng.shuffle(ids)
        triples.append(tuple(ids))
    triples += triples[: rng.below(len(triples) + 1)]
    trials = [triples]
    for _ in range(3 if triples else 0):
        trial = list(triples)
        for _ in range(1 + rng.below(2)):
            ids = list(triples[rng.below(len(triples))])
            a, b = rng.sample(3, 2)
            i = vs.part_of(ids[b])
            bad_ids = (ids[a] - total, -1 - rng.below(total), -total - 1 - rng.below(3), total,
                       10**18, 10**30, ids[b], off[i] + rng.below(vs.sizes[i]))
            ids[a] = bad_ids[rng.below(len(bad_ids))]
            trial.insert(rng.below(len(trial) + 1), tuple(ids))
        trials.append(trial)
    bad = sum(built_index(vs, trial) != walked_index(vs, trial) for trial in trials)
    h = PartiteThreeGraph.from_triples(vs, triples)
    canon = {tuple(sorted(ids)) for ids in triples}
    bad += h.triples != frozenset(canon)
    bad += save_partite_3graph(h).splitlines()[t:] != ["t %d %d %d" % ids for ids in sorted(canon)]
    for ids in canon:
        ids = list(ids)
        rng.shuffle(ids)
        bad += not h.has_triple(*ids)
    for _ in range(total):
        ids = [rng.below(total + 2) - 1 for _ in range(3)]
        bad += h.has_triple(*ids) != (tuple(sorted(ids)) in canon)
    return bad


def cell_chains(rng, lo, hi) -> int:
    """Every reading of the cell chains of a random cylinder chain
    partition against the naive kernels on the chains cut out.  Per cell
    chain: ``cell_chain_passes`` at every THRESHOLDS pair; the counts and
    certificate of ``cell_chain_stats``, on the chain's cells and on a copy
    widened by random bits outside the masks, which cuts out the same
    chain; and q of the chain taken as one cell, fast, naive and d^2.  Per
    part triple and for the whole partition, q fast against naive.  Then
    the tuple audit against the literal walk, exact at the cap ``space``
    and bounded at ``space - 1``, at every THRESHOLDS pair, and under
    ALL_PASS on the same cylinders with complete cells, where the mass must
    be 1; a bound above the exact mass counts too.  Each audit's survey
    must hold q by ``q_partition``'s naive mode and, in walk order, the
    located chains with triangles and a certificate above eta."""
    h, p = _partitioned(rng, lo, hi)
    vs = h.vertex_set
    facts = {}  # NaiveChains by (cylinder, i, j, k, cell indices), shared with the walk
    bad = 0
    for c, (cyl, ep) in enumerate(zip(p.vertex.cylinders, p.edges)):
        for parts in combinations(range(vs.t), 3):
            pairs = list(combinations(parts, 2))
            pps = tuple(ep.pair(a, b) for a, b in pairs)
            masks = tuple(cyl.masks[a] for a in parts)
            rows = tuple(pp.host_rows for pp in pps)
            qs = {q_cell_chain(h, parts, rows, pps, mode) for mode in ("fast", "naive")}
            bad += len(qs) != 1
            for combo in product(*(range(pp.cell_count) for pp in pps)):
                cells = tuple(pp.cells[n] for pp, n in zip(pps, combo))
                chain = extract_cell_chain(h, masks, parts, cells)
                facts[(c, *parts, combo)] = naive = NaiveChain(chain)
                for eta, psi in THRESHOLDS:
                    verdict = cell_chain_passes(h, cyl, ep, parts, combo, eta, psi)
                    bad += verdict != naive.passes(eta, psi)
                stats = tri, hyp, _ = cell_chain_stats(h, masks, parts, cells)
                counted = triangle_count(chain.graph), chain.hyper.edge_count
                bad += stats != (*counted, naive.cert.value)
                wide = tuple(
                    tuple(row | rng.next_u64() & vs.full_mask(b) & ~cyl.masks[b] for row in cell)
                    for (_, b), cell in zip(pairs, cells)
                )
                bad += cell_chain_stats(h, masks, parts, wide) != stats
                whole = tuple(
                    PairPartition.trivial(
                        pp.left_size, pp.right_size, pp.left_mask, pp.right_mask, cell
                    )
                    for pp, cell in zip(pps, cells)
                )
                qs = {q_cell_chain(h, parts, cells, whole, mode) for mode in ("fast", "naive")}
                bad += qs != {ratio(hyp, tri) ** 2}
    space = prod(vs.sizes)
    complete = CylinderChainPartition(
        p.vertex, tuple(EdgePartition.trivial_for_cylinder(vs, cyl) for cyl in p.vertex.cylinders)
    )
    q_naive = q_partition(h, p, "naive")
    bad += q_partition(h, p, "fast") != q_naive
    runs = [(p, eta, psi, facts, q_naive) for eta, psi in THRESHOLDS]
    runs.append((complete, *ALL_PASS, {}, q_partition(h, complete, "naive")))
    for cut, eta, psi, known, q_naive in runs:
        cyls = cut.vertex.cylinders
        weights = {
            (ci, parts, combo, cells): cyls[ci].weight(vs) * Fraction(tri, size)
            for ci, _, masks, parts, combo, cells in located_cell_chains(h, cut)
            for tri, _, cert in [cell_chain_stats(h, masks, parts, cells)]
            if tri > 0 and cert > eta
            for size in [prod(m.bit_count() for m in masks)]
        }
        exact, bound = literal_audit(h, cut, eta, psi, known)
        bad += bound > exact
        for cap, want in ((space, exact), (space - 1, bound)):
            audit = cylinder_quasirandomness_audit(h, cut, eta, psi, cap)
            bad += audit.degenerate_mass != 0
            bad += audit.good_mass != want
            bad += cut is complete and audit.good_mass != 1
            survey = survey_partition(h, cut, eta, psi, cap)
            bad += survey != PartitionSurvey(q_naive, audit, tuple(weights), sum(weights.values()))
    return bad


def containment(rng, lo, hi) -> int:
    """``lookup`` of every tuple, and ``container`` of the cylinders of a
    second random partition, of its meets with the first (empty ones
    included) and of random cylinders, against a scan over the masks."""
    h, p = _partitioned(rng, lo, hi)
    pv, vs = p.vertex, h.vertex_set
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
    cyls = list(other.cylinders) + meet + loose
    return bad + sum(pv.container(cyl) != scan_container(pv, cyl) for cyl in cyls)


# ---------------------------------------------------------------------------
# The registry.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One named oracle check: ``check`` compares the ``fast`` paths with
    the ``naive`` oracles on one instance; a run gives it one instance in
    ``every``."""

    name: str
    check: Callable[[SplitMix64, int, int], int]
    fast: tuple
    naive: tuple
    every: int


CASES = (
    Case("pair-kernel", pair_kernel, (pair_quasirandomness,), (c4_sum,), 1),
    Case("masked-pair", masked_pair, (masked_pair_quasirandomness,), (c4_sum,), 1),
    Case("cell-terms", cell_terms, (PairPartition.certificate_terms.func,), (c4_sum,), 1),
    Case("pair-bound", pair_bound, (pair_bound_scaled, dlr_cylinder_regularity), (c4_sum,), 1),
    Case("symmetry", symmetry, (rows_symmetric,), (walked_symmetric,), 1),
    Case("from-edges", from_edges, (Graph.from_edges,), (walked_from_edges,), 1),
    Case("overlap", overlap, (first_overlap,), (first_overlap,), 1),
    Case("bulk-draw", bulk_draw, (SplitMix64.accepted,), (SplitMix64.bernoulli,), 1),
    Case("bulk-scan", bulk_scan, (scan, core._bulk_scan), (loop_scan,), 1),
    Case(
        "chain-kernel",
        chain_kernel,
        (chain_quasirandomness, graph_quasirandomness, is_graph_quasirandom, eta_psi_check,
         q_edge_partition),
        (oct_sum, c4_sum),
        4,
    ),
    Case("chain-bound", chain_bound, (chain_first_pass, cell_chain_within),
         (oct_sum, literal_bound), 4),
    Case("hyperedge-index", hyperedge_index,
         (PartiteThreeGraph.from_triples, save_partite_3graph, PartiteThreeGraph.has_triple),
         (walked_index,), 4),
    Case("cell-chains", cell_chains,
         (cell_chain_passes, cell_chain_stats, q_cell_chain, q_partition,
          cylinder_quasirandomness_audit, survey_partition),
         (literal_audit, oct_sum, c4_sum), 4),
    Case("containment", containment,
         (VertexCylinderPartition.lookup, VertexCylinderPartition.container),
         (scan_lookup, scan_container), 4),
)


def run_cases(lo: int, hi: int, cases: int, seed: int) -> dict[str, dict[str, int]]:
    """{case name: {"instances", "mismatches"}} of every case on ``cases``
    instances (one in ``every``), part sizes from lo..hi."""
    out = {}
    for case in CASES:
        rng = SplitMix64(seed ^ crc32(case.name.encode()))
        n = -(-cases // case.every)
        bad = sum(case.check(rng, lo, hi) for _ in range(n))
        out[case.name] = {"instances": n, "mismatches": bad}
    return out
