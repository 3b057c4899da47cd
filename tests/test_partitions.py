"""Partition algebra: q identities, refinement, Venn diagrams, audits."""

from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from regulab.core import (
    BipartiteGraph,
    Chain,
    Graph,
    InvalidStructure,
    MultipartiteGraph,
    PartiteThreeGraph,
    PartiteVertexSet,
    ThreeGraph,
    bits,
    partite_from_graph,
    ratio,
    relative_density,
    restrict_chain,
    triangle_count,
)
from regulab.engines import ConstantsProfile, dlr_cylinder_regularity
from regulab.generators import (
    SplitMix64,
    random_chain,
    random_chain_partition,
    random_cylinder_chain_partition,
    random_pair_partition_cells,
    random_partite_3graph,
    random_vertex_cylinder_partition,
)
from regulab.partitions import (
    ChainPartition,
    CylinderChainPartition,
    EdgePartition,
    HomogeneityAudit,
    MarkovCheck,
    PairPartition,
    VertexCylinder,
    VertexCylinderPartition,
    cell_chain_passes,
    cell_chain_stats,
    cell_chain_within,
    cells_by_label,
    cells_quasirandom,
    common_refinement,
    cylinder_holders,
    cylinder_quasirandomness_audit,
    extract_cell_chain,
    first_overlap,
    homogeneity_audit,
    located_cell_chains,
    markov_split_check,
    q_edge_partition,
    q_partition,
    rational_sqrt,
    refines_cylinder_chain,
    refines_edge,
    refines_pair,
    refines_vertex,
    restrict_chain_partition,
    survey_partition,
    venn_diagram,
)
from regulab.quasirandom import (
    PolyFunction,
    chain_first_pass,
    chain_quasirandomness,
    eta_psi_check,
    masked_chain_quasirandomness,
    masked_pair_quasirandomness,
    pair_quasirandomness,
)
from regulab.oracles import ALL_PASS, THRESHOLDS, literal_audit, scan_container, scan_lookup

from conftest import random_small_chain


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 100)) == Fraction(3, 10)
    assert rational_sqrt(Fraction(1, 25)) == Fraction(1, 5)
    assert rational_sqrt(Fraction(1, 2)) is None
    assert rational_sqrt(Fraction(0)) == 0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32))
def test_trivial_q_is_density_squared(seed):
    rng = SplitMix64(seed)
    c = random_small_chain(rng)
    d = relative_density(c)
    trivial = EdgePartition.trivial_for_graph(c.graph)
    q = q_edge_partition(c, trivial, mode="fast")
    assert q == d * d
    assert 0 <= q <= 1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32))
def test_q_edge_partition_fast_equals_naive(seed):
    rng = SplitMix64(seed)
    c = random_small_chain(rng, max_size=4)
    cells = {}
    for p in ((0, 1), (0, 2), (1, 2)):
        host = c.graph.pair(*p)
        cells[p] = PairPartition(
            host.left_size,
            host.right_size,
            (1 << host.left_size) - 1,
            (1 << host.right_size) - 1,
            host.rows,
            random_pair_partition_cells(rng, host.rows, host.left_size, 3),
        )
    pe = EdgePartition(cells)
    assert q_edge_partition(c, pe, mode="fast") == q_edge_partition(c, pe, mode="naive")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_q_monotone_under_edge_refinement(seed):
    rng = SplitMix64(seed)
    c = random_small_chain(rng, max_size=5)
    coarse_cells = {}
    fine_cells = {}
    for p in ((0, 1), (0, 2), (1, 2)):
        host = c.graph.pair(*p)
        lm = (1 << host.left_size) - 1
        rm = (1 << host.right_size) - 1
        coarse = PairPartition(
            host.left_size, host.right_size, lm, rm, host.rows,
            random_pair_partition_cells(rng, host.rows, host.left_size, 2),
        )
        other = PairPartition(
            host.left_size, host.right_size, lm, rm, host.rows,
            random_pair_partition_cells(rng, host.rows, host.left_size, 2),
        )
        coarse_cells[p] = coarse
        fine_cells[p] = common_refinement([coarse, other])
        assert refines_pair(fine_cells[p], coarse)
    pe_c = EdgePartition(coarse_cells)
    pe_f = EdgePartition(fine_cells)
    assert refines_edge(pe_f, pe_c)
    assert q_edge_partition(c, pe_f) >= q_edge_partition(c, pe_c)


def test_q_partition_bounded_by_triple_count():
    rng = SplitMix64(4)
    for t, sizes in ((3, (3, 3, 3)), (4, (2, 3, 2, 2))):
        h = random_partite_3graph(sizes, Fraction(1, 2), seed=rng.next_u64())
        vs = h.vertex_set
        p = random_cylinder_chain_partition(vs, 3, 2, seed=rng.next_u64())
        q = q_partition(h, p)
        assert 0 <= q <= comb(t, 3)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32))
def test_q_partition_fast_equals_naive(seed):
    rng = SplitMix64(seed)
    h = random_partite_3graph((3, 3, 3), Fraction(1, 2), seed=rng.next_u64())
    p = random_cylinder_chain_partition(h.vertex_set, 2, 2, seed=rng.next_u64())
    assert q_partition(h, p, mode="fast") == q_partition(h, p, mode="naive")


def test_q_partition_rejects_an_unknown_mode():
    h = random_partite_3graph((2, 2, 2), Fraction(1, 2), seed=1)
    with pytest.raises(InvalidStructure, match="unknown mode 'slow'"):
        q_partition(h, CylinderChainPartition.trivial(h.vertex_set), mode="slow")


def test_q_monotone_under_cylinder_refinement():
    rng = SplitMix64(11)
    for _ in range(10):
        h = random_partite_3graph((3, 3, 3), Fraction(1, 2), seed=rng.next_u64())
        vs = h.vertex_set
        coarse = CylinderChainPartition.trivial(vs)
        fine = random_cylinder_chain_partition(vs, 3, 2, seed=rng.next_u64())
        assert refines_cylinder_chain(fine, coarse)
        assert q_partition(h, fine) >= q_partition(h, coarse)


def test_refinement_predicates_reject_non_refinements():
    host = (0b11, 0b11)
    a = PairPartition(2, 2, 0b11, 0b11, host, ((0b01, 0b10), (0b10, 0b01)))
    b = PairPartition(2, 2, 0b11, 0b11, host, ((0b11, 0b00), (0b00, 0b11)))
    assert refines_pair(a, a)
    assert not refines_pair(a, b)


def test_venn_diagram_validity():
    rng = SplitMix64(23)
    vs = PartiteVertexSet.of_sizes(4, 4, 4)
    p = random_cylinder_chain_partition(vs, 4, 2, seed=3)
    q = venn_diagram(p)
    assert q.n == vs.total
    # parts cover [n] without overlap
    seen = sorted(v for part in q.parts for v in part)
    assert seen == list(range(vs.total))
    # every cylinder coordinate is a union of venn parts
    for cyl in p.vertex.cylinders:
        for i in range(vs.t):
            mask = cyl.masks[i]
            global_ids = {vs.to_global(i, x) for x in range(vs.sizes[i]) if mask >> x & 1}
            covered = set()
            for part in q.parts:
                ps = set(part)
                if ps <= global_ids:
                    covered |= ps
                else:
                    assert not (ps & global_ids) or ps <= global_ids
            assert covered == global_ids


def test_venn_diagram_part_count_bound():
    vs = PartiteVertexSet.of_sizes(4, 4, 4)
    for seed in range(8):
        p = random_cylinder_chain_partition(vs, 5, 2, seed=seed)
        q = venn_diagram(p)
        m = len(p.vertex.cylinders)
        assert q.part_count <= vs.t * 2**m


def test_restrict_chain_partition_maps_origin():
    q = random_chain_partition(12, 3, 2, seed=6)
    groups = []
    for part in q.parts:
        mid = max(1, len(part) // 2)
        groups.append([part[:mid], part[mid:]] if part[mid:] else [part[:mid]])
    q2 = restrict_chain_partition(q, groups)
    assert q2.parts == tuple(tuple(p) for cut in groups for p in cut)
    origin = [o for o, cut in enumerate(groups) for _ in cut]
    part_of = {v: o for o, part in enumerate(q.parts) for v in part}
    pos = {v: i for part in q.parts for i, v in enumerate(part)}
    for (a, b), pp in q2.pairs.items():
        if origin[a] == origin[b]:
            assert pp.cell_count == 1
            continue
        # Two edges share a cell exactly when they shared one in the origin pair.
        lab = q.pairs[origin[a], origin[b]].labels
        old = {
            (x, y): lab[pos[u]][pos[v]]
            for x, u in enumerate(q2.parts[a])
            for y, v in enumerate(q2.parts[b])
        }
        new = {(x, y): pp.labels[x][y] for (x, y) in old}
        assert len(set(zip(old.values(), new.values()))) == len(set(old.values())) == len(set(new.values()))
        assert all(part_of[u] == origin[a] for u in q2.parts[a])
    with pytest.raises(InvalidStructure, match="not inside its origin"):
        restrict_chain_partition(q, [groups[1], groups[0], groups[2]])


def test_extract_cell_chain_density():
    h = random_partite_3graph((4, 4, 4), Fraction(1, 2), seed=13)
    vs = h.vertex_set
    masks = (0b0111, 0b1110, 0b1011)
    cells = []
    rng = SplitMix64(2)
    for i, m in enumerate(masks):
        size_i = vs.sizes[i]
        live = [x for x in range(size_i) if m >> x & 1]
        rows = tuple(
            sum(1 << y for y in range(vs.sizes[(i + 1) % 3]) )
            for _ in live
        )
        cells.append(rows)
    # complete cells between the masked sides
    full = []
    pairs = ((0, 1), (0, 2), (1, 2))
    cell_rows = {}
    for (i, j) in pairs:
        rows = tuple(
            masks[j] if masks[i] >> x & 1 else 0 for x in range(vs.sizes[i])
        )
        cell_rows[(i, j)] = rows
    c = extract_cell_chain(h, masks, (0, 1, 2), (cell_rows[(0, 1)], cell_rows[(0, 2)], cell_rows[(1, 2)]))
    la, lb, lc = (m.bit_count() for m in masks)
    assert c.vertex_set.sizes == (la, lb, lc)
    assert triangle_count(c.graph) == la * lb * lc


@pytest.mark.parametrize("seed", range(4))
def test_located_kernel_equals_the_naive_kernel_on_the_copy(seed):
    """The located octahedral kernel, on pair rows that reach outside the
    masks and on masks that may be empty, gives the triangles, hyperedges
    and whole certificate of the chain extract_cell_chain cuts out, the
    certificate by the naive kernel."""
    rng = SplitMix64(seed)
    sizes = tuple(1 + rng.below(5) for _ in range(4))
    h = random_partite_3graph(sizes, Fraction(1, 2), seed=rng.next_u64())
    for parts in combinations(range(4), 3):
        for _ in range(6):
            masks = tuple(rng.next_u64() & ((1 << sizes[a]) - 1) for a in parts)
            cells = tuple(
                tuple(rng.next_u64() & ((1 << sizes[b]) - 1) for _ in range(sizes[a]))
                for a, b in combinations(parts, 2)
            )
            tri, hyp, cert = masked_chain_quasirandomness(cells, masks, h.zmasks(*parts))
            chain = extract_cell_chain(h, masks, parts, cells)
            assert tri == triangle_count(chain.graph)
            assert hyp == chain.hyper.edge_count
            assert cert == chain_quasirandomness(chain, mode="naive")


def test_homogeneity_audit_masses_account_for_everything():
    q = random_chain_partition(10, 3, 2, seed=8)
    from regulab.core import ThreeGraph
    from itertools import combinations

    rng = SplitMix64(5)
    trips = [t for t in combinations(range(10), 3) if rng.bernoulli(Fraction(1, 3))]
    h = ThreeGraph(10, frozenset(trips))
    audit = homogeneity_audit(h, q, Fraction(1, 9))
    # absolute mass = conditional crossing mass scaled by the crossing share
    crossing_share = 1 - audit.noncrossing_mass
    assert audit.homogeneous_mass == audit.homogeneous_crossing_mass * crossing_share
    assert 0 <= audit.homogeneous_mass <= crossing_share <= 1
    assert 0 <= audit.degenerate_mass <= 1
    assert audit.quasirandom_mass == 0  # no psi handed in


def _literal_homogeneity_audit(h, q, gamma, psi) -> HomogeneityAudit:
    """The homogeneity audit written out: every vertex triple of every part
    triple, its three cells read from the cell rows, its hyperedge from
    ``has_triple``, and each cell judged by the naive pair kernel."""
    n = q.n
    tri: dict[tuple, int] = {}
    hyp: dict[tuple, int] = {}
    crossing = 0
    for pa, pb, pc in combinations(range(len(q.parts)), 3):
        A, B, C = q.parts[pa], q.parts[pb], q.parts[pc]
        crossing += 6 * len(A) * len(B) * len(C)
        pps = (q.pairs[pa, pb], q.pairs[pa, pc], q.pairs[pb, pc])
        for (x, u), (y, v), (z, w) in product(enumerate(A), enumerate(B), enumerate(C)):
            combo = tuple(
                next(idx for idx, cell in enumerate(pp.cells) if cell[s] >> r & 1)
                for pp, (s, r) in zip(pps, ((x, y), (x, z), (y, z)))
            )
            key = (pa, pb, pc, combo)
            tri[key] = tri.get(key, 0) + 1
            hyp[key] = hyp.get(key, 0) + h.has_triple(u, v, w)
    hom = qr = 0
    for (pa, pb, pc, combo), t_cnt in tri.items():
        d = Fraction(hyp[pa, pb, pc, combo], t_cnt)
        if d <= gamma or d >= 1 - gamma:
            hom += 6 * t_cnt
        if psi is None:
            continue
        pps = (q.pairs[pa, pb], q.pairs[pa, pc], q.pairs[pb, pc])
        cells = [pp.cells[idx] for pp, idx in zip(pps, combo)]
        dens = [
            Fraction(sum(r.bit_count() for r in cell), pp.left_size * pp.right_size)
            for pp, cell in zip(pps, cells)
        ]
        thresh = psi(prod(dens))
        if all(
            pair_quasirandomness(
                BipartiteGraph(pp.left_size, pp.right_size, cell), mode="naive"
            ).value
            <= thresh
            for pp, cell in zip(pps, cells)
        ):
            qr += 6 * t_cnt
    total = n**3
    return HomogeneityAudit(
        gamma=gamma,
        homogeneous_mass=Fraction(hom, total),
        homogeneous_crossing_mass=Fraction(hom, crossing) if crossing else Fraction(0),
        quasirandom_mass=Fraction(qr, total),
        degenerate_mass=Fraction(0),
        noncrossing_mass=Fraction(total - crossing, total),
    )


def test_homogeneity_audit_matches_a_literal_walk():
    """With and without psi, on random chain partitions of random 3-graphs
    and on Venn diagrams of random cylinder chain partitions."""
    rng = SplitMix64(17)
    cases = []
    for seed in range(3):
        n = 8 + seed
        q = random_chain_partition(n, 3 + seed, 3, seed=40 + seed)
        p_triple = Fraction(1 + seed, 4)
        trips = [t for t in combinations(range(n), 3) if rng.bernoulli(p_triple)]
        cases.append((ThreeGraph(n, frozenset(trips)), q))
    for seed in range(2):
        h = random_partite_3graph((3, 4, 3, 2), Fraction(1, 2), seed=50 + seed)
        p = random_cylinder_chain_partition(h.vertex_set, 3, 3, seed=60 + seed)
        cases.append((h, venn_diagram(p)))
    masses = set()
    for h, q in cases:
        for gamma, psi in THRESHOLDS:
            for with_psi in (None, psi):
                audit = homogeneity_audit(h, q, gamma, with_psi)
                assert audit == _literal_homogeneity_audit(h, q, gamma, with_psi)
                masses.add((audit.homogeneous_mass, audit.quasirandom_mass))
    assert any(0 < hom < 1 and 0 < qr for hom, qr in masses)


@pytest.mark.parametrize("hyperedges", [2, 6])
def test_homogeneity_windows_close_at_gamma(hyperedges):
    """Three parts of two with complete cells: 2 of the 8 triangles as
    hyperedges give d = 1/4, 6 give d = 3/4 = 1 - 1/4.  At gamma = 1/4 the
    chain sits on a window's edge and counts as homogeneous; just below, it
    does not.  Both audits equal the literal walk."""
    triangles = list(product((0, 1), (2, 3), (4, 5)))
    h = ThreeGraph.from_triples(6, triangles[:hyperedges])
    parts = ((0, 1), (2, 3), (4, 5))
    pairs = {pair: PairPartition.complete(2, 2) for pair in combinations(range(3), 2)}
    q = ChainPartition(6, parts, pairs)
    below = Fraction(1, 4) - Fraction(1, 10**9)
    for gamma, crossing in ((Fraction(1, 4), Fraction(1)), (below, Fraction(0))):
        audit = homogeneity_audit(h, q, gamma)
        assert audit.homogeneous_crossing_mass == crossing
        assert audit == _literal_homogeneity_audit(h, q, gamma, None)


def _literal_markov_check(c, vertex_splits, edge_splits, gamma) -> MarkovCheck:
    """The Markov check written out: every triangle of the chain keyed by its
    three vertex blocks and three edge blocks (block 0 where a pair has no
    split), its hyperedge from ``has_triple``."""
    vs = c.vertex_set
    off = vs.offsets

    def block(blocks, test):
        return next(idx for idx, b in enumerate(blocks) if test(b))

    tri: dict[tuple, int] = {}
    hyp: dict[tuple, int] = {}
    for x, y, z in product(*(range(s) for s in vs.sizes)):
        edges = {(0, 1): (x, y), (0, 2): (x, z), (1, 2): (y, z)}
        if not all(c.graph.pair(i, j).has_edge(*e) for (i, j), e in edges.items()):
            continue
        key = tuple(block(vertex_splits[i], lambda b: a in b) for i, a in enumerate((x, y, z)))
        for pk, (a, b) in edges.items():
            blocks = (edge_splits or {}).get(pk)
            key += (block(blocks, lambda rows: rows[a] >> b & 1) if blocks else 0,)
        tri[key] = tri.get(key, 0) + 1
        hyp[key] = hyp.get(key, 0) + c.hyper.has_triple(off[0] + x, off[1] + y, off[2] + z)
    d = relative_density(c)
    direction = "sparse" if d < gamma else "dense"
    bad = 0
    for key, t_cnt in tri.items():
        dens = Fraction(hyp[key], t_cnt)
        escape = dens if direction == "sparse" else 1 - dens
        if escape * escape >= gamma:
            bad += t_cnt
    mass_bad = Fraction(bad, sum(tri.values()))
    return MarkovCheck(mass_bad, gamma, rational_sqrt(gamma), direction, mass_bad**2 < gamma)


def test_markov_split_check_matches_a_literal_walk():
    """Both windows, with edge splits on every pair, on some pairs and on
    none."""
    rng = SplitMix64(23)
    gamma = Fraction(1, 9)
    seen = set()
    for p_triple in (Fraction(1, 30), Fraction(29, 30)):
        checked = 0
        while checked < 4:
            c = random_chain((4, 5, 4), Fraction(3, 4), p_triple, seed=rng.next_u64())
            d = relative_density(c)
            if not (0 < d < gamma or 1 - gamma < d < 1):
                continue
            vs = c.vertex_set
            vertex_splits = []
            for size in vs.sizes:
                pivot = 1 + rng.below(size - 1)
                vertex_splits.append([list(range(pivot)), list(range(pivot, size))])
            all_splits = {
                (i, j): random_pair_partition_cells(
                    rng, c.graph.pair(i, j).rows, vs.sizes[i], 2 + rng.below(2)
                )
                for i, j in ((0, 1), (0, 2), (1, 2))
            }
            some_splits = {pk: all_splits[pk] for pk in ((0, 1), (1, 2))}
            for edge_splits in (all_splits, some_splits, None):
                check = markov_split_check(c, vertex_splits, edge_splits, gamma)
                assert check == _literal_markov_check(c, vertex_splits, edge_splits, gamma)
                seen.add((check.direction, check.mass_bad > 0))
            checked += 1
    assert {"sparse", "dense"} == {direction for direction, _ in seen}
    assert any(bad for _, bad in seen)


def test_markov_split_sparse_window():
    rng = SplitMix64(31)
    gamma = Fraction(1, 25)
    checked = 0
    while checked < 10:
        c = random_chain((6, 6, 6), Fraction(4, 5), Fraction(1, 50), seed=rng.next_u64())
        if not (0 < relative_density(c) < gamma):
            continue
        vs = c.vertex_set
        splits = []
        for i in range(3):
            pivot = 1 + rng.below(vs.sizes[i] - 1)
            splits.append([list(range(pivot)), list(range(pivot, vs.sizes[i]))])
        check = markov_split_check(c, splits, None, gamma)
        assert check.ok
        assert check.mass_bad * check.mass_bad < gamma
        checked += 1


def test_markov_split_rejects_middle_density():
    c = random_chain((4, 4, 4), Fraction(1), Fraction(1, 2), seed=3)
    with pytest.raises(InvalidStructure):
        markov_split_check(c, [[list(range(4))]] * 3, None, Fraction(1, 25))


def test_cylinder_audit_modes():
    h = random_partite_3graph((4, 4, 4), Fraction(1, 2), seed=19)
    p = CylinderChainPartition.trivial(h.vertex_set)
    from regulab.quasirandom import PolyFunction

    psi = PolyFunction(Fraction(1), 1)
    audit = cylinder_quasirandomness_audit(h, p, Fraction(1, 4), psi)
    assert audit.mode == "exhaustive"
    assert 0 <= audit.good_mass <= 1
    bounded = cylinder_quasirandomness_audit(h, p, Fraction(1, 4), psi, cap=1)
    assert bounded.mode == "bounded"
    assert 0 <= bounded.good_mass <= audit.good_mass


def test_cell_chain_evaluator_warm_equals_cold():
    """Surveys and q read the same numbers from a hypergraph whose evaluator
    already holds earlier partitions' chains as from a fresh, equal
    hypergraph; the survey's q equals q in both modes, its useful chains
    the filter over the located chains, in walk order, and every stored
    entry agrees with a direct extraction certified by the naive kernel:
    its counts equal the copy's, its bound is at least the copy's
    certificate and its exact value, where one is stored, equals it."""
    from regulab.quasirandom import PolyFunction, chain_quasirandomness

    psi = PolyFunction(Fraction(1), 1)
    eta = Fraction(1, 4)
    warm = random_partite_3graph((4, 5, 4, 3), Fraction(1, 2), seed=23)
    vs = warm.vertex_set
    parts = [random_cylinder_chain_partition(vs, 3, 2, seed=s) for s in (5, 6, 7)]
    for p in parts:
        survey_partition(warm, p, eta, psi)
        q_partition(warm, p)
    stored = dict(warm.index.cell_chains)
    assert stored
    useful = 0
    for p in parts:
        cold = PartiteThreeGraph.from_triples(vs, warm.triples)
        survey = survey_partition(warm, p, eta, psi)
        assert survey == survey_partition(cold, p, eta, psi)
        assert survey.audit == cylinder_quasirandomness_audit(cold, p, eta, psi)
        assert survey.q == q_partition(warm, p) == q_partition(cold, p)
        assert survey.q == q_partition(warm, p, "naive")
        want = {
            (ci, ijk, combo, cells): p.vertex.cylinders[ci].weight(vs) * Fraction(tri, size)
            for ci, _, masks, ijk, combo, cells in located_cell_chains(warm, p)
            for tri, _, cert in [cell_chain_stats(warm, masks, ijk, cells)]
            if tri > 0 and cert > eta
            for size in [prod(m.bit_count() for m in masks)]
        }
        assert list(survey.useful) == list(want)
        assert survey.useful_mass == sum(want.values())
        useful += len(want)
    assert useful
    # Re-reading added nothing: every chain's first pass ran once.
    assert warm.index.cell_chains == stored
    values = warm.index.chain_values
    assert values.keys() <= stored.keys()
    extracted = exact = 0
    for key, (tri, hyp, bound) in stored.items():
        chain = extract_cell_chain(warm, *key)
        assert tri == triangle_count(chain.graph)
        assert hyp == chain.hyper.edge_count
        cert = chain_quasirandomness(chain, mode="naive").value if tri else 0
        assert Fraction(*bound) >= cert
        if key in values:
            assert values[key] == cert
            exact += 1
        extracted += tri > 0
    assert extracted and exact


@pytest.mark.parametrize("seed", range(6))
def test_cells_by_label_partitions_the_host_in_label_order(seed):
    rng = SplitMix64(seed)
    left, right = 1 + rng.below(6), 1 + rng.below(6)
    host = [rng.below(1 << right) for _ in range(left)]
    table = {(x, y): (rng.below(3), rng.below(2)) for x in range(left) for y in range(right)}
    label = lambda x, y: table[(x, y)]
    cells = cells_by_label(left, host, label)
    for x in range(left):
        union = 0
        for cell in cells:
            assert not cell[x] & union
            union |= cell[x]
        assert union == host[x]
    if any(host):
        keys = []
        for cell in cells:
            labels = {label(x, y) for x in range(left) for y in range(right) if cell[x] >> y & 1}
            assert len(labels) == 1
            keys.append(labels.pop())
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
    else:
        assert cells == ((0,) * left,)
    PairPartition(left, right, (1 << left) - 1, (1 << right) - 1, tuple(host), cells)


def test_cells_by_label_empty_host_gives_one_empty_cell():
    assert cells_by_label(3, (0, 0, 0), lambda x, y: 1 / 0) == ((0, 0, 0),)
    assert cells_by_label(2, (0b11, 0b01), lambda x, y: 0) == ((0b11, 0b01),)


def _compacted_cell(cell, left_mask: int, right_mask: int) -> BipartiteGraph:
    """A cell as a standalone bipartite graph on its masked sides."""
    from regulab.core import bits

    ys = list(bits(right_mask))
    rows = tuple(
        sum(1 << pos for pos, y in enumerate(ys) if cell[x] >> y & 1) for x in bits(left_mask)
    )
    return BipartiteGraph(left_mask.bit_count(), len(ys), rows)


@pytest.mark.parametrize("sizes", [(4, 5, 4), (3, 4, 3, 4)], ids=["t3", "t4"])
def test_cell_half_of_the_test_matches_eta_psi_check(sizes):
    """The tuple audit's per-chain verdict, cell_chain_passes (cells_quasirandom
    plus the evaluator's chain certificate <= eta), equals eta_psi_check on
    the extracted chain with the naive kernels; each pair partition's cached
    labels, edge counts over its area and certificate terms equal a scan of
    its cells and the naive certificate of each compacted cell."""
    from regulab.core import bits
    from regulab.quasirandom import pair_quasirandomness

    verdicts = []
    for seed in range(3):
        h = random_partite_3graph(sizes, Fraction(1, 2), seed=40 + seed)
        vs = h.vertex_set
        p = random_cylinder_chain_partition(vs, 3, 3, seed=50 + seed)
        for cyl, ep in zip(p.vertex.cylinders, p.edges):
            for pp in ep.pairs.values():
                for x in range(pp.left_size):
                    want = [-1] * pp.right_size
                    for idx, cell in enumerate(pp.cells):
                        for y in bits(cell[x]):
                            want[y] = idx
                    assert pp.labels[x] == tuple(want)
                for idx, cell in enumerate(pp.cells):
                    g = _compacted_cell(cell, pp.left_mask, pp.right_mask)
                    assert ratio(pp.edge_counts[idx], pp.area) == g.density()
                    cert = pair_quasirandomness(g, mode="naive").value
                    assert pp.certificate_terms[idx] == (cert.numerator, cert.denominator)
            for (i, j, k) in combinations(range(vs.t), 3):
                pps = (ep.pair(i, j), ep.pair(i, k), ep.pair(j, k))
                masks = (cyl.masks[i], cyl.masks[j], cyl.masks[k])
                for combo in product(*(range(pp.cell_count) for pp in pps)):
                    cells = tuple(pp.cells[idx] for pp, idx in zip(pps, combo))
                    chain = extract_cell_chain(h, masks, (i, j, k), cells)
                    for eta, psi in THRESHOLDS:
                        verdict = cell_chain_passes(h, cyl, ep, (i, j, k), combo, eta, psi)
                        assert verdict == eta_psi_check(chain, eta, psi, mode="naive")
                        verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


def test_tuple_audit_reads_each_located_chain_once(monkeypatch):
    """After q_partition the audit adds nothing to the evaluator's store of
    counts and bounds, and within one audit it asks cell_chain_passes at
    most once per (masks, parts, cells), however many cylinders share that
    projection."""
    import regulab.partitions as partitions

    keys = []
    passes = partitions.cell_chain_passes

    def counted(h, cyl, ep, parts, combo, eta, psi):
        pps = [ep.pair(a, b) for a, b in combinations(parts, 2)]
        cells = tuple(pp.cells[n] for pp, n in zip(pps, combo))
        keys.append((tuple(cyl.masks[a] for a in parts), parts, cells))
        return passes(h, cyl, ep, parts, combo, eta, psi)

    monkeypatch.setattr(partitions, "cell_chain_passes", counted)
    for seed in range(3):
        h = random_partite_3graph((3, 4, 3, 4), Fraction(1, 2), seed=40 + seed)
        p = random_cylinder_chain_partition(h.vertex_set, 6, 3, seed=50 + seed)
        q_partition(h, p)
        stored = dict(h.index.cell_chains)
        for eta, psi in THRESHOLDS:
            for cap in (10**6, 1):
                keys.clear()
                cylinder_quasirandomness_audit(h, p, eta, psi, cap)
                assert keys and len(keys) == len(set(keys))
        assert h.index.cell_chains == stored


def test_audits_read_warm_cell_facts_as_fresh_ones():
    """Audits on partitions whose cell facts are already cached equal audits
    on equal, freshly built partitions."""
    from regulab.quasirandom import PolyFunction

    psi = PolyFunction(Fraction(1, 2), 1)
    eta = Fraction(1, 4)
    for seed in range(3):
        h = random_partite_3graph((3, 4, 3, 2), Fraction(1, 2), seed=60 + seed)
        vs = h.vertex_set
        warm = random_cylinder_chain_partition(vs, 3, 3, seed=70 + seed)
        first = cylinder_quasirandomness_audit(h, warm, eta, psi)
        warm_chain = venn_diagram(warm)
        first_hom = homogeneity_audit(h, warm_chain, eta, psi)
        pp = warm.edges[0].pair(0, 1)
        assert {"labels", "area", "edge_counts", "certificate_terms"} <= set(vars(pp))
        cold = random_cylinder_chain_partition(vs, 3, 3, seed=70 + seed)
        assert cold == warm and "certificate_terms" not in vars(cold.edges[0].pair(0, 1))
        cold_h = PartiteThreeGraph.from_triples(vs, h.triples)
        assert cylinder_quasirandomness_audit(h, warm, eta, psi) == first
        assert cylinder_quasirandomness_audit(cold_h, cold, eta, psi) == first
        assert homogeneity_audit(h, warm_chain, eta, psi) == first_hom
        assert homogeneity_audit(cold_h, venn_diagram(cold), eta, psi) == first_hom


def _with_empty_cylinder(p: CylinderChainPartition) -> CylinderChainPartition:
    """``p`` with a cylinder whose first mask is empty put in front."""
    vs = p.vertex.vertex_set
    empty = VertexCylinder((0,) + tuple(vs.full_mask(i) for i in range(1, vs.t)))
    return CylinderChainPartition(
        VertexCylinderPartition(vs, (empty,) + p.vertex.cylinders),
        (EdgePartition.trivial_for_cylinder(vs, empty),) + p.edges,
    )


def _with_complete_cells(p: CylinderChainPartition) -> CylinderChainPartition:
    """``p``'s cylinders, each pair one complete cell."""
    vs = p.vertex.vertex_set
    return CylinderChainPartition(
        p.vertex, tuple(EdgePartition.trivial_for_cylinder(vs, cyl) for cyl in p.vertex.cylinders)
    )


def _with_parity_cells(p: CylinderChainPartition, carriers) -> CylinderChainPartition:
    """``p``'s cylinders, each pair inside a ``carriers`` triple cut into two
    cells by the parity of x + y and every other pair one complete cell."""
    vs = p.vertex.vertex_set
    inside = {pair for triple in carriers for pair in combinations(triple, 2)}
    edges = []
    for cyl in p.vertex.cylinders:
        pairs = {}
        for i, j in combinations(range(vs.t), 2):
            host = cyl.host_rows(vs, i, j)
            cut = (i, j) in inside
            cells = cells_by_label(vs.sizes[i], host, lambda x, y: (x + y) % 2 if cut else 0)
            pairs[i, j] = PairPartition(vs.sizes[i], vs.sizes[j], cyl.masks[i], cyl.masks[j], host, cells)
        edges.append(EdgePartition(pairs))
    return CylinderChainPartition(p.vertex, tuple(edges))


@pytest.mark.parametrize(
    "sizes, carriers",
    [
        ((4, 5, 4), None),
        ((3, 4, 3, 4), None),
        ((2, 3, 2, 3, 2), None),
        ((2, 2, 2, 2, 2, 2), ((0, 1, 3), (1, 3, 5))),
    ],
    ids=["t3", "t4", "t5", "t6"],
)
def test_tuple_audit_matches_a_literal_walk(sizes, carriers):
    """Exhaustive and bounded audits equal the literal walk, on random
    cylinder chain partitions with an empty cylinder, for every (eta, psi)
    pair and for ALL_PASS on the same cylinders with complete cells, where
    the mass is 1 in both modes; no tuple is degenerate.  The bound is at
    most the exact mass.  At t = 3 a tuple has one part triple, so failing
    chains never overlap and the bound is exact; from t = 4 on it falls
    below the exact mass on some instance and equals it on another.  In
    t6 only the ``carriers`` part triples hold hyperedges and only their
    pairs have two cells, so the failing chains touch parts 0, 1, 3 and 5,
    and parts 2 and 4 are free."""
    masses = set()
    gaps = set()
    for seed in range(2):
        h = random_partite_3graph(sizes, Fraction(1, 2), seed=80 + seed)
        vs = h.vertex_set
        p = random_cylinder_chain_partition(vs, 3, 3, seed=90 + seed)
        if carriers is not None:
            on = [tr for tr in h.triples if tuple(map(vs.part_of, tr)) in carriers]
            h = PartiteThreeGraph.from_triples(vs, on)
            p = _with_parity_cells(p, carriers)
        p = _with_empty_cylinder(p)
        runs = [(p, eta, psi) for eta, psi in THRESHOLDS]
        runs.append((_with_complete_cells(p), *ALL_PASS))
        for q, eta, psi in runs:
            exact, bound = literal_audit(h, q, eta, psi)
            assert bound <= exact
            gaps.add(bound < exact)
            for mode, cap, want in (("exhaustive", prod(sizes), exact),
                                    ("bounded", prod(sizes) - 1, bound)):
                audit = cylinder_quasirandomness_audit(h, q, eta, psi, cap)
                assert audit.mode == mode
                assert audit.good_mass == want
                assert audit.degenerate_mass == 0
                if (eta, psi) == ALL_PASS:
                    assert audit.good_mass == 1
                masses.add(audit.good_mass)
    assert len(masses) > 2 and any(0 < m < 1 for m in masses)
    assert gaps == ({False} if len(sizes) == 3 else {True, False})


def test_an_empty_part_passes_both_verdicts():
    """Density over an empty side is 0/0 = 0, so eta_psi_check passes a chain
    with an empty part in both modes, as cell_chain_passes passes the cell
    chain of a cylinder with an empty mask."""
    assert BipartiteGraph(2, 0, (0, 0)).density() == 0
    h = random_partite_3graph((2, 3, 2), Fraction(1, 2), seed=5)
    p = _with_empty_cylinder(random_cylinder_chain_partition(h.vertex_set, 2, 2, seed=6))
    cyl, ep = p.vertex.cylinders[0], p.edges[0]
    cells = tuple(ep.pair(a, b).cells[0] for a, b in ((0, 1), (0, 2), (1, 2)))
    chains = [
        extract_cell_chain(h, cyl.masks, (0, 1, 2), cells),
        random_chain((2, 0, 2), Fraction(1), Fraction(1, 2), seed=1),
    ]
    assert [c.vertex_set.sizes for c in chains] == [(0, 3, 2), (2, 0, 2)]
    for eta, psi in THRESHOLDS:
        assert cell_chain_passes(h, cyl, ep, (0, 1, 2), (0, 0, 0), eta, psi)
        for chain in chains:
            assert eta_psi_check(chain, eta, psi, mode="fast")
            assert eta_psi_check(chain, eta, psi, mode="naive")


def _cells_pass_in_fractions(pps, combo, psi) -> bool:
    """The cell half of the (eta, psi) test in fractions: each compacted
    cell's naive certificate at most psi of the product of their densities."""
    graphs = [
        _compacted_cell(pp.cells[idx], pp.left_mask, pp.right_mask) for pp, idx in zip(pps, combo)
    ]
    thresh = psi(prod(g.density() for g in graphs))
    return all(pair_quasirandomness(g, mode="naive").value <= thresh for g in graphs)


def test_eta_at_a_chain_certificate_is_a_tie():
    """With eta equal to a located chain's certificate the chain passes
    cell_chain_passes and is not useful; just below it, it fails and is."""
    psi = PolyFunction(Fraction(1), 1)
    ties = 0
    for seed in range(3):
        h = random_partite_3graph((3, 4, 3, 2), Fraction(1, 2), seed=80 + seed)
        p = _with_complete_cells(random_cylinder_chain_partition(h.vertex_set, 3, 1, seed=90))
        chains = [
            (ci, parts, combo, cert)
            for ci, _, masks, parts, combo, cells in located_cell_chains(h, p)
            for tri, _, cert in [cell_chain_stats(h, masks, parts, cells)]
            if tri and cert
        ]
        for ci, parts, combo, cert in chains[:4]:
            cyl, ep = p.vertex.cylinders[ci], p.edges[ci]
            for eta, passes in ((cert, True), (cert - Fraction(1, 10**9), False)):
                assert cell_chain_passes(h, cyl, ep, parts, combo, eta, psi) is passes
                survey = survey_partition(h, p, eta, psi)
                useful = {(row[0], row[1], row[2]) for row in survey.useful}
                assert ((ci, parts, combo) in useful) is not passes
            ties += 1
    assert ties


def _counted(monkeypatch, module, name) -> list:
    """Arguments of every call of ``module.name`` from here on."""
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("seed", range(3))
def test_bound_first_verdict_equals_the_exact_one(seed, monkeypatch):
    """cell_chain_within equals certificate <= eta at eta = the certificate,
    just below it, at the stored bound and at every THRESHOLDS eta, read
    first on a cold index and then warm; the bound is at least the
    certificate, and the pair loop runs, once, only when the bound is above
    eta and is not the certificate already."""
    import regulab.partitions as partitions

    loops = _counted(monkeypatch, partitions, "chain_pair_total")
    h = random_partite_3graph((3, 4, 3, 4), Fraction(1, 2), seed=100 + seed)
    p = random_cylinder_chain_partition(h.vertex_set, 3, 2, seed=110 + seed)
    looped = strict = 0
    for _, _, masks, parts, _, cells in located_cell_chains(h, p):
        tri, _, cert = cell_chain_stats(h, masks, parts, cells)
        fp = chain_first_pass(cells, masks, h.zmasks(*parts))
        bound = Fraction(*h.index.cell_chains[(masks, parts, cells)][2])
        assert bound == Fraction(*fp.scaled(fp.diagonal)) >= cert
        strict += bound > cert
        etas = [cert, cert - Fraction(1, 10**9), bound] + [eta for eta, _ in THRESHOLDS]
        for eta in etas:
            cold = PartiteThreeGraph.from_triples(h.vertex_set, h.triples)
            loops.clear()
            for _ in range(2):
                assert cell_chain_within(cold, masks, parts, cells, eta) is (cert <= eta)
            assert len(loops) == (bound > eta and fp.paired)
            looped += len(loops)
    assert looped and strict


def test_surveying_the_bench_30_cube_cuts_no_rows(monkeypatch):
    """Surveying the first instance of the benchmark's hyper-cylinder
    workload at seed 0 (a random 30^3 partite 3-graph, p = 1/2) on the
    trivial partition makes one first pass, which holds its chain as 30
    plane pairs, one per y, and decides it by its bound: the pair loop,
    the only reader that cuts the planes into per-x rows, never runs."""
    import regulab.partitions as partitions

    passes = _counted(monkeypatch, partitions, "chain_first_pass")
    loops = _counted(monkeypatch, partitions, "chain_pair_total")
    h = random_partite_3graph((30, 30, 30), Fraction(1, 2), seed=1607537136)
    eta, psi = Fraction(1, 4), PolyFunction(Fraction(1), 1)
    survey = survey_partition(h, CylinderChainPartition.trivial(h.vertex_set), eta, psi)
    assert survey.audit.good_mass == 1 and not survey.useful
    assert len(passes) == 1 and not loops
    fp = chain_first_pass(*passes[0])
    assert fp.paired and Fraction(*fp.scaled(fp.diagonal)) <= eta
    assert len(fp.planes) == 30


def test_a_30_cube_cylinder_run_never_runs_the_pair_loop(monkeypatch):
    """On the bench's criterion-6 instance, a random 30^3 partite 3-graph,
    the cylinder engine decides every chain by its bound: the pair loop
    never runs.  A re-survey of its partition on the warm index runs
    neither half of the kernel, and q_partition alone, on a cold index and
    on random partitions, runs first passes only."""
    import regulab.partitions as partitions
    from regulab.engines import ConstantsProfile, hyper_cylinder_regularity

    psi = PolyFunction(Fraction(1), 1)
    eta = Fraction(1, 4)
    passes = _counted(monkeypatch, partitions, "chain_first_pass")
    loops = _counted(monkeypatch, partitions, "chain_pair_total")
    h = random_partite_3graph((30, 30, 30), Fraction(1, 2), seed=1)
    p, audit, _ = hyper_cylinder_regularity(h, eta, psi, ConstantsProfile.desk())
    assert audit.good_mass == 1
    assert len(passes) == len(h.index.cell_chains) > 0 and not loops
    passes.clear()
    survey_partition(h, p, eta, psi)
    assert not passes and not loops
    small = random_partite_3graph((3, 4, 3, 4), Fraction(1, 2), seed=7)
    for seed in range(3):
        q = random_cylinder_chain_partition(small.vertex_set, 3, 2, seed=seed)
        cold = PartiteThreeGraph.from_triples(small.vertex_set, small.triples)
        passes.clear()
        assert q_partition(cold, q) == q_partition(small, q, "naive")
        assert len(passes) == len(cold.index.cell_chains) > 0
    assert not loops


@pytest.mark.parametrize("k", [1, 2, 3])
def test_psi_at_a_cell_certificate_is_a_tie(k):
    """With psi(delta) = c delta^k set exactly to the largest certificate of
    a chain's cells the cells pass, and with a slightly smaller c they fail,
    as in fractions; the THRESHOLDS rates, psi = (1/3, 3) among them, agree
    with fractions too."""
    complete = PairPartition.complete(4, 5)
    # Cells of 19 edges: the complete 4x5 host less one edge.
    missing = [
        PairPartition.complete(4, 5, lambda x, y, cut=cut: (x, y) == cut)
        for cut in ((0, 0), (1, 2), (3, 4))
    ]
    for pps in ((missing[0], complete, complete), tuple(missing)):
        combo = (0,) * len(pps)
        graphs = [_compacted_cell(pp.cells[0], pp.left_mask, pp.right_mask) for pp in pps]
        delta = prod(g.density() for g in graphs)
        top = max(pair_quasirandomness(g, mode="naive").value for g in graphs)
        assert 0 < top and 0 < delta < 1
        c = top / delta**k
        assert c <= 1
        below = c * (1 - Fraction(1, 10**9))
        for psi, passes in ((PolyFunction(c, k), True), (PolyFunction(below, k), False)):
            assert cells_quasirandom(pps, combo, psi) is passes
            assert _cells_pass_in_fractions(pps, combo, psi) is passes
        for _, psi in THRESHOLDS:
            assert cells_quasirandom(pps, combo, psi) == _cells_pass_in_fractions(pps, combo, psi)


def test_an_empty_mask_leaves_only_zero_certificates():
    """A cylinder with an empty mask has delta = 0/0 = 0, so psi(delta) = 0
    and only cells of certificate 0 pass: a parity cut of its non-empty
    pair fails, its complete cells pass, and both verdicts equal
    eta_psi_check (naive) on the extracted chain and the cell half in
    fractions."""
    h = random_partite_3graph((2, 3, 2), Fraction(1, 2), seed=5)
    vs = h.vertex_set
    p = _with_empty_cylinder(random_cylinder_chain_partition(vs, 2, 2, seed=6))
    cyl = p.vertex.cylinders[0]
    parity = PairPartition.complete(3, 2, lambda x, y: (x + y) % 2)
    trivial = p.edges[0]
    cut = EdgePartition({**trivial.pairs, (1, 2): parity})
    verdicts = set()
    for ep in (trivial, cut):
        pps = (ep.pair(0, 1), ep.pair(0, 2), ep.pair(1, 2))
        assert pps[0].area == pps[1].area == 0
        for combo in product(*(range(pp.cell_count) for pp in pps)):
            cells = tuple(pp.cells[idx] for pp, idx in zip(pps, combo))
            chain = extract_cell_chain(h, cyl.masks, (0, 1, 2), cells)
            for eta, psi in THRESHOLDS:
                verdict = cell_chain_passes(h, cyl, ep, (0, 1, 2), combo, eta, psi)
                assert verdict == eta_psi_check(chain, eta, psi, mode="naive")
                fractions = _cells_pass_in_fractions(pps, combo, psi)
                assert cells_quasirandom(pps, combo, psi) == fractions
                verdicts.add((ep is cut, verdict))
    assert verdicts == {(False, True), (True, False)}


@pytest.mark.parametrize("left_mask, right_mask", [(0, 0b111), (0b11, 0), (0, 0)])
def test_certificate_terms_on_an_empty_side_are_zero_over_one(left_mask, right_mask):
    """A pair restricted to an empty mask has area 0; each remaining cell's
    certificate terms are (0, 1), the terms of the degenerate value that
    masked_pair_quasirandomness gives there."""
    pp = PairPartition.complete(2, 3, lambda x, y: (x + y) % 2).restrict(left_mask, right_mask)
    assert pp.area == 0
    left = [x for x in range(pp.left_size) if pp.left_mask >> x & 1]
    for cell, terms in zip(pp.cells, pp.certificate_terms):
        value = masked_pair_quasirandomness(cell, left, pp.right_mask).value
        assert terms == (value.numerator, value.denominator) == (0, 1)


def _random_cylinder_family(rng: SplitMix64, vs: PartiteVertexSet, m: int) -> list[VertexCylinder]:
    """A random partition's (about m) cylinders with up to two edits, each
    widening a mask or inserting a copy, an empty cylinder or random masks,
    so that about half of the families overlap."""
    pv = random_vertex_cylinder_partition(vs, m, rng.next_u64())
    masks = [cyl.masks for cyl in pv.cylinders]
    for _ in range(rng.below(3)):
        kind = rng.below(4)
        if kind == 0:
            c, i = rng.below(len(masks)), rng.below(vs.t)
            row = list(masks[c])
            row[i] |= rng.next_u64() & vs.full_mask(i)
            masks[c] = tuple(row)
            continue
        if kind == 1:
            new = masks[rng.below(len(masks))]
        else:
            row = [rng.next_u64() & vs.full_mask(i) for i in range(vs.t)]
            if kind == 2:
                row[rng.below(vs.t)] = 0
            new = tuple(row)
        masks.insert(rng.below(len(masks) + 1), new)
    return [VertexCylinder(m) for m in masks]


def test_linear_overlap_check_names_the_pairwise_checks_first_pair():
    """600 small families, then 60 of about 100 cylinders on three parts of
    5 to 7 vertices, whose holder bitsets pass a machine word and whose
    parts repeat masks, so each distinct mask stands for many cylinders."""
    rng = SplitMix64(31)
    found = set()
    overlapping = wide_overlapping = past_a_word = 0
    for n in range(660):
        if n < 600:
            vs = PartiteVertexSet.of_sizes(*(1 + rng.below(4) for _ in range(1 + rng.below(4))))
            cyls = _random_cylinder_family(rng, vs, 1 + rng.below(10))
        else:
            vs = PartiteVertexSet.of_sizes(*(5 + rng.below(3) for _ in range(3)))
            cyls = _random_cylinder_family(rng, vs, 100)
            assert len(cyls) > 64
            assert all(len({cyl.masks[i] for cyl in cyls}) < len(cyls) // 2 for i in range(3))
        pair = first_overlap(vs, cyls, "naive")
        assert first_overlap(vs, cyls) == pair
        if pair is None:
            continue
        if n < 600:
            overlapping += 1
        else:
            wide_overlapping += 1
            past_a_word += pair[1] >= 64
        found.add(pair)
        with pytest.raises(InvalidStructure, match=f"^cylinders {pair[0]} and {pair[1]} overlap$"):
            VertexCylinderPartition(vs, tuple(cyls))
    assert 200 <= overlapping <= 400, overlapping
    assert 20 <= wide_overlapping <= 40 and past_a_word, (wide_overlapping, past_a_word)
    assert len(found) > 20


def _literal_holders(vs, cylinders):
    """One bit per (cylinder, vertex): bit c in the row of every vertex of
    every mask of cylinder c."""
    holders = [[0] * s for s in vs.sizes]
    for c, cyl in enumerate(cylinders):
        for part, m in zip(holders, cyl.masks):
            for x in bits(m):
                part[x] |= 1 << c
    return tuple(map(tuple, holders))


def test_holders_match_a_literal_walk():
    """``holders`` (and ``cylinder_holders`` on overlapping families) equals
    the per-cylinder walk on partitions of more than 64 cylinders, also with
    cylinders empty on some part added: an empty mask carries no vertex."""
    rng = SplitMix64(71)
    for _ in range(12):
        vs = PartiteVertexSet.of_sizes(*(5 + rng.below(3) for _ in range(3 + rng.below(2))))
        pv = random_vertex_cylinder_partition(vs, 65 + rng.below(60), rng.next_u64())
        cases = (pv, _with_empty_cylinders(pv, rng.next_u64()))
        for case in cases:
            assert len(case.cylinders) > 64
            assert case.holders == _literal_holders(vs, case.cylinders)
        for c, cyl in enumerate(cases[1].cylinders):
            for part, m in zip(cases[1].holders, cyl.masks):
                assert m or not any(held >> c & 1 for held in part)
        cyls = _random_cylinder_family(rng, vs, 100)
        assert cylinder_holders(vs, cyls) == _literal_holders(vs, cyls)


@pytest.mark.parametrize(
    "masks, message",
    [
        (((0b11,), (0b11, 0b11), (0b11, 0b11)), "cylinder arity does not match parts"),
        (((0b11, 0b11), (0b11, 0b111)), "cylinder mask out of part range"),
        (((0b11, 0b11), (0b01, 0b01)), "cylinders 0 and 1 overlap"),
        (((0b01, 0b11),), "cylinders cover 2 of 4 tuples"),
    ],
)
def test_validate_reports_arity_and_range_then_overlap_then_coverage(masks, message):
    vs = PartiteVertexSet.of_sizes(2, 2)
    with pytest.raises(InvalidStructure) as info:
        VertexCylinderPartition(vs, tuple(VertexCylinder(m) for m in masks))
    assert str(info.value) == message


def test_validate_takes_4096_one_tuple_cylinders():
    """Twelve parts of two shattered into single tuples: the pairwise check
    tests 8.4 million pairs, the linear one reads each mask once."""
    vs = PartiteVertexSet.of_sizes(*([2] * 12))
    tuples = list(product((1, 2), repeat=12))
    cyls = tuple(VertexCylinder(m) for m in tuples)
    assert len(VertexCylinderPartition(vs, cyls).cylinders) == 4096
    with pytest.raises(InvalidStructure, match="^cylinders 7 and 4096 overlap$"):
        VertexCylinderPartition(vs, cyls + (cyls[7],))


@pytest.mark.parametrize("seed", range(6))
def test_lookup_container_and_refines_vertex_equal_a_mask_scan(seed):
    """On random cylinder partitions, ``lookup`` of every tuple, and
    ``container`` and ``refines_vertex`` of meets (refinements), of other
    random partitions (mostly not) and of random cylinders, equal a literal
    scan over the masks."""
    rng = SplitMix64(100 + seed)
    vs = PartiteVertexSet.of_sizes(*(1 + rng.below(4) for _ in range(2 + rng.below(3))))
    coarse = random_cylinder_chain_partition(vs, 1 + rng.below(6), 2, rng.next_u64()).vertex
    for locals_ in product(*(range(s) for s in vs.sizes)):
        assert coarse.lookup(locals_) == scan_lookup(coarse, locals_)
    with pytest.raises(InvalidStructure, match="not covered"):
        coarse.lookup(vs.sizes)
    verdicts = set()
    for _ in range(6):
        other = random_vertex_cylinder_partition(vs, 1 + rng.below(8), rng.next_u64())
        meet = VertexCylinderPartition(vs, tuple(
            VertexCylinder(masks)
            for a in coarse.cylinders
            for b in other.cylinders
            if all(masks := tuple(x & y for x, y in zip(a.masks, b.masks)))
        ))
        loose = tuple(
            VertexCylinder(tuple(1 + rng.below(vs.full_mask(i)) for i in range(vs.t)))
            for _ in range(4)
        )
        for fine in (meet, other):
            want = all(scan_container(coarse, cyl) is not None for cyl in fine.cylinders)
            assert refines_vertex(fine, coarse) == want
            verdicts.add(want)
        for cyl in meet.cylinders + other.cylinders + loose:
            assert coarse.container(cyl) == scan_container(coarse, cyl)
    assert verdicts == {True, False}


@pytest.mark.parametrize("locals_", [(), (1,), (1, 0), (0, 0, 0, 5)])
def test_lookup_refuses_a_tuple_of_another_length(locals_):
    """``lookup`` reads exactly t coordinates: a shorter or longer tuple is
    refused, not cut to (or padded out by) the holders it zips with."""
    pv = VertexCylinderPartition(PartiteVertexSet.of_sizes(2, 2, 2),
                                 (VertexCylinder((1, 3, 3)), VertexCylinder((2, 3, 3))))
    assert pv.lookup((1, 0, 0)) == 1
    with pytest.raises(InvalidStructure, match=r"is not a 3-tuple$"):
        pv.lookup(locals_)


def _literal_atoms(pv):
    """Each part's vertices grouped by the positions of the cylinders whose
    masks hold them, among those nonempty on every other part; the groups
    sorted by those positions."""
    out = []
    for i, size in enumerate(pv.vertex_set.sizes):
        relevant = [c for c, cyl in enumerate(pv.cylinders)
                    if all(m for j, m in enumerate(cyl.masks) if j != i)]
        groups = {}
        for a in range(size):
            profile = tuple(c for c in relevant if pv.cylinders[c].masks[i] >> a & 1)
            groups.setdefault(profile, []).append(a)
        out += [(i, tuple(groups[pr]), sum(1 << c for c in pr)) for pr in sorted(groups)]
    return tuple(out)


def _with_empty_cylinders(pv, seed):
    """``pv`` with cylinders empty on one part, or on two, added: they hold
    no tuple but do hold vertices of their other parts."""
    rng = SplitMix64(seed)
    vs, extra = pv.vertex_set, []
    for empty in ([rng.below(vs.t)], [0, 1], [vs.t - 1]):
        extra.append(VertexCylinder(tuple(
            0 if i in empty else 1 + rng.below(vs.full_mask(i)) for i in range(vs.t)
        )))
    return VertexCylinderPartition(vs, pv.cylinders + tuple(extra))


def test_atoms_match_a_literal_walk():
    """``atoms`` equals the literal grouping on random cylinder partitions,
    on ones with cylinders empty on some part (which no key may count), and
    on ones with more than 64 cylinders, whose keys a machine word cannot
    hold and whose order by bit positions is not their order as integers."""
    orders_differ = filtered = 0
    for seed in range(24):
        rng = SplitMix64(300 + seed)
        if seed % 3 == 2:
            vs, m = PartiteVertexSet.of_sizes(6, 6, 5 + rng.below(3)), 100
        else:
            sizes = [1 + rng.below(6) for _ in range(2 + rng.below(3))]
            vs, m = PartiteVertexSet.of_sizes(*sizes), 1 + rng.below(10)
        pv = random_vertex_cylinder_partition(vs, m, rng.next_u64())
        cases = [pv, _with_empty_cylinders(pv, rng.next_u64())]
        for case in cases:
            atoms = case.atoms()
            assert atoms == _literal_atoms(case)
            if m > 64:
                assert len(case.cylinders) > 64 and max(key for _, _, key in atoms) >> 64
                keys = [(i, key) for i, _, key in atoms]
                orders_differ += keys != sorted(keys)
        unfiltered = {(i, h) for i, part in enumerate(cases[1].holders) for h in part}
        filtered += unfiltered != {(i, key) for i, _, key in cases[1].atoms()}
    assert orders_differ and filtered
    # The partition ``dlr`` returns on the 2x48 half graph at eps 1/8, as the
    # graph pipeline builds it: the atom order there rests on no key being
    # a proper subset of another, which random partitions need not show.
    g = Graph.from_edges(96, [(i, 48 + j) for i in range(48) for j in range(i, 48)])
    mg = partite_from_graph(g, [12] * 8)
    pairs = [(i, j, mg.pair(i, j).rows) for i, j in combinations(range(8), 2)]
    pv, _ = dlr_cylinder_regularity(mg.vertex_set, pairs, Fraction(1, 64), ConstantsProfile.desk())
    assert len(pv.cylinders) == 256
    atoms = pv.atoms()
    assert len(atoms) == 16 and atoms == _literal_atoms(pv)
    for (i, _, a), (j, _, b) in combinations(atoms, 2):
        assert i != j or (a & ~b and b & ~a)


_VS3 = PartiteVertexSet(("A", "B", "C"), (2, 2, 2))
_HALVES = (VertexCylinder((1, 3, 3)), VertexCylinder((2, 3, 3)))


def _incomplete_cylinder_host():
    whole = VertexCylinderPartition.trivial(_VS3)
    pairs = dict(EdgePartition.trivial_for_cylinder(_VS3, whole.cylinders[0]).pairs)
    pairs[(0, 1)] = PairPartition.trivial(2, 2, 3, 3, (3, 1))
    return CylinderChainPartition(whole, (EdgePartition(pairs),))


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: PairPartition(2, 2, 3, 3, (3,), ((3,),)),
                     "host rows length mismatch", id="pair-host-length"),
        pytest.param(lambda: PairPartition(1, 2, 1, 7, (3,), ((3,),)),
                     "masks out of range", id="pair-mask-range"),
        pytest.param(lambda: PairPartition(2, 2, 1, 3, (3, 3), ((3, 3),)),
                     "host row 1 outside masks", id="pair-host-outside-masks"),
        pytest.param(lambda: PairPartition(2, 2, 3, 3, (3, 3), ((3,),)),
                     "cell rows length mismatch", id="pair-cell-length"),
        pytest.param(lambda: PairPartition(1, 2, 1, 3, (1,), ((3,),)),
                     "cell exceeds host at row 0", id="pair-cell-past-host"),
        pytest.param(lambda: PairPartition(1, 2, 1, 3, (3,), ((3,), (1,))),
                     "cells do not partition host at row 0", id="pair-cells-overlap"),
        pytest.param(lambda: PairPartition(1, 2, 1, 3, (3,), ((1,),)),
                     "cells do not partition host at row 0", id="pair-cells-short"),
        pytest.param(lambda: CylinderChainPartition(VertexCylinderPartition.trivial(_VS3), ()),
                     "need one edge partition per cylinder", id="cylinder-edge-count"),
        pytest.param(
            lambda: CylinderChainPartition(
                VertexCylinderPartition(_VS3, _HALVES),
                tuple(EdgePartition.trivial_for_cylinder(_VS3, c) for c in reversed(_HALVES)),
            ),
            "edge partition masks disagree with cylinder", id="cylinder-masks",
        ),
        pytest.param(_incomplete_cylinder_host,
                     "cylinder edge host must be complete bipartite", id="cylinder-host"),
        pytest.param(lambda: ChainPartition(3, ((0, 1),), {}),
                     "parts must partition the universe", id="chain-cover"),
        pytest.param(lambda: ChainPartition(2, ((1, 0),), {}),
                     "part tuples must be sorted", id="chain-unsorted"),
        pytest.param(lambda: ChainPartition(2, ((0,), (1,)), {}),
                     "pair partitions must cover exactly all part pairs", id="chain-pairs"),
        pytest.param(
            lambda: ChainPartition(3, ((0,), (1, 2)), {(0, 1): PairPartition.trivial(1, 1, 1, 1, (1,))}),
            r"pair \(0,1\) has wrong sizes", id="chain-pair-sizes",
        ),
        pytest.param(
            lambda: ChainPartition(2, ((0,), (1,)), {(0, 1): PairPartition.trivial(1, 1, 0, 1, (0,))}),
            "chain partition pairs must use full masks", id="chain-pair-masks",
        ),
        pytest.param(
            lambda: ChainPartition(2, ((0,), (1,)), {(0, 1): PairPartition.trivial(1, 1, 1, 1, (0,))}),
            "chain partition hosts must be complete", id="chain-pair-host",
        ),
    ],
)
def test_partitions_refuse_malformed_structure(build, message):
    with pytest.raises(InvalidStructure, match=f"^{message}$"):
        build()
