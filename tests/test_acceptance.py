"""Acceptance gate: eleven criteria, one test each.

Every test's first docstring line is echoed as a [PASS]/[FAIL] line in
the terminal summary (see conftest).  Tolerances are exact rational
comparisons unless a criterion states an explicit window.
"""

import time
from fractions import Fraction
from itertools import combinations
from math import ceil, comb

import pytest

from regulab.core import (
    BipartiteGraph,
    Chain,
    MultipartiteGraph,
    PartiteThreeGraph,
    PartiteVertexSet,
    ThreeGraph,
    relative_density,
    restrict_chain,
    triangle_count,
)
from regulab.engines import (
    ConstantsProfile,
    ScheduleSaturation,
    check_paper_schedule,
    dlr_cylinder_regularity,
    fps_packing_partition,
    graph_homogeneous_decomposition,
    homogeneous_decomposition,
    hyper_cylinder_regularity,
    szemeredi_multi,
)
from regulab.generators import (
    SplitMix64,
    cone_hypergraph,
    half_graph,
    make_vd,
    random_bipartite,
    random_chain,
    random_cylinder_chain_partition,
    random_link_hypergraph,
    random_pair_partition_cells,
    random_partite_3graph,
    random_tournament_3graph,
)
from regulab.partitions import (
    ChainPartition,
    CylinderChainPartition,
    EdgePartition,
    PairPartition,
    common_refinement,
    cylinder_quasirandomness_audit,
    markov_split_check,
    q_edge_partition,
    q_partition,
    refines_cylinder_chain,
    refines_edge,
    venn_diagram,
)
from regulab.quasirandom import PolyFunction, chain_quasirandomness, pair_quasirandomness
from regulab.vcdim import vc2_dimension
from conftest import (
    build_clique_union,
    build_misaligned_cone,
    build_planted_chain_partition,
    build_two_clique_noise,
)

DESK = ConstantsProfile.desk()
PSI_ID = PolyFunction(Fraction(1), 1)


def test_criterion_01_kernel_oracle_equivalence():
    """1. fast kernels equal naive oracles on 200 bipartite + 50 chain instances in under 60 s"""
    t0 = time.monotonic()
    rng = SplitMix64(101)
    for _ in range(200):
        na, nb = 1 + rng.below(10), 1 + rng.below(10)
        g = random_bipartite(na, nb, Fraction(1, 2), seed=rng.next_u64())
        a = pair_quasirandomness(g, mode="fast")
        b = pair_quasirandomness(g, mode="naive")
        assert (a.raw_sum, a.value) == (b.raw_sum, b.value)
    for _ in range(50):
        sizes = tuple(1 + rng.below(6) for _ in range(3))
        c = random_chain(sizes, Fraction(2, 3), Fraction(1, 2), seed=rng.next_u64())
        a = chain_quasirandomness(c, mode="fast")
        b = chain_quasirandomness(c, mode="naive")
        assert (a.raw_sum, a.value) == (b.raw_sum, b.value)
    assert time.monotonic() - t0 < 60


def test_criterion_02_q_identities():
    """2. q of the trivial edge partition equals the squared relative density on 200 chains"""
    rng = SplitMix64(202)
    for _ in range(200):
        sizes = tuple(1 + rng.below(6) for _ in range(3))
        c = random_chain(sizes, Fraction(2, 3), Fraction(1, 2), seed=rng.next_u64())
        d = relative_density(c)
        q = q_edge_partition(c, EdgePartition.trivial_for_graph(c.graph))
        assert q == d * d
        assert 0 <= q <= 1


def _random_pair_partition(rng, host, k):
    lm = (1 << host.left_size) - 1
    rm = (1 << host.right_size) - 1
    return PairPartition(
        host.left_size, host.right_size, lm, rm, host.rows,
        random_pair_partition_cells(rng, host.rows, host.left_size, k),
    )


def test_criterion_03_q_monotonicity():
    """3. q never decreases across 500 refinement pairs; triangle mass splits exactly on 100 vertex refinements"""
    rng = SplitMix64(303)
    pairs_checked = 0
    # edge partition refinements inside a fixed chain
    while pairs_checked < 300:
        sizes = tuple(2 + rng.below(4) for _ in range(3))
        c = random_chain(sizes, Fraction(2, 3), Fraction(1, 2), seed=rng.next_u64())
        coarse_cells, fine_cells = {}, {}
        for p in ((0, 1), (0, 2), (1, 2)):
            host = c.graph.pair(*p)
            coarse = _random_pair_partition(rng, host, 2)
            other = _random_pair_partition(rng, host, 2)
            coarse_cells[p] = coarse
            fine_cells[p] = common_refinement([coarse, other])
        pe_c, pe_f = EdgePartition(coarse_cells), EdgePartition(fine_cells)
        assert refines_edge(pe_f, pe_c)
        assert q_edge_partition(c, pe_f) >= q_edge_partition(c, pe_c)
        pairs_checked += 1
    # cylinder chain partitions: trivial vs refined, and coarse cells vs fine
    while pairs_checked < 500:
        t = 3 + rng.below(2)
        sizes = tuple(2 + rng.below(3) for _ in range(t))
        h = random_partite_3graph(sizes, Fraction(1, 2), seed=rng.next_u64())
        vs = h.vertex_set
        fine = random_cylinder_chain_partition(vs, 3, 2, seed=rng.next_u64())
        if pairs_checked % 2:
            coarse = CylinderChainPartition.trivial(vs)
        else:
            coarse = CylinderChainPartition(
                fine.vertex,
                tuple(
                    EdgePartition.trivial_for_cylinder(vs, cyl)
                    for cyl in fine.vertex.cylinders
                ),
            )
        assert refines_cylinder_chain(fine, coarse)
        assert q_partition(h, fine) >= q_partition(h, coarse)
        pairs_checked += 1
    # triangle mass splits over the pieces of any vertex refinement
    for _ in range(100):
        sizes = tuple(2 + rng.below(4) for _ in range(3))
        c = random_chain(sizes, Fraction(2, 3), Fraction(1, 2), seed=rng.next_u64())
        splits = []
        for i in range(3):
            pivot = 1 + rng.below(sizes[i] - 1) if sizes[i] > 1 else 1
            splits.append([tuple(range(pivot)), tuple(range(pivot, sizes[i]))])
        total = 0
        for pa in splits[0]:
            for pb in splits[1]:
                for pc in splits[2]:
                    if not (pa and pb and pc):
                        continue
                    total += triangle_count(restrict_chain(c, [pa, pb, pc]).graph)
        assert total == triangle_count(c.graph)


def test_criterion_04_venn_diagram():
    """4. venn_diagram yields valid partitions with cylinders as cell unions and at most t*2^m parts, 100 cases"""
    rng = SplitMix64(404)
    for case in range(100):
        t = 3 + rng.below(2)
        sizes = tuple(3 + rng.below(3) for _ in range(t))
        vs = PartiteVertexSet.of_sizes(*sizes)
        m = 2 + rng.below(5)  # up to 6 cylinders
        p = random_cylinder_chain_partition(vs, m, 2, seed=rng.next_u64())
        q = venn_diagram(p)
        n = vs.total
        assert sorted(v for part in q.parts for v in part) == list(range(n))
        cells = [set(part) for part in q.parts]
        for cyl in p.vertex.cylinders:
            for i in range(vs.t):
                side = {
                    vs.to_global(i, x)
                    for x in range(vs.sizes[i])
                    if cyl.masks[i] >> x & 1
                }
                for cell in cells:
                    assert cell <= side or not (cell & side)
        assert q.part_count <= vs.t * 2 ** len(p.vertex.cylinders)


def test_criterion_05_markov_preservation():
    """5. triple mass escaping the density window stays below sqrt(gamma) on 100 low-density chains"""
    rng = SplitMix64(505)
    for gamma in (Fraction(1, 25), Fraction(9, 100)):
        checked = 0
        while checked < 50:
            c = random_chain(
                (6, 6, 6), Fraction(4, 5), gamma / 3, seed=rng.next_u64()
            )
            d = relative_density(c)
            if not 0 < d < gamma:
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


def test_criterion_06_engine_soundness():
    """6. hyper engine accepts 20 random tripartite instances under audit; planted dlr and pair runs pass, under 10 min"""
    t0 = time.monotonic()
    eta = Fraction(1, 4)
    rng = SplitMix64(606)
    for _ in range(20):
        h = random_partite_3graph((30, 30, 30), Fraction(1, 2), seed=rng.next_u64())
        p, accepted, trace = hyper_cylinder_regularity(h, eta, PSI_ID, DESK)
        assert trace.step_count <= DESK.max_steps
        hyper_rows = [r for r in trace.rows if r.stage == "hyper"]
        for prev, nxt in zip(hyper_rows, hyper_rows[1:]):
            assert nxt.q >= prev.q
            if nxt.action == "refine-edges":
                assert nxt.q - prev.q >= DESK.hyper_gain(eta, 3)
        # The external audit runs on a cold, equal hypergraph: no cell chain
        # the engine evaluated is read back.
        cold = PartiteThreeGraph.from_triples(h.vertex_set, h.triples)
        audit = cylinder_quasirandomness_audit(cold, p, eta, PSI_ID)
        assert audit.good_mass >= 1 - eta
        assert accepted == audit
    # planted-block cylinder separation
    rows = tuple(0b00001111 if x < 4 else 0b11110000 for x in range(8))
    vs = PartiteVertexSet(("A", "B"), (8, 8))
    pv, _ = dlr_cylinder_regularity(vs, [(0, 1, rows)], Fraction(1, 20), DESK)
    from regulab.quasirandom import masked_pair_quasirandomness

    for cyl in pv.cylinders:
        left = [x for x in range(8) if cyl.masks[0] >> x & 1]
        if left and cyl.masks[1]:
            assert masked_pair_quasirandomness(rows, left, cyl.masks[1]).value <= Fraction(1, 20)
    # planted pairwise cells cleared by witness splits
    alpha = Fraction(1, 20)
    qf, _ = szemeredi_multi(build_planted_chain_partition(), alpha, DESK)
    n = 80
    bad = sum(Fraction(len(p), n) ** 2 for p in qf.parts)
    for (a, b), pp in qf.pairs.items():
        la, lb = len(qf.parts[a]), len(qf.parts[b])
        for idx in range(pp.cell_count):
            if pair_quasirandomness(BipartiteGraph(la, lb, pp.cells[idx])).value > alpha:
                bad += Fraction(2 * sum(r.bit_count() for r in pp.cells[idx]), n * n)
    assert bad <= alpha
    assert time.monotonic() - t0 < 600


def test_criterion_07_step_count_bound():
    """7. refinement steps stay within ceil(triple-count budget / per-step gain) on every engine run"""
    eta = Fraction(1, 4)
    runs = []
    h = build_misaligned_cone()
    q, audit, trace = homogeneous_decomposition(h, eta, PSI_ID, DESK, t=9)
    eta_c = eta**4 / 16
    runs.append((trace, "hyper", comb(9, 3), DESK.hyper_gain(eta_c, 9)))
    rng = SplitMix64(707)
    hp = random_partite_3graph((12, 12, 12), Fraction(1, 2), seed=rng.next_u64())
    _, _, tr2 = hyper_cylinder_regularity(hp, eta, PSI_ID, DESK)
    runs.append((tr2, "hyper", comb(3, 3), DESK.hyper_gain(eta, 3)))
    qf, tr3 = szemeredi_multi(build_planted_chain_partition(), Fraction(1, 20), DESK)
    runs.append((tr3, "pairs", 1, DESK.q_gain))
    rows = tuple(0b00001111 if x < 4 else 0b11110000 for x in range(8))
    vs = PartiteVertexSet(("A", "B"), (8, 8))
    _, tr4 = dlr_cylinder_regularity(vs, [(0, 1, rows)], Fraction(1, 20), DESK)
    runs.append((tr4, "cylinder", 1, DESK.q_gain))
    for trace, stage, budget, gain in runs:
        steps = sum(
            1
            for r in trace.rows
            if r.stage == stage and r.action.startswith(("refine", "split"))
        )
        assert steps <= ceil(budget / gain)


def test_criterion_08_constructions():
    """8. cone and link families have second dimension at most 1, vd(2) reaches 2, tournaments are sparse and near 1/4"""
    rng = SplitMix64(808)
    for _ in range(50):
        la, lb = 1 + rng.below(6), 1 + rng.below(6)
        base = random_bipartite(la, lb, Fraction(1, 2), seed=rng.next_u64())
        n = 1 + rng.below(8)
        d, _ = vc2_dimension(cone_hypergraph(base, n).to_three_graph())
        assert d <= 1
    d_vd, wit = vc2_dimension(make_vd(2).to_three_graph())
    assert d_vd >= 2 and wit is not None
    for seed in range(20):
        h = random_link_hypergraph(5, 5, 5, seed).to_three_graph()
        d, _ = vc2_dimension(h)
        assert d <= 1
    for n in (6, 9, 12):
        h = random_tournament_3graph(n, seed=n)
        for sub in combinations(range(n), 4):
            assert sum(1 for t in combinations(sub, 3) if h.has_triple(*t)) <= 2
    total = comb(64, 3)
    for seed in range(20):
        h = random_tournament_3graph(64, seed=seed)
        assert abs(Fraction(h.edge_count, total) - Fraction(1, 4)) < Fraction(1, 20)


def test_criterion_09_homogeneous_pipeline():
    """9. decompositions reach homogeneous mass >= 1 - 2 eta on cones, clique unions, and noisy two-clique graphs"""
    eta = Fraction(1, 4)
    for build in (build_misaligned_cone, build_clique_union):
        h = build()
        _, audit, _ = homogeneous_decomposition(h, eta, PSI_ID, DESK, t=9)
        assert audit.homogeneous_mass >= 1 - 2 * eta
    eps = Fraction(1, 5)
    g = build_two_clique_noise()
    _, gaudit, _ = graph_homogeneous_decomposition(g, eps, DESK)
    assert gaudit.homogeneous_mass >= 1 - 2 * eps


def test_criterion_10_fps_packing():
    """10. packed parts keep symmetric neighborhood differences strictly below 2*eps*n"""
    hg = half_graph(64)
    eps = Fraction(1, 8)
    a_parts, b_parts = fps_packing_partition(hg, eps)
    for parts, rows, n in ((a_parts, hg.rows, 64), (b_parts, hg.columns(), 64)):
        for part in parts:
            for v in part:
                for w in part:
                    assert (rows[v] ^ rows[w]).bit_count() < 2 * eps * n
    # bounded-structure random instance: rows drawn from four base masks
    rng = SplitMix64(1010)
    bases = [rng.mask(32) for _ in range(4)]
    rows = tuple(bases[rng.below(4)] for _ in range(32))
    g = BipartiteGraph(32, 32, rows)
    eps = Fraction(1, 16)
    a_parts, b_parts = fps_packing_partition(g, eps)
    for part in a_parts:
        for v in part:
            for w in part:
                assert (rows[v] ^ rows[w]).bit_count() < 2 * eps * 32
    cols = g.columns()
    for part in b_parts:
        for v in part:
            for w in part:
                assert (cols[v] ^ cols[w]).bit_count() < 2 * eps * 32


def test_criterion_11_paper_profile_refusal():
    """11. the paper schedule saturates before step 2 and the engine refuses to run"""
    eta = Fraction(1, 4)
    psi = PolyFunction.parse("2**-100,28")
    with pytest.raises(ScheduleSaturation) as exc:
        check_paper_schedule(eta, 3, psi)
    assert exc.value.step <= 1
    assert "refusing to run" in str(exc.value)
    h = random_partite_3graph((6, 6, 6), Fraction(1, 2), seed=4)
    with pytest.raises(ScheduleSaturation):
        hyper_cylinder_regularity(h, eta, psi, ConstantsProfile.paper())
