"""Structures, exact densities, and the text formats."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from regulab.core import (
    BipartiteGraph,
    Chain,
    ContainmentError,
    Graph,
    InvalidStructure,
    MultipartiteGraph,
    ParseError,
    PartiteThreeGraph,
    PartiteVertexSet,
    ThreeGraph,
    equitable_partition,
    load_chain,
    load_graph,
    load_multipartite,
    load_partite_3graph,
    load_three_graph,
    partite_from_three_graph,
    product_density,
    ratio,
    relative_complement,
    relative_density,
    restrict_chain,
    save_chain,
    save_graph,
    save_multipartite,
    save_partite_3graph,
    save_three_graph,
    triangle_count,
    triangles_local,
)
from regulab.generators import (
    SplitMix64,
    random_chain,
    random_multipartite,
    random_partite_3graph,
)


def test_ratio_zero_over_zero():
    assert ratio(0, 0) == 0
    assert ratio(3, 4) == Fraction(3, 4)


def test_vertex_set_indexing():
    vs = PartiteVertexSet.of_sizes(2, 3, 4)
    assert vs.total == 9
    assert vs.offsets == (0, 2, 5)
    assert vs.t == 3
    assert vs.to_global(1, 2) == 4
    assert vs.to_local(4) == (1, 2)
    assert vs.part_of(8) == 2
    assert vs.full_mask(1) == 0b111
    for g in range(vs.total):
        i, x = vs.to_local(g)
        assert vs.to_global(i, x) == g


def test_graph_round_trip_and_counts():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert g.edge_count == 4
    assert g.density() == Fraction(4, 10)
    assert g.has_edge(2, 0) and not g.has_edge(0, 3)
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2), (3, 4)]


def test_graph_rejects_asymmetric_rows():
    with pytest.raises(InvalidStructure):
        Graph(2, (0b10, 0b00))


def test_graph_rejects_loops():
    with pytest.raises(InvalidStructure):
        Graph(2, (0b01, 0b10))


def test_bipartite_basics():
    g = BipartiteGraph.from_edges(2, 3, [(0, 0), (1, 2)])
    assert g.edge_count == 2
    assert g.density() == Fraction(2, 6)
    assert g.has_edge(1, 2) and not g.has_edge(0, 2)
    assert BipartiteGraph.empty(2, 2).edge_count == 0
    assert BipartiteGraph.complete(2, 3).edge_count == 6
    assert g.columns()[2] == 0b10
    r = g.restrict(0b01, 0b101)
    assert r.rows == (0b01, 0)


def test_bipartite_rejects_out_of_range_bits():
    with pytest.raises(InvalidStructure):
        BipartiteGraph(2, 2, (0b100, 0))


def test_multipartite_complete_triangles():
    vs = PartiteVertexSet.of_sizes(2, 2, 2)
    g = MultipartiteGraph.complete(vs)
    assert g.t == 3
    assert triangle_count(g) == 8
    assert g.pair_density(0, 1) == 1
    assert product_density(g) == 1


def test_triangles_local_matches_brute_force():
    rng = SplitMix64(14)
    g = random_multipartite((3, 4, 3), Fraction(1, 2), seed=9)
    listed = set(triangles_local(g))
    ab, ac, bc = g.pair(0, 1), g.pair(0, 2), g.pair(1, 2)
    brute = {
        (x, y, z)
        for x in range(3)
        for y in range(4)
        for z in range(3)
        if ab.has_edge(x, y) and ac.has_edge(x, z) and bc.has_edge(y, z)
    }
    assert listed == brute
    assert triangle_count(g) == len(brute)


def test_chain_requires_triples_on_triangles():
    vs = PartiteVertexSet.of_sizes(2, 2, 2)
    g = MultipartiteGraph(
        vs,
        {
            (0, 1): BipartiteGraph.empty(2, 2),
            (0, 2): BipartiteGraph.complete(2, 2),
            (1, 2): BipartiteGraph.complete(2, 2),
        },
    )
    h = PartiteThreeGraph.from_triples(vs, [(0, 2, 4)])
    with pytest.raises(InvalidStructure):
        Chain(g, h)


def test_relative_density_exact():
    vs = PartiteVertexSet.of_sizes(2, 2, 2)
    g = MultipartiteGraph.complete(vs)
    h = PartiteThreeGraph.from_triples(vs, [(0, 2, 4), (1, 3, 5)])
    assert relative_density(Chain(g, h)) == Fraction(2, 8)


def test_relative_complement_identity():
    rng = SplitMix64(3)
    for _ in range(10):
        sizes = tuple(1 + rng.below(4) for _ in range(3))
        c = random_chain(sizes, Fraction(2, 3), Fraction(1, 2), seed=rng.next_u64())
        cc = relative_complement(c)
        assert relative_density(c) + relative_density(cc) in (0, 1) or (
            relative_density(c) + relative_density(cc) == 1
        )
        assert relative_complement(cc).hyper.edge_count == c.hyper.edge_count


def test_restrict_chain_reindexes():
    c = build = random_chain((4, 4, 4), Fraction(3, 4), Fraction(1, 2), seed=5)
    r = restrict_chain(c, [(0, 2), (1, 3), (0, 1, 2)])
    assert r.vertex_set.sizes == (2, 2, 3)
    # every surviving hyperedge maps back to an original one (triples come
    # out in global sorted coordinates of the restricted vertex set)
    back = [(0, 2), (1, 3), (0, 1, 2)]
    off = r.vertex_set.offsets
    for (gx, gy, gz) in r.hyper.triples_of_parts(0, 1, 2):
        ox = back[0][gx - off[0]]
        oy = back[1][gy - off[1]]
        oz = back[2][gz - off[2]]
        assert c.hyper.has_triple(ox, 4 + oy, 8 + oz)


def test_three_graph_normalizes_triples():
    h = ThreeGraph.from_triples(4, [(2, 0, 1), (0, 1, 2), (1, 2, 3)])
    assert h.edge_count == 2
    assert h.has_triple(0, 2, 1)


def test_three_graph_rejects_degenerate_triples():
    with pytest.raises(InvalidStructure):
        ThreeGraph.from_triples(4, [(0, 0, 1)])


def test_partite_three_graph_crossing():
    vs = PartiteVertexSet.of_sizes(2, 2, 2)
    with pytest.raises(InvalidStructure):
        PartiteThreeGraph.from_triples(vs, [(0, 1, 4)])


def test_partite_to_three_graph():
    vs = PartiteVertexSet.of_sizes(2, 2, 2)
    hp = PartiteThreeGraph.from_triples(vs, [(0, 2, 4), (1, 3, 5)])
    h = hp.to_three_graph()
    assert h.n == 6 and h.edge_count == 2
    assert sorted(hp.triples_of_parts(0, 1, 2)) == [(0, 2, 4), (1, 3, 5)]


def test_equitable_partition_sizes():
    parts = equitable_partition(11, 3)
    sizes = sorted(len(p) for p in parts)
    assert sizes == [3, 4, 4]
    assert sorted(v for p in parts for v in p) == list(range(11))
    assert equitable_partition(11, 3, seed=8) == equitable_partition(11, 3, seed=8)


def test_partite_from_three_graph_preserves_triples():
    h = ThreeGraph.from_triples(6, [(0, 2, 4), (1, 3, 5), (0, 3, 5)])
    hp, ids = partite_from_three_graph(h, [(0, 1), (2, 3), (4, 5)])
    assert hp.vertex_set.sizes == (2, 2, 2)
    assert hp.edge_count == 3
    # crossing triples survive under the id map
    off = hp.vertex_set.offsets
    for (gx, gy, gz) in hp.triples_of_parts(0, 1, 2):
        assert h.has_triple(ids[0][gx - off[0]], ids[1][gy - off[1]], ids[2][gz - off[2]])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_chain_format_round_trip(seed):
    rng = SplitMix64(seed)
    sizes = tuple(1 + rng.below(4) for _ in range(3))
    c = random_chain(sizes, Fraction(2, 3), Fraction(1, 2), seed=rng.next_u64())
    c2 = load_chain(save_chain(c))
    assert c2.vertex_set.sizes == c.vertex_set.sizes
    assert c2.hyper.edge_count == c.hyper.edge_count
    for p in ((0, 1), (0, 2), (1, 2)):
        assert c2.graph.pair(*p).rows == c.graph.pair(*p).rows


def test_graph_format_round_trip():
    g = Graph.from_edges(5, [(0, 4), (2, 3)])
    assert load_graph(save_graph(g)).rows == g.rows


def test_multipartite_format_round_trip():
    g = random_multipartite((2, 3, 2), Fraction(1, 2), seed=4)
    g2 = load_multipartite(save_multipartite(g))
    for p in ((0, 1), (0, 2), (1, 2)):
        assert g2.pair(*p).rows == g.pair(*p).rows


def test_partite_3graph_format_round_trip():
    vs = PartiteVertexSet.of_sizes(2, 2, 2)
    hp = PartiteThreeGraph.from_triples(vs, [(0, 2, 4), (1, 3, 5)])
    hp2 = load_partite_3graph(save_partite_3graph(hp))
    assert hp2.vertex_set.sizes == hp.vertex_set.sizes
    assert set(hp2.triples) == set(hp.triples)


def test_three_graph_format_round_trip():
    h = ThreeGraph.from_triples(5, [(0, 1, 2), (2, 3, 4)])
    h2 = load_three_graph(save_three_graph(h))
    assert h2.n == 5 and set(h2.triples) == set(h.triples)


def test_loader_comments_and_blanks():
    text = "# instance\npart A 2\n\npart B 2\ne 0 2  # crossing\ne 1 3\n"
    g = load_multipartite(text)
    assert g.pair(0, 1).edge_count == 2


def test_loader_rejects_bad_lines():
    with pytest.raises(ParseError):
        load_graph("part A 2\nedge 0 1\n")
    with pytest.raises(ParseError):
        load_graph("part A 2\ne 0 5\n")
    with pytest.raises(ParseError):
        load_multipartite("part A 2\npart B 2\nt 0 1 2\n")
    with pytest.raises(ParseError):
        load_partite_3graph("part A 2\npart B 2\npart C 2\ne 0 2\n")


def test_loader_rejects_noncrossing_triples():
    with pytest.raises(ParseError):
        load_partite_3graph("part A 2\npart B 2\npart C 2\nt 0 1 4\n")


def test_chain_loader_checks_triangle_support():
    text = "part A 1\npart B 1\npart C 1\nt 0 1 2\n"
    with pytest.raises(ParseError):
        load_chain(text)


def test_chain_loader_reports_the_triple_line():
    # Triangle only on (0, 2, 4); the triple on line 9 misses edge (1, 3).
    text = (
        "part A 2\npart B 2\npart C 2\n"
        "e 0 2\ne 0 4\ne 2 4\ne 1 5\n"
        "t 0 2 4\n"
        "t 1 3 5\n"
    )
    with pytest.raises(ParseError) as info:
        load_chain(text)
    assert info.value.line == 9
    assert str(info.value).startswith("line 9: triple (1,3,5)")


@pytest.mark.parametrize(
    "sizes,seed",
    [((3, 4, 5), 1), ((4, 4, 4), 2), ((3, 2, 4, 3), 3), ((2, 0, 3, 2), 4), ((1, 3, 2, 2, 2), 5)],
)
def test_hyperedge_index_matches_has_triple(sizes, seed):
    # The index is the oracle of every hyperedge reader (fast and naive q
    # share it), so it is checked against the naive membership test.
    h = random_partite_3graph(sizes, Fraction(1, 2), seed)
    vs = h.vertex_set
    off = vs.offsets
    seen = 0
    for i in range(vs.t):
        for j in range(i + 1, vs.t):
            for k in range(j + 1, vs.t):
                zm = h.zmasks(i, j, k)
                for x in range(sizes[i]):
                    for y in range(sizes[j]):
                        want = 0
                        for z in range(sizes[k]):
                            if h.has_triple(off[i] + x, off[j] + y, off[k] + z):
                                want |= 1 << z
                        assert zm.get((x, y), 0) == want
                        seen += want.bit_count()
                assert sorted(h.triples_of_parts(k, i, j)) == sorted(
                    t for t in h.triples if {vs.part_of(v) for v in t} == {i, j, k}
                )
    assert seen == h.edge_count
    # The index is not a field: equal hypergraphs stay equal and hash alike.
    fresh = PartiteThreeGraph(vs, h.triples)
    assert fresh == h and hash(fresh) == hash(h) and repr(fresh) == repr(h)


@pytest.mark.parametrize("sizes", [(3, 0, 2), (0, 4), (1, 0, 0, 1), (2, 3, 4)])
def test_part_of_matches_a_scan(sizes):
    vs = PartiteVertexSet.of_sizes(*sizes)
    for g in range(vs.total):
        start = 0
        for i, s in enumerate(sizes):
            if start <= g < start + s:
                break
            start += s
        assert vs.part_of(g) == i
        assert vs.to_local(g) == (i, g - start)
        assert vs.to_global(i, g - start) == g
    for g in (-1, vs.total, vs.total + 5):
        with pytest.raises(InvalidStructure):
            vs.part_of(g)
        with pytest.raises(InvalidStructure):
            vs.to_local(g)


def _restrict_by_scan(c, subsets, edge_subsets):
    """restrict_chain rebuilt from has_edge/has_triple: compact edges per pair
    and compact triples."""
    off = c.vertex_set.offsets
    pos = [{v: n for n, v in enumerate(sorted(sub))} for sub in subsets]

    def kept(i, j, x, y):
        if (i, j) in edge_subsets:
            return edge_subsets[(i, j)][x] >> y & 1
        return c.graph.pair(i, j).has_edge(x, y)

    edges = {
        (i, j): {(pos[i][x], pos[j][y]) for x in pos[i] for y in pos[j] if kept(i, j, x, y)}
        for (i, j) in ((0, 1), (0, 2), (1, 2))
    }
    triples = {
        (pos[0][x], pos[1][y], pos[2][z])
        for x in pos[0]
        for y in pos[1]
        for z in pos[2]
        if kept(0, 1, x, y) and kept(0, 2, x, z) and kept(1, 2, y, z)
        and c.hyper.has_triple(off[0] + x, off[1] + y, off[2] + z)
    }
    return edges, triples


@pytest.mark.parametrize("seed", range(8))
def test_restrict_chain_matches_a_rebuild(seed):
    rng = SplitMix64(seed)
    sizes = tuple(1 + rng.below(5) for _ in range(3))
    c = random_chain(sizes, Fraction(2, 3), Fraction(1, 2), seed=rng.next_u64())
    # Random subsets (seed 0 empties part 2), then random sub-rows of some hosts.
    subsets = [[x for x in range(s) if rng.below(3)] for s in sizes]
    if seed == 0:
        subsets[2] = []
    edge_subsets = {}
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        if rng.below(2):
            keep = rng.next_u64()
            edge_subsets[(i, j)] = [r & keep for r in c.graph.pair(i, j).rows]
    for edges_arg in (None, edge_subsets):
        r = restrict_chain(c, subsets, edges_arg)
        edges, triples = _restrict_by_scan(c, subsets, edges_arg or {})
        assert r.vertex_set.sizes == tuple(len(sub) for sub in subsets)
        assert r.vertex_set.names == c.vertex_set.names
        for pair, want in edges.items():
            assert set(r.graph.pair(*pair).edges()) == want
        off = r.vertex_set.offsets
        got = {(u - off[0], v - off[1], w - off[2]) for (u, v, w) in r.hyper.triples}
        assert got == triples
    assert restrict_chain(c) == c


def test_restrict_chain_containment_errors():
    c = random_chain((3, 3, 3), Fraction(2, 3), Fraction(1, 2), seed=4)
    with pytest.raises(ContainmentError):
        restrict_chain(c, [(0,), (1,)])
    with pytest.raises(ContainmentError):
        restrict_chain(c, [(0, 3), (1,), (2,)])
    with pytest.raises(ContainmentError):
        restrict_chain(c, [(0,), (-1,), (2,)])
    rows = c.graph.pair(0, 1).rows
    with pytest.raises(ContainmentError):
        restrict_chain(c, None, {(0, 1): rows[:2]})
    outside = [x for x in range(3) if rows[x] != 0b111]
    bad = list(rows)
    bad[outside[0]] = 0b111
    with pytest.raises(ContainmentError):
        restrict_chain(c, None, {(0, 1): bad})
