"""Structures, exact densities, and the text formats."""

import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from regulab import core
from regulab.cli import run
from regulab.core import (
    BipartiteGraph,
    CapacityError,
    Chain,
    ContainmentError,
    Graph,
    InvalidStructure,
    MAX_VERTICES,
    MultipartiteGraph,
    ParseError,
    PartiteThreeGraph,
    PartiteVertexSet,
    ThreeGraph,
    bits,
    equitable_partition,
    load_chain,
    load_graph,
    load_multipartite,
    load_partite_3graph,
    load_three_graph,
    partite_from_graph,
    partite_from_three_graph,
    product_density,
    ratio,
    relative_density,
    restrict_chain,
    rows_symmetric,
    save_chain,
    save_graph,
    save_multipartite,
    save_partite_3graph,
    save_three_graph,
    scan,
    triangle_count,
    triangles_local,
)
from regulab.generators import (
    SplitMix64,
    random_chain,
    random_graph,
    random_multipartite,
    random_partite_3graph,
    random_tournament_3graph,
)
from regulab.oracles import (
    built_from_edges,
    loop_scan,
    scan_fields,
    walked_from_edges,
    walked_index,
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


def test_chain_names_its_first_bad_hyperedge_in_sorted_order():
    # Only (0, 2, 4) and (0, 3, 5) lie on triangles: (0, 2, 5) leaves the
    # common neighbourhood of (x, y) = (0, 0), and (1, 3, 4) and (1, 3, 5)
    # sit on a pair (1, 1) that is no edge.
    vs = PartiteVertexSet.of_sizes(2, 2, 2)
    g = MultipartiteGraph(
        vs,
        {
            (0, 1): BipartiteGraph(2, 2, (0b11, 0b01)),
            (0, 2): BipartiteGraph.complete(2, 2),
            (1, 2): BipartiteGraph(2, 2, (0b01, 0b11)),
        },
    )
    good = [(0, 2, 4), (0, 3, 5)]
    assert Chain(g, PartiteThreeGraph.from_triples(vs, good)).hyper.edge_count == 2
    bad = [(1, 3, 5), (1, 3, 4), (0, 2, 5)]
    for order in (good + bad, bad[::-1] + good, [(5, 3, 1), (4, 1, 3), (5, 2, 0)]):
        with pytest.raises(InvalidStructure, match=r"^hyperedge \(0, 2, 5\) not on a triangle$"):
            Chain(g, PartiteThreeGraph.from_triples(vs, order))


def test_relative_density_exact():
    vs = PartiteVertexSet.of_sizes(2, 2, 2)
    g = MultipartiteGraph.complete(vs)
    h = PartiteThreeGraph.from_triples(vs, [(0, 2, 4), (1, 3, 5)])
    assert relative_density(Chain(g, h)) == Fraction(2, 8)


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


def test_partite_from_three_graph_preserves_triples():
    h = ThreeGraph.from_triples(6, [(0, 2, 4), (1, 3, 5), (0, 3, 5)])
    parts = [(0, 1), (2, 3), (4, 5)]
    hp = partite_from_three_graph(h, parts)
    assert hp.vertex_set.sizes == (2, 2, 2)
    assert hp.edge_count == 3
    # crossing triples survive under the id map
    off = hp.vertex_set.offsets
    for (gx, gy, gz) in hp.triples_of_parts(0, 1, 2):
        assert h.has_triple(parts[0][gx - off[0]], parts[1][gy - off[1]], parts[2][gz - off[2]])


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


def test_a_cross_edge_loads_the_same_from_either_end():
    head = "part A 3\npart B 3\n"
    g = load_multipartite(head + "e 3 0\ne 4 2\n")
    assert g == load_multipartite(head + "e 0 3\ne 2 4\n")
    assert g.pair(0, 1).rows == (0b001, 0, 0b010)


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
    # The index is the one stored form of the hyperedges, and every reader
    # (fast and naive q, has_triple, triples) reads it, so its readers must
    # agree on it; the placement that builds it is checked against a
    # literal walk (the oracle case hyperedge-index).
    h = random_partite_3graph(sizes, Fraction(1, 2), seed)
    assert h.index.zmasks == walked_index(h.vertex_set, h.triples)
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
    # The index's chain stores take no part in equality: a fresh equal
    # hypergraph is equal, hashes alike and has the same repr.
    fresh = PartiteThreeGraph.from_triples(vs, h.triples)
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


# ---------------------------------------------------------------------------
# The one-pass scan against the tokenizer and the file classifier it
# replaced, kept here literally as its oracles.
# ---------------------------------------------------------------------------


def _reference_scan(text: str):
    parts: list[tuple[str, int]] = []
    edges: list[tuple[int, tuple[int, ...]]] = []
    triples: list[tuple[int, tuple[int, ...]]] = []
    seen_names = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        if kind == "part":
            if len(args) != 2:
                raise ParseError(lineno, "expected: part <name> <size>")
            name, size_s = args
            try:
                size = int(size_s)
            except ValueError:
                raise ParseError(lineno, f"part size {size_s!r} is not an integer")
            if size < 0:
                raise ParseError(lineno, "part size must be non-negative")
            if name in seen_names:
                raise ParseError(lineno, f"duplicate part name {name!r}")
            if edges or triples:
                raise ParseError(lineno, "part declared after edges")
            seen_names.add(name)
            parts.append((name, size))
        elif kind in ("e", "t"):
            want = 2 if kind == "e" else 3
            if len(args) != want:
                raise ParseError(lineno, f"expected {want} vertex ids after {kind!r}")
            try:
                ids = tuple(int(a) for a in args)
            except ValueError:
                raise ParseError(lineno, "vertex ids must be integers")
            (edges if kind == "e" else triples).append((lineno, ids))
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")
    if not parts:
        raise ParseError(1, "no part declarations")
    return parts, edges, triples


def _reference_kind(text: str) -> str:
    n_parts = has_e = has_t = 0
    for line in text.splitlines():
        s = line.split("#", 1)[0].strip()
        if not s:
            continue
        kind = s.split()[0]
        if kind == "part":
            n_parts += 1
        elif kind == "e":
            has_e = 1
        elif kind == "t":
            has_t = 1
    if has_e and has_t:
        return "chain"
    if has_t:
        return "three"
    if n_parts >= 2:
        return "multipartite"
    return "graph"


def _reference_check_range(lineno: int, ids: tuple[int, ...], total: int):
    for v in ids:
        if not 0 <= v < total:
            raise ParseError(lineno, f"vertex id {v} out of range (total {total})")


def _reference_load_graph(text: str) -> Graph:
    parts, edges, triples = _reference_scan(text)
    if triples:
        raise ParseError(triples[0][0], "graph file may not contain triples")
    total = sum(s for _, s in parts)
    out = []
    for lineno, (u, v) in edges:
        _reference_check_range(lineno, (u, v), total)
        if u == v:
            raise ParseError(lineno, f"loop at vertex {u}")
        out.append((u, v))
    return Graph.from_edges(total, out)


GARBLED = ("x", "1.5", "-1", "99999999999999999999999", "0", "3", "e", "t", "part", "#", "1_0")
EXTRA_LINES = ("", "   ", "# note", "  # part Z 3", "edge 0 1", "bogus", "E 0 1", "e", "t 0 1")


def _mutate(text: str, rng: SplitMix64) -> str:
    """Drop, duplicate or garble tokens, add comments, blank lines and unknown
    directives, or move a part line after the edges."""
    lines = text.splitlines()
    for _ in range(1 + rng.below(3)):
        k = rng.below(len(lines))
        tokens = lines[k].split()
        op = rng.below(7)
        if op == 0 and tokens:
            del tokens[rng.below(len(tokens))]
            lines[k] = " ".join(tokens)
        elif op == 1 and tokens:
            tokens.insert(rng.below(len(tokens) + 1), tokens[rng.below(len(tokens))])
            lines[k] = " ".join(tokens)
        elif op == 2 and tokens:
            tokens[rng.below(len(tokens))] = GARBLED[rng.below(len(GARBLED))]
            lines[k] = " ".join(tokens)
        elif op == 3:
            lines[k] += "  # e 0 1 t " * (1 + rng.below(2))
        elif op == 4:
            parts = [i for i, line in enumerate(lines) if line.startswith("part")]
            if parts:
                lines.append(lines.pop(parts[rng.below(len(parts))]))
        else:
            lines.insert(k, EXTRA_LINES[rng.below(len(EXTRA_LINES))])
    return "\n".join(lines) + "\n"


def _base_texts(seed: int) -> list[str]:
    rng = SplitMix64(seed)
    return [
        save_graph(random_graph(2 + rng.below(8), Fraction(1, 2), rng.next_u64())),
        save_multipartite(random_multipartite((2, 3, 2), Fraction(1, 2), rng.next_u64())),
        save_three_graph(random_tournament_3graph(5 + rng.below(3), rng.next_u64())),
        save_partite_3graph(random_partite_3graph((2, 2, 3), Fraction(1, 2), rng.next_u64())),
        save_chain(random_chain((2, 2, 2), Fraction(2, 3), Fraction(1, 2), rng.next_u64())),
    ]


def _outcome(load, text):
    try:
        return load(text).rows
    except (ParseError, InvalidStructure) as exc:
        return type(exc), str(exc)


def _scan_records(lines, flat, width):
    """A scan's records as the reference's ``(lineno, ids)``, one line
    number to each ``width`` ids."""
    assert len(flat) == width * len(lines)
    return [(lineno, tuple(flat[width * k : width * (k + 1)])) for k, lineno in enumerate(lines)]


@pytest.mark.parametrize("seed", range(6))
def test_scan_matches_the_reference_tokenizer(seed):
    rng = SplitMix64(seed)
    for base in _base_texts(seed):
        for text in [base] + [_mutate(base, rng) for _ in range(40)]:
            sc = scan(text)
            assert sc.kind == _reference_kind(text), text
            try:
                parts, edges, triples = _reference_scan(text)
            except ParseError as exc:
                assert sc.error is not None, text
                assert (sc.error.line, str(sc.error)) == (exc.line, str(exc)), text
                continue
            assert sc.error is None, text
            assert list(sc.parts) == parts
            assert _scan_records(sc.edge_lines, sc.edges, 2) == edges
            assert _scan_records(sc.triple_lines, sc.triples, 3) == triples
            if sc.kind == "graph":
                assert _outcome(load_graph, text) == _outcome(_reference_load_graph, text), text


@pytest.mark.parametrize(
    "text",
    [
        "part V 4\ne 0 1\ne 2 9\ne 3 3\n",
        "part V 4\ne 0 1\ne 3 3\ne 2 9\n",
        "part V 4\ne 0 1\ne -1 2\n",
        "part V 4\ne 0 1\ne 4 0\n",
        "part V 3\ne 0 99999999999999999999999\ne 0 1\n",
        "part V 3\ne 1 2\ne -99999999999999999999999 1\nbogus\n",
        "part V 100000000000000000000000\nt 0 1 99999999999999999999999\n",
        "part V 3\nbogus\nt 0 1 2\n",
        "part V 3\ne 0 1\npart W 1\ne 0 x\nt 0 1 2\n",
    ],
)
def test_scan_and_graph_loader_on_bad_and_huge_ids(text):
    # Ids beyond 64 bits and bad lines after the first one: the records,
    # kind, first error and the loader's first complaint stay the reference's.
    sc = scan(text)
    assert sc.kind == _reference_kind(text)
    try:
        parts, edges, triples = _reference_scan(text)
    except ParseError as exc:
        assert (sc.error.line, str(sc.error)) == (exc.line, str(exc))
    else:
        assert sc.error is None
        assert _scan_records(sc.edge_lines, sc.edges, 2) == edges
        assert _scan_records(sc.triple_lines, sc.triples, 3) == triples
    assert _outcome(load_graph, text) == _outcome(_reference_load_graph, text)
    assert _outcome(load_graph, sc) == _outcome(load_graph, text)


def test_loaders_take_a_scan_or_its_text():
    text = save_chain(random_chain((2, 3, 2), Fraction(2, 3), Fraction(1, 2), seed=5))
    assert load_chain(scan(text)) == load_chain(text)
    text = save_partite_3graph(random_partite_3graph((2, 2, 3), Fraction(1, 2), 6))
    assert load_partite_3graph(scan(text)) == load_partite_3graph(text)
    assert load_three_graph(scan(text)) == load_three_graph(text)
    text = save_multipartite(random_multipartite((2, 3, 2), Fraction(1, 2), seed=7))
    assert load_multipartite(scan(text)) == load_multipartite(text)


def test_valid_files_load_without_the_line_walk(monkeypatch):
    # The container checks the records; the lines are walked only to name
    # the first bad one.
    def walked(*args):
        raise AssertionError("the line walk ran on a valid file")

    texts = {
        load_three_graph: save_three_graph(random_tournament_3graph(7, 2)),
        load_partite_3graph: save_partite_3graph(
            random_partite_3graph((2, 3, 2), Fraction(1, 2), 3)
        ),
        load_chain: save_chain(random_chain((3, 2, 3), Fraction(2, 3), Fraction(1, 2), 4)),
    }
    with monkeypatch.context() as mp:
        mp.setattr(core, "_scanned_triples", walked)
        for load, text in texts.items():  # bulk-scanned, then line by line
            assert "\nt " in text
            assert load(text) == load(text.replace("\n", " # comment\n")), load
    monkeypatch.setattr(core, "_records", walked)
    text = save_graph(random_graph(9, Fraction(1, 2), 5))
    assert load_graph(text) == load_graph(text.replace("\n", " # comment\n"))
    for load, text in texts.items():
        assert load(text) == load(text.replace("\n", " # comment\n")), load
    text = save_multipartite(random_multipartite((3, 2, 4), Fraction(1, 2), 6))
    assert load_multipartite(text) == load_multipartite(text.replace("\n", " # comment\n"))


def test_a_sparse_graph_on_many_vertices_loads_in_little_memory():
    # Rows are checked by bit length, and no structure grows with n squared.
    text = "part V 200000\ne 0 1\ne 5 199999\ne 7 8\n"
    tracemalloc.start()
    try:
        g = load_graph(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n == 200000 and g.edge_count == 3 and g.has_edge(199999, 5)
    assert peak < 64 << 20


def test_edges_to_the_last_vertex_allowed_load_quickly():
    # from_edges builds symmetric rows, so no symmetry walk runs over the
    # 40 rows whose one bit lies 4M positions up.  The peak is the row
    # list, its tuple and those 40 rows of n/8 bytes each.
    last = MAX_VERTICES - 1
    text = f"part V {MAX_VERTICES}\n" + "".join(f"e {i} {last}\n" for i in range(40))
    t0 = time.monotonic()
    tracemalloc.start()
    try:
        g = load_graph(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.monotonic() - t0 < 10
    assert g.n == MAX_VERTICES and g.edge_count == 40 and g.rows[last] == (1 << 40) - 1
    assert peak < 96 << 20


# ---------------------------------------------------------------------------
# The bulk path of scan against the line loop it falls back to, and the
# bulk checks of the 3-graph loaders against the line-by-line loaders.
# ---------------------------------------------------------------------------


def _generated_texts(tmp_path) -> dict[str, str]:
    """The output of every ``generate`` kind."""
    flags = {
        "vd": ["--d", "2"],
        "fd": ["--d", "2"],
        "link": ["--parts", "4,4,4", "--seed", "1"],
        "tournament": ["--n", "8", "--seed", "1"],
        "partite3": ["--parts", "3,3,3", "--seed", "1"],
        "bipartite": ["--parts", "4,5", "--seed", "1"],
        "graph": ["--n", "12", "--seed", "1"],
        "half": ["--n", "6"],
        "multipartite": ["--parts", "3,3,3", "--seed", "1"],
        "chain": ["--parts", "3,3,3", "--seed", "1"],
        "cone": ["--base", str(tmp_path / "bipartite.txt"), "--apex", "3"],
    }
    texts = {}
    for kind, extra in flags.items():  # the cone's base is the bipartite output
        path = tmp_path / f"{kind}.txt"
        assert run(["generate", "--kind", kind, *extra, "--out", str(path)]) == 0
        texts[kind] = path.read_text()
    return texts


def _first_line(text: str, head: str) -> str:
    return next(line for line in text.splitlines() if line.startswith(head + " "))


def _swap_first(text: str, head: str, new: str) -> str:
    return text.replace(_first_line(text, head), new, 1)


# Near-canonical files, each of which the bulk path must hand to the loop.
NEAR_CANONICAL = {
    "leading zero": lambda s: _swap_first(s, "e", _first_line(s, "e").replace(" ", " 0", 1)),
    "plus sign": lambda s: _swap_first(s, "e", _first_line(s, "e").replace(" ", " +", 1)),
    "minus sign": lambda s: _swap_first(s, "t", _first_line(s, "t").replace(" ", " -", 1)),
    "id of 2^63": lambda s: _swap_first(s, "e", "e 9223372036854775808 1"),
    "underscore": lambda s: _swap_first(s, "e", "e 1_0 1"),
    "Arabic-Indic digit": lambda s: _swap_first(s, "t", "t \u0661 2 3"),
    "tab": lambda s: _swap_first(s, "e", _first_line(s, "e").replace(" ", "\t", 1)),
    "double space": lambda s: _swap_first(s, "t", _first_line(s, "t").replace(" ", "  ", 1)),
    "trailing space": lambda s: _swap_first(s, "e", _first_line(s, "e") + " "),
    "CRLF": lambda s: s.replace("\n", "\r\n"),
    "no final newline": lambda s: s[:-1],
    "blank line mid-block": lambda s: _swap_first(s, "e", _first_line(s, "e") + "\n"),
    "e after t": lambda s: s + "e 0 3\n",
    "part after records": lambda s: s + "part Z 1\n",
    "e-line of 2 tokens": lambda s: _swap_first(s, "e", _first_line(s, "e").rsplit(" ", 1)[0]),
    "e-line of 4 tokens": lambda s: _swap_first(s, "e", _first_line(s, "e") + " 4"),
    "t-line of 3 tokens": lambda s: _swap_first(s, "t", "t 0 3"),
    "t-line of 5 tokens": lambda s: _swap_first(s, "t", _first_line(s, "t") + " 8"),
}


def test_scan_bulk_path_matches_the_line_loop(tmp_path):
    texts = _generated_texts(tmp_path)
    for kind, text in texts.items():
        assert core._bulk_scan(text) is not None, kind
        assert scan_fields(scan(text)) == scan_fields(loop_scan(text)), kind
    chain = texts["chain"]
    for name, mutate in NEAR_CANONICAL.items():
        text = mutate(chain)
        assert text != chain, name
        assert core._bulk_scan(text) is None, name
        assert scan_fields(scan(text)) == scan_fields(loop_scan(text)), name


@pytest.mark.parametrize(
    "load, text",
    [
        (load_graph, "part V 3\ne 0 999999999999999999\n"),
        (load_graph, "part V 3\ne 0 9223372036854775807\n"),
        (load_graph, "part V 4\ne 0 1\ne 1 2\ne 3 3\ne 0 2\n"),
        (load_graph, "part V 4\ne 0 1\nt 0 1 2\n"),
        (load_three_graph, "part V 4\ne 0 1\nt 0 1 2\n"),
        (load_three_graph, "part V 4\nt 0 1 2\nt 1 1 3\nt 0 1 9\n"),
        (load_multipartite, "part A 2\npart B 2\ne 0 2\ne 0 1\n"),
    ],
)
def test_a_canonical_file_names_its_bad_line_as_the_line_loop_does(load, text):
    # The bulk path keeps a range of line numbers per block, and the loaders
    # pair it with the ids only to name the bad line.
    assert core._bulk_scan(text) is not None
    with pytest.raises(ParseError) as bulk:
        load(scan(text))
    with pytest.raises(ParseError) as loop:
        load(loop_scan(text))
    assert (bulk.value.line, str(bulk.value)) == (loop.value.line, str(loop.value))


ID_TOKENS = ("0", "7", "00", "07", "-1", "+1", "1_0", "\u0661", "9" * 18, "1" + "0" * 18,
             str(2**63 - 1), str(2**63), "9" * 23, "x", "e", "t", "part", "#")
NOISE = (" ", "  ", "\t", "\n", "\r", "\r\n", "\x0c", "\u2028", "#", "0", "9", "e", "t", "-")


@st.composite
def _canonical_files(draw):
    names = draw(st.lists(st.sampled_from("ABCDV"), min_size=1, max_size=3, unique=True))
    ids = st.integers(0, 9) | st.integers(0, 2**63 + 16)
    lines = [f"part {name} {draw(st.integers(0, 12))}" for name in names]
    lines += [f"e {u} {v}" for u, v in draw(st.lists(st.tuples(ids, ids), max_size=12))]
    lines += [f"t {u} {v} {w}" for u, v, w in draw(st.lists(st.tuples(ids, ids, ids), max_size=12))]
    return "".join(line + "\n" for line in lines)


@settings(max_examples=300, deadline=None)
@given(_canonical_files(), st.lists(st.tuples(st.integers(0, 3), st.integers(0, 10**6),
                                              st.integers(0, 10**6)), max_size=3))
def test_scan_bulk_and_loop_agree_on_mutated_canonical_files(text, mutations):
    # The bulk path takes every id below 2^63 and hands the file to the
    # line loop from the first one above.
    below = all(int(tok) < 2**63 for tok in text.split() if tok.isdigit())
    assert (core._bulk_scan(text) is not None) == below
    for op, at, pick in mutations:
        if op == 0:  # a token replaced
            tokens = text.split(" ")
            tokens[at % len(tokens)] = ID_TOKENS[pick % len(ID_TOKENS)]
            text = " ".join(tokens)
        elif op == 1 and text:  # a line moved to the end
            lines = text.splitlines(keepends=True)
            lines.append(lines.pop(at % len(lines)))
            text = "".join(lines)
        elif op == 2:  # a character inserted
            k = at % (len(text) + 1)
            text = text[:k] + NOISE[pick % len(NOISE)] + text[k:]
        elif text:  # a character deleted
            k = at % len(text)
            text = text[:k] + text[k + 1 :]
    assert scan_fields(scan(text)) == scan_fields(loop_scan(text))


def test_bulk_scan_memory_stays_a_small_multiple_of_the_text():
    # A whole-block check or conversion would hold several copies of the
    # block at once; the bulk path holds the result and one chunk.
    rng = SplitMix64(3)
    n = 200_000
    text = f"part V {n}\n" + "".join(f"e {rng.below(n)} {rng.below(n)}\n" for _ in range(n))
    tracemalloc.start()
    try:
        sc = scan(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert core._bulk_scan(text) is not None and len(sc.edges) == 2 * n
    assert peak < 3 * len(text)


def _reference_load_triples(text: str, partite: bool):
    """The 3-graph loaders as they checked each t-line in turn."""
    parts, edges, triples = _reference_scan(text)
    if edges:
        raise ParseError(edges[0][0], "3-graph file may not contain pair edges")
    vs = PartiteVertexSet(tuple(n for n, _ in parts), tuple(s for _, s in parts))
    out = set()
    for lineno, ids in triples:
        _reference_check_range(lineno, ids, vs.total)
        if len(set(ids)) != 3:
            raise ParseError(lineno, f"triple {ids} repeats a vertex")
        if partite and len({vs.part_of(v) for v in ids}) != 3:
            raise ParseError(lineno, f"triple {ids} does not cross three parts")
        out.add(tuple(sorted(ids)))
    if partite:
        return PartiteThreeGraph.from_triples(vs, out)
    return ThreeGraph(vs.total, frozenset(out))


def _loaded(load, text):
    try:
        return load(text)
    except (ParseError, InvalidStructure) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(6))
def test_3graph_loaders_match_the_line_by_line_checks(seed):
    rng = SplitMix64(100 + seed)
    bases = [
        save_partite_3graph(random_partite_3graph((2, 3, 2, 2), Fraction(1, 2), rng.next_u64())),
        save_three_graph(random_tournament_3graph(6 + rng.below(3), rng.next_u64())),
    ]
    for base in bases:
        for text in [base] + [_mutate(base, rng) for _ in range(40)]:
            lines = text.splitlines()
            for k in range(len(lines)):  # some triples listed out of order
                if lines[k].startswith("t ") and rng.below(3) == 0:
                    lines[k] = " ".join(["t"] + lines[k].split()[:0:-1])
            text = "\n".join(lines) + "\n"
            for partite, load in ((True, load_partite_3graph), (False, load_three_graph)):
                want = _loaded(lambda s: _reference_load_triples(s, partite), text)
                assert _loaded(load, text) == want, text


@pytest.mark.parametrize("sizes", [(3, 4, 2), (2, 3, 2, 3), (1, 4, 0, 3, 2), (5, 5, 5)])
def test_partite_3graph_loaders_equal_from_triples(sizes):
    """A canonical file (the bulk scan), the same triples with lines
    shuffled, ids unsorted within a line and some lines repeated (still the
    bulk scan), and a file with comments and blank lines (the line loop)
    all load to the hypergraph ``from_triples`` builds from the literal
    triples, and saving what they load gives the canonical file back.  The
    chain loader reads the t-lines of a chain file alike."""
    rng = SplitMix64(sum(sizes))
    text = save_partite_3graph(random_partite_3graph(sizes, Fraction(1, 2), rng.next_u64()))
    head = [line for line in text.splitlines() if line.startswith("part ")]
    triples = [tuple(map(int, line.split()[1:])) for line in text.splitlines()[len(head):]]
    assert triples == sorted(triples) and len(triples) > 5
    drawn = [list(ids) for ids in triples + triples[: 1 + rng.below(len(triples))]]
    for ids in drawn:
        rng.shuffle(ids)
    rng.shuffle(drawn)
    shuffled = "\n".join(head + ["t %d %d %d" % tuple(ids) for ids in drawn]) + "\n"
    commented = "# partite\n" + "\n\n".join(head) + "\n" + "".join(
        f"t {u} {v} {w}  # hyperedge\n\n" for u, v, w in triples
    )
    assert core._bulk_scan(shuffled) is not None and core._bulk_scan(commented) is None
    vs = PartiteVertexSet(tuple(line.split()[1] for line in head), sizes)
    want = PartiteThreeGraph.from_triples(vs, drawn)
    assert want.triples == frozenset(triples) and want.edge_count == len(triples)
    for src in (text, shuffled, commented):
        h = load_partite_3graph(src)
        assert h == want and hash(h) == hash(want) and repr(h) == repr(want)
        assert save_partite_3graph(h) == text
    if len(sizes) == 3:
        c = random_chain(sizes, Fraction(2, 3), Fraction(1, 2), rng.next_u64())
        chain_text = save_chain(c)
        lines = chain_text.splitlines()
        t_lines = [line.split() for line in lines if line.startswith("t ")]
        for ids in t_lines:
            ids[1:] = ids[:0:-1]
        rng.shuffle(t_lines)
        edited = [line for line in lines if not line.startswith("t ")]
        edited += [" ".join(ids) for ids in t_lines + t_lines[:2]]
        loaded = load_chain("\n".join(edited) + "\n")
        assert loaded == c and save_chain(loaded) == chain_text


def _reference_load_multipartite(text: str) -> MultipartiteGraph:
    """load_multipartite as it checked and placed each e-line in turn."""
    parts, edges, triples = _reference_scan(text)
    if triples:
        raise ParseError(triples[0][0], "graph file may not contain triples")
    vs = PartiteVertexSet(tuple(n for n, _ in parts), tuple(s for _, s in parts))
    if vs.total > MAX_VERTICES:
        raise CapacityError("too many vertices")
    rows = {(i, j): [0] * vs.sizes[i] for i in range(vs.t) for j in range(i + 1, vs.t)}
    for lineno, (u, v) in edges:
        _reference_check_range(lineno, (u, v), vs.total)
        (i, a), (j, b) = vs.to_local(u), vs.to_local(v)
        if i == j:
            raise ParseError(lineno, f"edge ({u},{v}) lies within part {vs.names[i]}")
        if i > j:
            i, j, a, b = j, i, b, a
        rows[(i, j)][a] |= 1 << b
    return MultipartiteGraph(
        vs, {(i, j): BipartiteGraph(vs.sizes[i], vs.sizes[j], tuple(r)) for (i, j), r in rows.items()}
    )


def _multipartite_outcome(load, text):
    try:
        return load(text)
    except CapacityError:
        return CapacityError
    except (ParseError, InvalidStructure) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(6))
def test_multipartite_loader_matches_the_line_by_line_checks(seed):
    """The bulk e-line check names the same first bad line as the walk, on
    files with some edges written from their far end and a few ids replaced
    by values from -2 total - 2 to 2 total + 1, so that edges leave the
    range (on both sides, by less and by more than total) or fall within
    one part, one or several per file.  Odd seeds give one part more than
    half the vertices, where a negative id read from the end of a table
    would land on a row of that part."""
    rng = SplitMix64(200 + seed)
    sizes = ((2, 3, 0, 2), (1, 5, 0, 1))[seed % 2]
    base = save_multipartite(random_multipartite(sizes, Fraction(1, 2), rng.next_u64()))
    lines = base.splitlines()
    edge_lines = [k for k, line in enumerate(lines) if line.startswith("e ")]
    outcomes = set()
    for _ in range(60):
        out = list(lines)
        for k in edge_lines:
            if rng.below(4) == 0:
                _, u, v = out[k].split()
                out[k] = f"e {v} {u}"
        for _ in range(rng.below(4)):
            k = edge_lines[rng.below(len(edge_lines))]
            ids = out[k].split()[1:]
            ids[rng.below(2)] = str(rng.below(4 * sum(sizes) + 4) - 2 * sum(sizes) - 2)
            out[k] = "e " + " ".join(ids)
        text = "\n".join(out) + "\n"
        want = _multipartite_outcome(_reference_load_multipartite, text)
        assert _multipartite_outcome(load_multipartite, text) == want, text
        if not isinstance(want, tuple):
            outcomes.add("loaded")
        else:
            outcomes.add("range" if "out of range" in want[1] else "within")
    assert outcomes == {"loaded", "range", "within"}


@pytest.mark.parametrize(
    "text, line",
    [
        ("part A 2\npart B 2\ne 0 2\ne 1 4\n", "line 4: vertex id 4 out of range (total 4)"),
        ("part A 2\npart B 2\ne 0 3\ne -1 2\n", "line 4: vertex id -1 out of range (total 4)"),
        ("part A 2\npart B 2\ne 0 2\ne 1 0\ne 3 2\n", "line 4: edge (1,0) lies within part A"),
        ("part A 2\npart B 2\ne 0 2\ne 2 3\ne 0 9\n", "line 4: edge (2,3) lies within part B"),
        ("part A 2\npart B 2\ne 0 9\ne 2 3\n", "line 3: vertex id 9 out of range (total 4)"),
        ("part A 0\npart B 2\ne 0 1\n", "line 3: edge (0,1) lies within part B"),
        ("part A 1\npart B 1\npart C 1\ne 0 1\ne 1 1\nt 0 1 2\n",
         "line 5: edge (1,1) lies within part B"),
        ("part A 1\npart B 1\npart C 1\ne 2 0\ne 0 5\nt 0 1 2\n",
         "line 5: vertex id 5 out of range (total 3)"),
    ],
)
def test_partite_graph_loaders_name_the_first_bad_e_line(text, line):
    """Out-of-range ids, within-part edges and both in one file give the
    line and message of the line-by-line check."""
    load = load_chain if "\nt " in text else load_multipartite
    with pytest.raises(ParseError) as exc:
        load(text)
    assert str(exc.value) == line


def _walk_error(rows) -> str | None:
    """The bit-by-bit symmetry walk Graph ran before the upper-half check."""
    for x in range(len(rows)):
        for y in bits(rows[x]):
            if not rows[y] >> x & 1:
                return f"adjacency not symmetric at ({x},{y})"
    return None


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 100])
def test_symmetry_check_matches_the_walk(n):
    rng = SplitMix64(n)
    for trial in range(8):
        rows = list(random_graph(n, Fraction(1 + rng.below(7), 8), rng.next_u64()).rows)
        assert rows_symmetric(rows) and _walk_error(rows) is None
        if n < 2:
            continue
        # One upper bit, one lower bit, then one to three arbitrary flips.
        x, y = sorted(rng.sample(n, 2))
        for flips in ([(x, y)], [(y, x)], [(rng.below(n), rng.below(n)) for _ in range(1 + trial % 3)]):
            bad = list(rows)
            for a, b in flips:
                if a != b:
                    bad[a] ^= 1 << b
            want = _walk_error(bad)
            assert rows_symmetric(bad) == (want is None)
            if want is None:
                assert Graph(n, tuple(bad)).rows == tuple(bad)
            else:
                with pytest.raises(InvalidStructure) as info:
                    Graph(n, tuple(bad))
                assert str(info.value) == want


@pytest.mark.parametrize("seed", range(4))
def test_from_edges_matches_a_bit_by_bit_build(seed):
    rng = SplitMix64(seed)
    n = 2 + rng.below(90)
    edges = []
    for _ in range(rng.below(4 * n)):
        u, v = rng.below(n), rng.below(n)
        if u != v:
            edges += [(u, v)] * (1 + rng.below(2))  # duplicates and both orientations
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    built = Graph.from_edges(n, edges).rows
    assert built == tuple(rows) == Graph(n, tuple(rows)).rows
    assert rows_symmetric(built)


@pytest.mark.parametrize("seed", range(8))
def test_write_checked_from_edges_matches_the_check_walk(seed):
    # The row reads and shifts check each edge; the first bad edge, in
    # order, names the error, whichever end holds the bad id.
    rng = SplitMix64(seed)
    for _ in range(40):
        n = 1 + rng.below(12)
        edges = []
        for _ in range(rng.below(3 * n)):
            u, v = rng.below(n), rng.below(n)
            if u != v:
                edges += [(u, v)] * (1 + rng.below(2))  # duplicates and both orientations
        assert built_from_edges(n, edges) == walked_from_edges(n, edges)
        for _ in range(1 + rng.below(2)):  # a loop, an id in [-n, -1], below -n, n or huge
            good = rng.below(n)
            bad_ids = (good, -1 - rng.below(n), -n - 1 - rng.below(3), n, 10**18, 10**30)
            bad_id = bad_ids[rng.below(6)]
            bad = (bad_id, good) if rng.below(2) else (good, bad_id)
            edges.insert(rng.below(len(edges) + 1), bad)
        walked = walked_from_edges(n, edges)
        assert isinstance(walked, str)
        assert built_from_edges(n, edges) == walked


def test_from_edges_refuses_a_huge_id_before_any_shift():
    # An id of 10^18 is refused by the row read, so no row of 10^18 bits
    # is ever asked for.
    for edges in ([(0, 1), (2, 10**18)], [(10**18, 0)], [(1, 2), (-(10**18), 1)]):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidStructure, match=r"^bad edge \("):
                Graph.from_edges(3, edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


@pytest.mark.parametrize(
    "n,t", [(2, 2), (5, 2), (7, 3), (9, 3), (10, 4), (11, 5), (12, 12), (13, 6), (40, 7), (70, 8)]
)
def test_pair_graphs_cut_from_rows_match_has_edge(n, t):
    g = random_graph(n, Fraction(1, 2), seed=n * t)
    parts = equitable_partition(n, t)
    mg = partite_from_graph(g, [len(p) for p in parts])
    assert mg.vertex_set.names == tuple(f"X{i}" for i in range(t))
    for i in range(t):
        for j in range(i + 1, t):
            rows = []
            for u in parts[i]:
                m = 0
                for pos, v in enumerate(parts[j]):
                    if g.has_edge(u, v):
                        m |= 1 << pos
                rows.append(m)
            assert mg.pair(i, j).rows == tuple(rows)
    with pytest.raises(InvalidStructure):
        partite_from_graph(g, [n - 1])


def test_graph_rejects_bits_past_n():
    for rows in ((0b100, 0b000), (0b10, 0b01 | 1 << 70), (-1, 0)):
        with pytest.raises(InvalidStructure) as info:
            Graph(2, rows)
        assert "out of range" in str(info.value)
