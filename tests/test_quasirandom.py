"""Deviation certificates: frozen values and fast/naive agreement."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from regulab.core import (
    BipartiteGraph,
    bits,
    Chain,
    InvalidStructure,
    MultipartiteGraph,
    PartiteThreeGraph,
    PartiteVertexSet,
    triangle_count,
)
from regulab.generators import (
    SplitMix64,
    random_bipartite,
    random_chain,
    random_multipartite,
    random_partite_3graph,
)
from regulab.partitions import extract_cell_chain
from regulab.quasirandom import (
    DeviationFunction2,
    DeviationFunction3,
    PolyFunction,
    c4_sum,
    chain_first_pass,
    chain_pair_total,
    chain_quasirandomness,
    eta_psi_check,
    graph_quasirandomness,
    is_graph_quasirandom,
    masked_chain_quasirandomness,
    masked_pair_quasirandomness,
    pair_bound_scaled,
    pair_quasirandomness,
    pair_raw_scaled,
)
from conftest import build_box_chain, build_pair_only_chain


def test_c4_sum_sign_matrix():
    f = DeviationFunction2.from_rows([[1, -1], [-1, 1]])
    assert c4_sum(f) == 16


def test_c4_sum_all_ones():
    f = DeviationFunction2.from_rows([[1] * 3] * 3)
    assert c4_sum(f) == 3**4


def test_pair_certificate_single_edge():
    bg = BipartiteGraph.from_edges(2, 2, [(0, 0)])
    for mode in ("fast", "naive"):
        cert = pair_quasirandomness(bg, mode=mode)
        assert cert.value == Fraction(7, 256)
        assert not cert.degenerate


def test_pair_certificate_two_blocks():
    bg = BipartiteGraph(4, 4, (0b0011, 0b0011, 0b1100, 0b1100))
    assert pair_quasirandomness(bg).value == Fraction(1, 16)
    assert pair_quasirandomness(bg, mode="naive").value == Fraction(1, 16)


def test_pair_certificate_rejects_an_unknown_mode():
    with pytest.raises(InvalidStructure, match="unknown mode 'bogus'"):
        pair_quasirandomness(BipartiteGraph.complete(2, 2), "bogus")


def test_pair_certificate_complete_and_empty():
    assert pair_quasirandomness(BipartiteGraph.complete(3, 4)).value == 0
    cert = pair_quasirandomness(BipartiteGraph.empty(3, 3))
    assert cert.value == 0 and not cert.degenerate


def test_pair_certificate_degenerate_side():
    cert = pair_quasirandomness(BipartiteGraph(0, 3, ()))
    assert cert.degenerate and cert.value == 0


def test_certificate_normalizer_is_size_squared():
    bg = BipartiteGraph.from_edges(2, 2, [(0, 0)])
    cert = pair_quasirandomness(bg)
    assert cert.normalizer == (2 * 2) ** 2
    assert cert.raw_sum == cert.value * cert.normalizer


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_pair_fast_equals_naive(seed):
    rng = SplitMix64(seed)
    na, nb = 1 + rng.below(7), 1 + rng.below(7)
    g = random_bipartite(na, nb, Fraction(1, 2), seed=rng.next_u64())
    a = pair_quasirandomness(g, mode="fast")
    b = pair_quasirandomness(g, mode="naive")
    assert a.raw_sum == b.raw_sum and a.value == b.value


def test_chain_certificate_complete():
    vs = PartiteVertexSet.of_sizes(2, 2, 2)
    g = MultipartiteGraph.complete(vs)
    trips = [(x, 2 + y, 4 + z) for x in range(2) for y in range(2) for z in range(2)]
    c = Chain(g, PartiteThreeGraph.from_triples(vs, trips))
    cert = chain_quasirandomness(c)
    assert cert.value == 0 and cert.raw_sum == 0


def test_chain_certificate_box_pattern():
    c = build_box_chain()
    for mode in ("fast", "naive"):
        cert = chain_quasirandomness(c, mode=mode)
        assert cert.value == Fraction(90309, 16777216)


def test_pair_only_pattern_sits_at_baseline():
    """A hyperedge rule using one pair alone is octahedrally invisible.

    Each pair appears twice in the 8-fold product, so its signs square
    out; any half-density pattern lands exactly on 1/256.
    """
    c = build_pair_only_chain()
    assert chain_quasirandomness(c).value == Fraction(1, 256)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_chain_fast_equals_naive(seed):
    rng = SplitMix64(seed)
    sizes = tuple(1 + rng.below(4) for _ in range(3))
    c = random_chain(sizes, Fraction(2, 3), Fraction(1, 2), seed=rng.next_u64())
    a = chain_quasirandomness(c, mode="fast")
    b = chain_quasirandomness(c, mode="naive")
    assert a.raw_sum == b.raw_sum and a.value == b.value


def test_octahedral_kernel_keeps_its_value_on_a_30_cube():
    # The exact triple of the kernel before it packed its planes into
    # weight classes; a rewrite of the inner sums must keep it.
    h = random_partite_3graph((30, 30, 30), Fraction(1, 2), seed=1)
    full = (1 << 30) - 1
    rows = ((full,) * 30,) * 3
    tri, hyp, cert = masked_chain_quasirandomness(rows, (full,) * 3, h.zmasks(0, 1, 2))
    assert (tri, hyp) == (27000, 13695)
    assert cert.raw_sum == Fraction(208262858383694311548329, 755827200000000000)
    assert cert.normalizer == 729000000
    assert cert.value == Fraction(208262858383694311548329, 550998028800000000000000000)
    assert not cert.degenerate


def test_octahedral_bound_on_the_30_cube():
    # The first pass's Cauchy-Schwarz bound beside the exact value pinned
    # above: about 10.3 times it, and still far below eta = 1/4.
    h = random_partite_3graph((30, 30, 30), Fraction(1, 2), seed=1)
    full = (1 << 30) - 1
    rows = ((full,) * 30,) * 3
    fp = chain_first_pass(rows, (full,) * 3, h.zmasks(0, 1, 2))
    assert (fp.triangles, fp.hyperedges) == (27000, 13695)
    bound = Fraction(*fp.scaled(fp.diagonal))
    assert bound == Fraction(6451992700074967247136511, 1652994086400000000000000000)
    exact = Fraction(208262858383694311548329, 550998028800000000000000000)
    assert 10 * exact < bound < 11 * exact and bound < Fraction(1, 256)


@pytest.mark.parametrize("seed", range(3))
def test_chain_bound_is_at_least_the_certificate(seed):
    """The first pass's bound is at least the naive oct_sum certificate of
    the chain where it lies, on masks narrower than their parts and on z
    parts past 64 bits, and equals it when at most one x carries
    triangles; the pair loop continues the same pass to the certificate."""
    rng = SplitMix64(seed)

    def draw(size):  # each bit set with probability 3/4
        words = [rng.next_u64() | rng.next_u64() for _ in range(2)]
        return (words[0] | words[1] << 64) & ((1 << size) - 1)

    kinds = set()
    for sizes in ((4, 4, 5), (2, 3, 67), (1, 3, 66), (5, 2, 3)):
        h = random_partite_3graph(sizes, Fraction(1, 2), seed=rng.next_u64())
        for _ in range(2):
            masks = tuple(draw(n) for n in sizes)
            cells = tuple(
                tuple(draw(sizes[b]) for _ in range(sizes[a])) for a, b in ((0, 1), (0, 2), (1, 2))
            )
            fp = chain_first_pass(cells, masks, h.zmasks(0, 1, 2))
            chain = extract_cell_chain(h, masks, (0, 1, 2), cells)
            cert = chain_quasirandomness(chain, mode="naive").value
            bound = Fraction(*fp.scaled(fp.diagonal))
            assert Fraction(*fp.scaled(chain_pair_total(fp))) == cert <= bound
            support = DeviationFunction3.from_chain(chain).support
            lone = len({x for x, _, _ in support}) <= 1
            if lone:
                assert bound == cert
            kinds.add((lone, bound > cert))
    assert {(True, False), (False, True)} <= kinds


@pytest.mark.parametrize("sizes", [(2, 3, 70), (3, 2, 65), (2, 2, 64), (1, 3, 129)])
def test_chain_fast_equals_naive_past_a_machine_word(sizes):
    # The kernel packs three z planes side by side, so the class masks
    # span several 64-bit words.
    for seed in range(2):
        c = random_chain(sizes, Fraction(2, 3), Fraction(1, 2), seed=seed)
        a = chain_quasirandomness(c, mode="fast")
        b = chain_quasirandomness(c, mode="naive")
        assert a.raw_sum == b.raw_sum and a.value == b.value


@pytest.mark.parametrize("seed", range(3))
def test_kernel_with_a_z_mask_narrower_than_its_part(seed):
    # With the top z vertices outside the mask the planes are packed at a
    # shift below the part size, while the pair rows still reach past it.
    rng = SplitMix64(seed)
    sizes = (3, 3, 70)
    h = random_partite_3graph(sizes, Fraction(1, 2), seed=rng.next_u64())

    def draw(size):
        return (rng.next_u64() | rng.next_u64() << 64) & ((1 << size) - 1)

    for top in (69, 64, 40):
        masks = (7, 7, draw(top) | 1 << (top - 1))
        cells = tuple(
            tuple(draw(sizes[b]) for _ in range(sizes[a])) for a, b in ((0, 1), (0, 2), (1, 2))
        )
        tri, hyp, cert = masked_chain_quasirandomness(cells, masks, h.zmasks(0, 1, 2))
        chain = extract_cell_chain(h, masks, (0, 1, 2), cells)
        assert tri == triangle_count(chain.graph) and hyp == chain.hyper.edge_count
        assert cert == chain_quasirandomness(chain, mode="naive")


def _per_x_pass(rows, masks, zm):
    """The octahedral kernel written out per x, as the first pass walked
    it before its planes were concatenated over x: each x's triangle and
    hyperedge z-masks by y; then per ordered (y, y'), the z-values of g_x
    for each x that meets both, their diagonal sum D and every S(x, x').
    Gives (q, p, volume, density, B, paired, exact sum), both sums scaled
    by q^8, with paired true when some (y, y') is met by two x."""
    rows_ab, rows_ac, rows_bc = rows
    mask_x, mask_y, mask_z = masks
    per_x = []
    for x in bits(mask_x):
        tu = {}
        for y in bits(rows_ab[x] & mask_y):
            if t := rows_ac[x] & mask_z & rows_bc[y]:
                tu[y] = t, t & zm.get((x, y), 0)
        per_x.append(tu)
    q = sum(t.bit_count() for tu in per_x for t, _ in tu.values())
    p = sum(u.bit_count() for tu in per_x for _, u in tu.values())
    e_ab = sum((rows_ab[x] & mask_y).bit_count() for x in bits(mask_x))
    e_ac = sum((rows_ac[x] & mask_z).bit_count() for x in bits(mask_x))
    e_bc = sum((rows_bc[y] & mask_z).bit_count() for y in bits(mask_y))

    def f(u, z):  # the scaled deviation on a triangle
        return q - p if u >> z & 1 else -p

    bound = total = 0
    paired = False
    ys = list(bits(mask_y))
    for y in ys:
        for y2 in ys:
            gs = []
            for tu in per_x:
                if y in tu and y2 in tu:
                    (t1, u1), (t2, u2) = tu[y], tu[y2]
                    if t1 & t2:
                        gs.append({z: f(u1, z) * f(u2, z) for z in bits(t1 & t2)})
            paired |= len(gs) > 1

            def S(g1, g2):
                return sum(v * g2.get(z, 0) for z, v in g1.items())

            bound += sum(S(g, g) for g in gs) ** 2
            total += sum(S(g1, g2) ** 2 for g1 in gs for g2 in gs)
    volume = prod(m.bit_count() for m in masks)
    return q, p, volume, e_ab * e_ac * e_bc, bound, paired, total


def _kernel_cases():
    """(name, rows, masks, h) of the edge cases of the concatenated planes."""
    rng = SplitMix64(11)

    def draw(size):  # each bit set with probability 3/4
        words = [rng.next_u64() | rng.next_u64() for _ in range(3)]
        return (words[0] | words[1] << 64 | words[2] << 128) & ((1 << size) - 1)

    def cells(sizes, reach=0):  # rows of the three pairs, ``reach`` bits past their part
        return tuple(
            tuple(draw(sizes[b] + reach) for _ in range(sizes[a])) for a, b in ((0, 1), (0, 2), (1, 2))
        )

    cases = []
    for n in ((4, 4, 5), (3, 3, 67), (5, 3, 130)):
        h = random_partite_3graph(n, Fraction(1, 2), seed=rng.next_u64())
        full = tuple((1 << k) - 1 for k in n)
        ab, _, bc = cells(n)
        shape = "x".join(map(str, n))
        for k, (name, rows, masks) in enumerate((
            ("empty-masks", cells(n), (0, 0, 0)),
            ("no-triangles", (ab, (0,) * n[0], bc), full),
            ("one-carrier", cells(n), (1 << (n[0] - 1), full[1], full[2])),
            ("narrow-masks", cells(n, reach=3), tuple(draw(size) for size in n)),
            ("narrow-masks", cells(n, reach=3), tuple(draw(size) for size in n)),
            ("full", cells(n), full),
        )):
            cases.append(pytest.param(name, rows, masks, h, id=f"{name}-{shape}-{k}"))
    return cases


@pytest.mark.parametrize("name, rows, masks, h", _kernel_cases())
def test_concatenated_planes_match_the_per_x_walk(name, rows, masks, h, monkeypatch):
    """The first pass on planes concatenated over x, and the pair loop that
    cuts them back into rows, give what the walk per x gives: the counts,
    the bound B, whether two x meet some (y, y') and the exact sum.  With
    two x on no y, the bound is the exact sum, and the cell-chain
    evaluator stores it as such and never runs the pair loop."""
    import regulab.partitions as partitions

    zm = h.zmasks(0, 1, 2)
    fp = chain_first_pass(rows, masks, zm)
    total = chain_pair_total(fp)
    got = (fp.triangles, fp.hyperedges, fp.volume, fp.density, fp.diagonal, fp.paired, total)
    assert got == _per_x_pass(rows, masks, zm)
    if name in ("empty-masks", "no-triangles"):
        assert fp.triangles == fp.diagonal == total == 0 and not fp.planes
    if name == "one-carrier":
        assert fp.triangles and not fp.paired
    if name == "full" and masks[2].bit_length() > 64:
        assert fp.paired and max(t.bit_length() for t, _ in fp.planes) > 128
    loops = []

    def counted(fp):
        loops.append(fp)
        return chain_pair_total(fp)

    monkeypatch.setattr(partitions, "chain_pair_total", counted)
    cold = PartiteThreeGraph.from_triples(h.vertex_set, h.triples)
    cert = partitions.cell_chain_stats(cold, masks, (0, 1, 2), rows)[2]
    assert cert == Fraction(*fp.scaled(total)) and len(loops) == fp.paired
    if not fp.paired:
        assert total == fp.diagonal


def test_graph_quasirandomness_collects_all_pairs():
    g = random_multipartite((3, 3, 3), Fraction(1, 2), seed=2)
    certs = graph_quasirandomness(g)
    assert set(certs) == {(0, 1), (0, 2), (1, 2)}


def test_is_graph_quasirandom_threshold():
    vs = PartiteVertexSet.of_sizes(4, 4)
    blocks = BipartiteGraph(4, 4, (0b0011, 0b0011, 0b1100, 0b1100))
    g = MultipartiteGraph(vs, {(0, 1): blocks})
    assert not is_graph_quasirandom(g, Fraction(1, 32))
    assert is_graph_quasirandom(g, Fraction(1, 16))


def test_eta_psi_check_modes_agree():
    rng = SplitMix64(17)
    for _ in range(5):
        c = random_chain((3, 3, 3), Fraction(3, 4), Fraction(1, 2), seed=rng.next_u64())
        psi = PolyFunction(Fraction(1), 1)
        a = eta_psi_check(c, Fraction(1, 4), psi, mode="fast")
        b = eta_psi_check(c, Fraction(1, 4), psi, mode="naive")
        assert a == b


def test_poly_function_parse_and_eval():
    psi = PolyFunction.parse("1/16,3")
    assert psi(Fraction(1, 2)) == Fraction(1, 128)
    tiny = PolyFunction.parse("2**-100,28")
    assert tiny(Fraction(1)) == Fraction(1, 2**100)
    with pytest.raises(InvalidStructure):
        PolyFunction.parse("nope")
    with pytest.raises(InvalidStructure):
        PolyFunction.parse("1/2")


@pytest.mark.parametrize("mode", ["fast", "naive"])
def test_pair_certificate_is_the_masked_one_on_full_masks(mode):
    """pair_quasirandomness in either mode equals masked_pair_quasirandomness
    on full masks field for field: raw sum, normalizer, value and the
    degenerate flag of 0-row and 0-column graphs."""
    rng = SplitMix64(31)
    graphs = [BipartiteGraph.empty(0, 3), BipartiteGraph.empty(4, 0), BipartiteGraph.empty(0, 0)]
    for _ in range(30):
        l, r = 1 + rng.below(6), 1 + rng.below(6)
        graphs.append(random_bipartite(l, r, Fraction(1 + rng.below(3), 4), seed=rng.next_u64()))
    for g in graphs:
        full = masked_pair_quasirandomness(g.rows, range(g.left_size), (1 << g.right_size) - 1)
        assert pair_quasirandomness(g, mode) == full
        assert full.degenerate == (g.left_size * g.right_size == 0)


def _pair_raw_scaled_by_pairs(rows, xs, right_mask, e, area):
    """The c4 kernel's pair loop before its reduction, kept as an oracle."""
    a = area - e  # scaled value on edges
    b = -e  # scaled value on non-edges
    ny = right_mask.bit_count()
    degs = [(rows[x] & right_mask).bit_count() for x in xs]
    total = 0
    n = len(xs)
    for i in range(n):
        ri = rows[xs[i]] & right_mask
        di = degs[i]
        for j in range(i, n):
            cod = (ri & rows[xs[j]]).bit_count()
            dj = degs[j]
            s = a * a * cod + a * b * (di + dj - 2 * cod) + b * b * (ny - di - dj + cod)
            total += s * s if i == j else 2 * s * s
    return total


@pytest.mark.parametrize("seed", range(6))
def test_reduced_c4_kernel_matches_the_pair_loop_and_the_naive_sum(seed):
    rng = SplitMix64(seed)
    for case in range(40):
        width = 1 + rng.below(11)
        rows = [rng.next_u64() & ((1 << width) - 1) for _ in range(1 + rng.below(9))]
        xs = [x for x in range(len(rows)) if rng.below(3)] or [0]
        mask = rng.next_u64() & ((1 << width) - 1)
        if case % 4 == 0:
            xs = xs[:1]  # a single row
        elif case % 4 == 1:
            mask = 0 if case % 8 == 1 else (1 << width) - 1  # empty, then full mask
        elif case % 8 == 2:
            rows = [0] * len(rows) if case % 16 == 2 else [mask] * len(rows)  # no or all edges
        e = sum((rows[x] & mask).bit_count() for x in xs)
        area = len(xs) * mask.bit_count()
        got = pair_raw_scaled(rows, xs, mask, e, area)
        assert got == _pair_raw_scaled_by_pairs(rows, xs, mask, e, area)
        if area:
            table = [
                [Fraction(area - e if rows[x] >> y & 1 else -e, area) for y in bits(mask)]
                for x in xs
            ]
            assert Fraction(got, area**4) == c4_sum(table)
        else:
            assert got == 0


@pytest.mark.parametrize("seed", range(4))
def test_pair_bound_is_at_least_the_c4_sum(seed):
    """The Cauchy-Schwarz bound area^2 (e (area - e))^2 is at least the c4
    kernel's sum on random rows and masks, an empty side, no edges, all
    edges, one row and one column included; it equals the sum when every
    row is full or empty on the mask (the deviation has rank one), as on
    one row or one column."""
    rng = SplitMix64(seed)
    kinds = set()
    for case in range(60):
        width = 1 + rng.below(11)
        rows = [rng.next_u64() & ((1 << width) - 1) for _ in range(1 + rng.below(9))]
        xs = [x for x in range(len(rows)) if rng.below(3)]
        mask = rng.next_u64() & ((1 << width) - 1)
        kind = case % 6
        if kind == 0:
            xs, mask = ([], mask) if case % 12 == 0 else (xs, 0)  # an empty side
        elif kind == 1:
            rows = [0] * len(rows) if case % 12 == 1 else [mask] * len(rows)  # e = 0, e = area
        elif kind == 2:
            xs = xs[:1] or [0]  # one row
        elif kind == 3:
            mask = 1 << rng.below(width)  # one column
        elif kind == 4:
            rows = [mask if rng.below(2) else 0 for _ in rows]  # each row full or empty
        e = sum((rows[x] & mask).bit_count() for x in xs)
        area = len(xs) * mask.bit_count()
        got, bound = pair_raw_scaled(rows, xs, mask, e, area), pair_bound_scaled(e, area)
        assert 0 <= got <= bound
        if kind < 5:
            assert got == bound, kind
        if area:
            d = Fraction(e, area)
            assert Fraction(bound, area**6) == d * d * (1 - d) * (1 - d)
        kinds.add((kind, got < bound))
    assert (5, True) in kinds
