"""Instance families and the seeded PRNG."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from regulab.core import InvalidStructure, triangle_count
from regulab.generators import (
    SplitMix64,
    cone_hypergraph,
    half_graph,
    make_fd,
    make_vd,
    random_bipartite,
    random_chain,
    random_graph,
    random_link_hypergraph,
    random_multipartite,
    random_partite_3graph,
    random_tournament_3graph,
)


def test_splitmix64_reference_vector():
    """First outputs from seed 0 match the published stream."""
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_below_and_sample():
    rng = SplitMix64(42)
    for _ in range(200):
        assert 0 <= rng.below(7) < 7
    picks = rng.sample(20, 5)
    assert len(picks) == 5 and len(set(picks)) == 5
    assert all(0 <= p < 20 for p in picks)


def test_splitmix64_shuffle_is_permutation():
    rng = SplitMix64(9)
    xs = list(range(15))
    rng.shuffle(xs)
    assert sorted(xs) == list(range(15))


def test_splitmix64_bernoulli_exact_rate():
    rng = SplitMix64(77)
    hits = sum(rng.bernoulli(Fraction(1, 4)) for _ in range(4000))
    assert 800 < hits < 1200


_SEEDS = st.integers(0, (1 << 64) - 1)
# p = a/b with b up to 2^70, plus both ends of [0, 1].
_PROBABILITIES = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.integers(1, 1 << 70).flatmap(lambda b: st.builds(Fraction, st.integers(0, b), st.just(b))),
)


@settings(max_examples=200, deadline=None)
@given(_SEEDS, st.integers(0, 300), _PROBABILITIES)
def test_accepted_matches_per_draw_bernoulli(seed, n, p):
    """accepted(n, p) is the indices where n bernoulli(p) draws accept, and
    it leaves the same state."""
    rng, twin = SplitMix64(seed), SplitMix64(seed)
    assert rng.accepted(n, p) == [i for i in range(n) if twin.bernoulli(p)]
    assert rng.state == twin.state


def test_accepted_at_the_threshold_word():
    """A word u accepts exactly when u * den < num * 2^64: u rejects at the
    bound ceil(num * 2^64 / den) = u and accepts at any bound above it."""
    u = SplitMix64(5).next_u64()
    for p in (Fraction(u, 1 << 64), Fraction(u + 1, 1 << 64), Fraction(3 * u + 1, 3 << 64)):
        assert SplitMix64(5).accepted(1, p) == [0] * SplitMix64(5).bernoulli(p)
    assert SplitMix64(5).accepted(1, Fraction(u, 1 << 64)) == []
    assert SplitMix64(5).accepted(1, Fraction(u + 1, 1 << 64)) == [0]


class _CountingStream(SplitMix64):
    """A per-draw stream that counts its words."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.words = 0

    def next_u64(self) -> int:
        self.words += 1
        return super().next_u64()


def _seed_whose_first_word_is(u: int) -> int:
    """Invert the splitmix64 output mix: each of its steps is a bijection
    of 64-bit words."""
    mask = (1 << 64) - 1

    def unshift(y: int, k: int) -> int:  # the inverse of x ^ (x >> k)
        x = y
        for _ in range(64 // k):
            x = y ^ (x >> k)
        return x

    z = unshift(u, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & mask
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask
    return (unshift(z, 30) - 0x9E3779B97F4A7C15) & mask


@pytest.mark.parametrize("bound", [3, (1 << 63) + 1])
def test_below_rejects_the_word_at_its_limit(bound):
    """The first word equals the limit 2^64 - 2^64 mod b, the smallest word
    that below(b) rejects, so the draw is the first later word under the
    limit, mod b; the last word under the limit is accepted at once."""
    limit = (1 << 64) - (1 << 64) % bound
    for u, rejected in ((limit, True), (limit - 1, False)):
        seed = _seed_whose_first_word_is(u)
        words = SplitMix64(seed)
        assert words.next_u64() == u
        spent = 1
        while u >= limit:
            u, spent = words.next_u64(), spent + 1
        rng = _CountingStream(seed)
        assert (rng.below(bound), rng.words) == (u % bound, spent)
        assert (spent > 1) == rejected


def test_bulk_draws_check_their_arguments():
    rng = SplitMix64(1)
    for p in (Fraction(-1, 3), Fraction(4, 3)):
        with pytest.raises(InvalidStructure):
            rng.accepted(3, p)
    assert rng.state == 1


def test_below_refuses_a_bound_above_2_to_the_64():
    """Past 2^64 the rejection limit 2^64 - 2^64 mod n is 0, so no word
    would be accepted; the bound 2^64 itself accepts every word."""
    with pytest.raises(InvalidStructure, match="at most 2\\^64"):
        SplitMix64(0).below((1 << 64) + 1)
    with pytest.raises(InvalidStructure, match="positive bound"):
        SplitMix64(0).below(0)
    rng, twin = SplitMix64(0), SplitMix64(0)
    assert rng.below(1 << 64) == twin.next_u64()
    assert rng.state == twin.state


def test_half_graph_edge_count():
    g = half_graph(4)
    assert g.edge_count == 10
    for i in range(4):
        for j in range(4):
            assert g.has_edge(i, j) == (i <= j)


def test_make_vd_shape():
    h = make_vd(2)
    assert h.vertex_set.sizes == (2, 2, 16)
    assert h.edge_count == 32
    # every pair pattern of the 2x2 grid appears as exactly one link
    links = {}
    off = h.vertex_set.offsets
    for c in range(16):
        link = frozenset(
            (x, y)
            for x in range(2)
            for y in range(2)
            if h.has_triple(x, off[1] + y, off[2] + c)
        )
        links[c] = link
    assert len(set(links.values())) == 16


def test_make_fd_is_full_subset_graph():
    g = make_fd(2)
    assert (g.left_size, g.right_size) == (2, 4)
    assert g.edge_count == 4
    cols = sorted(g.columns())
    assert cols == [0b00, 0b01, 0b10, 0b11]


def test_cone_links_equal_base():
    base = random_bipartite(4, 5, Fraction(1, 2), seed=3)
    h = cone_hypergraph(base, 6)
    assert h.vertex_set.sizes == (4, 5, 6)
    assert h.edge_count == base.edge_count * 6
    off = h.vertex_set.offsets
    for apex in range(6):
        for x in range(4):
            for y in range(5):
                assert h.has_triple(x, off[1] + y, off[2] + apex) == base.has_edge(x, y)


def test_tournament_small_subsets():
    h = random_tournament_3graph(8, seed=5)
    for sub in combinations(range(8), 4):
        spanned = sum(
            1 for t in combinations(sub, 3) if h.has_triple(*t)
        )
        assert spanned <= 2


def test_tournament_density_near_quarter():
    n = 64
    h = random_tournament_3graph(n, seed=1)
    total = len(list(combinations(range(n), 3)))
    dens = Fraction(h.edge_count, total)
    assert abs(dens - Fraction(1, 4)) < Fraction(1, 20)


def test_random_link_deterministic_and_partite():
    for seed in range(5):
        h = random_link_hypergraph(5, 5, 5, seed)
        h2 = random_link_hypergraph(5, 5, 5, seed)
        assert set(h.triples) == set(h2.triples)
        vs = h.vertex_set
        assert vs.sizes == (5, 5, 5)
        for t in h.triples:
            assert {vs.part_of(v) for v in t} == {0, 1, 2}


def test_random_generators_deterministic():
    assert random_graph(10, Fraction(1, 2), seed=4).rows == random_graph(10, Fraction(1, 2), seed=4).rows
    assert random_graph(10, Fraction(1, 2), seed=4).rows != random_graph(10, Fraction(1, 2), seed=5).rows
    a = random_bipartite(6, 6, Fraction(1, 3), seed=8)
    b = random_bipartite(6, 6, Fraction(1, 3), seed=8)
    assert a.rows == b.rows


def test_random_partite_3graph_crossing_only():
    h = random_partite_3graph((3, 3, 3), Fraction(1, 2), seed=6)
    vs = h.vertex_set
    for t in h.triples:
        parts = {vs.part_of(v) for v in t}
        assert len(parts) == 3


def test_random_chain_hyperedges_on_triangles():
    c = random_chain((4, 4, 4), Fraction(1, 2), Fraction(1, 2), seed=12)
    vs = c.vertex_set
    ab, ac, bc = c.graph.pair(0, 1), c.graph.pair(0, 2), c.graph.pair(1, 2)
    for (gx, gy, gz) in c.hyper.triples_of_parts(0, 1, 2):
        x, y, z = gx, gy - 4, gz - 8
        assert ab.has_edge(x, y) and ac.has_edge(x, z) and bc.has_edge(y, z)


def test_random_multipartite_pair_shapes():
    g = random_multipartite((2, 4, 3), Fraction(1, 2), seed=2)
    assert g.pair(0, 1).left_size == 2 and g.pair(0, 1).right_size == 4
    assert g.pair(1, 2).left_size == 4 and g.pair(1, 2).right_size == 3
    assert triangle_count(g) >= 0


def test_generator_validation():
    assert half_graph(0).edge_count == 0
    with pytest.raises(InvalidStructure):
        random_graph(4, Fraction(3, 2), seed=0)
    with pytest.raises(InvalidStructure):
        make_vd(0)
