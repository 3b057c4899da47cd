"""Refinement engines: schedules, tower refusal, drivers, pipelines."""

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence

import pytest

from regulab.core import (
    BipartiteGraph,
    CapacityError,
    Chain,
    Graph,
    InvalidStructure,
    InvariantViolation,
    MultipartiteGraph,
    PartiteThreeGraph,
    PartiteVertexSet,
    ThreeGraph,
    bits,
    equitable_partition,
    partite_from_graph,
    ratio,
    relative_density,
)
from regulab.engines import (
    ConstantsProfile,
    EngineError,
    IterationTrace,
    NoCandidateSplit,
    NonterminationError,
    RefinementFailure,
    SATURATED,
    ScheduleSaturation,
    SearchFailure,
    TraceRow,
    _Stuck,
    _apply_chain_refinements,
    _witness_split,
    check_paper_schedule,
    dlr_cylinder_regularity,
    first_saturation,
    fps_packing_partition,
    graph_homogeneous_decomposition,
    homogeneous_decomposition,
    hyper_cylinder_regularity,
    is_saturated,
    one_cylinder_refine,
    paper_schedule,
    quasirandom_subset,
    refine_cell_chain,
    rodl_sparse_dense,
    szemeredi_multi,
    twr,
)
from regulab.generators import (
    SplitMix64,
    half_graph,
    random_bipartite,
    random_cylinder_chain_partition,
    random_graph,
    random_partite_3graph,
    random_tournament_3graph,
)
from regulab.partitions import (
    ChainPartition,
    CylinderChainPartition,
    EdgePartition,
    PairPartition,
    VertexCylinder,
    VertexCylinderPartition,
    cell_chain_stats,
    cells_by_label,
    cylinder_quasirandomness_audit,
    extract_cell_chain,
    q_cell_chain,
    q_edge_partition,
    survey_partition,
)
from regulab.quasirandom import (
    PolyFunction,
    chain_first_pass,
    chain_pair_total,
    chain_quasirandomness,
    eta_psi_check,
    masked_chain_quasirandomness,
    masked_pair_quasirandomness,
    pair_bound_scaled,
    pair_quasirandomness,
    pair_raw_scaled,
)
from conftest import (
    build_box_chain,
    build_clique_union,
    build_misaligned_cone,
    build_pair_only_chain,
    build_two_clique_noise,
)

DESK = ConstantsProfile.desk()
PSI_ID = PolyFunction(Fraction(1), 1)


def test_twr_values():
    assert twr(0, Fraction(5)) == 5
    assert twr(1, Fraction(2)) == 4
    assert twr(3, Fraction(1)) == 16
    assert twr(1, Fraction(3, 2)) == 4  # non-integral exponents round up
    assert is_saturated(twr(6, Fraction(1)))


def test_twr_saturation_is_sticky():
    x = twr(64, Fraction(2))
    assert is_saturated(x)
    assert x is SATURATED


def test_paper_schedule_saturates_immediately():
    rows = paper_schedule(Fraction(1, 4), 3, PolyFunction.parse("2**-100,28"), steps=2)
    quantity, step = first_saturation(rows)
    assert quantity == "edge_cap"
    assert step <= 1


def test_check_paper_schedule_refuses():
    with pytest.raises(ScheduleSaturation) as exc:
        check_paper_schedule(Fraction(1, 4), 3, PolyFunction.parse("2**-100,28"))
    assert exc.value.quantity == "edge_cap"
    assert exc.value.step <= 1
    assert "refusing to run" in str(exc.value)


def test_profiles():
    desk = ConstantsProfile.desk()
    paper = ConstantsProfile.paper()
    assert not desk.is_paper and paper.is_paper
    assert paper.refine_gain(Fraction(1, 4)) == Fraction(1, 4) ** 2 / 1024
    assert paper.hyper_gain(Fraction(1, 4), 3) == Fraction(1, 4) ** 3 / (1024 * 27)
    custom = ConstantsProfile.desk(max_steps=5)
    assert custom.max_steps == 5
    with pytest.raises(TypeError):
        ConstantsProfile.desk(nonsense=1)


def test_trace_rejects_decreasing_q():
    rows = [
        TraceRow(0, Fraction(1, 2), 1, 1, Fraction(0), "audit"),
        TraceRow(1, Fraction(1, 4), 1, 1, Fraction(0), "refine-edges"),
    ]
    with pytest.raises(InvalidStructure):
        IterationTrace(tuple(rows))


def test_dlr_separates_planted_blocks():
    rows = tuple(0b00001111 if x < 4 else 0b11110000 for x in range(8))
    vs = PartiteVertexSet(("A", "B"), (8, 8))
    pv, trace = dlr_cylinder_regularity(vs, [(0, 1, rows)], Fraction(1, 20), DESK)
    assert len(pv.cylinders) >= 2
    from regulab.quasirandom import masked_pair_quasirandomness

    for cyl in pv.cylinders:
        left = [x for x in range(8) if cyl.masks[0] >> x & 1]
        if not left or not cyl.masks[1]:
            continue
        cert = masked_pair_quasirandomness(rows, left, cyl.masks[1])
        assert cert.value <= Fraction(1, 20)
    assert trace.rows[-1].q >= trace.rows[0].q


def test_dlr_splits_along_the_first_of_equally_bad_inputs():
    # Two inputs on one pair with equal certificates (1/16) but different
    # witnesses: the first in input order takes the first split, which is
    # the one-step result of that input alone.
    vs = PartiteVertexSet(("A", "B"), (8, 8))
    by_half = tuple(0x0F if x < 4 else 0xF0 for x in range(8))
    by_parity = tuple(0x0F if x % 2 == 0 else 0xF0 for x in range(8))
    alpha = Fraction(1, 20)
    results = []
    for first, second in ((by_half, by_parity), (by_parity, by_half)):
        graphs = [(0, 1, first), (0, 1, second)]
        after_first, _ = dlr_cylinder_regularity(vs, graphs[:1], alpha, DESK)
        pv, _ = dlr_cylinder_regularity(vs, graphs, alpha, DESK)
        resumed, _ = dlr_cylinder_regularity(vs, graphs, alpha, DESK, initial=after_first)
        assert pv.cylinders == resumed.cylinders
        results.append(pv.cylinders)
    assert results[0] != results[1]


@pytest.mark.parametrize("t, size, alpha", [(3, 6, Fraction(1, 30)), (4, 5, Fraction(1, 20))])
def test_dlr_ignores_empty_padding(t, size, alpha):
    # The cell family that cylinder re-regularization builds, run as it is
    # and in the layout of one t-partite graph per cell: the cell at its
    # (i, j) slot among all pairs, every other slot empty.
    vs = PartiteVertexSet.of_sizes(*([size] * t))
    pairs = [(i, j) for i in range(t) for j in range(i + 1, t)]
    rng = SplitMix64(t)
    splits = 0
    for _ in range(8):
        p = random_cylinder_chain_partition(vs, 2, 3, seed=rng.next_u64())
        cells = [
            (i, j, cell)
            for cyl, ep in zip(p.vertex.cylinders, p.edges)
            if cyl.weight(vs)
            for (i, j) in pairs
            for cell in ep.pair(i, j).cells
            if any(cell)
        ]
        padded = [
            (a, b, cell if (a, b) == (i, j) else (0,) * size)
            for (i, j, cell) in cells
            for (a, b) in pairs
        ]
        pv, trace = dlr_cylinder_regularity(vs, cells, alpha, DESK, initial=p.vertex)
        pv_padded, trace_padded = dlr_cylinder_regularity(
            vs, padded, alpha, DESK, initial=p.vertex
        )
        assert pv.cylinders == pv_padded.cylinders
        assert trace.rows == trace_padded.rows
        splits += len(trace.rows) > 1
    assert splits >= 4  # at least half the runs split cylinders, not only accept


@pytest.mark.parametrize(
    "graphs, message",
    [
        ([], "need at least one pair graph"),
        ([(0, 1, (1, 2, 3, 4))], "pair graph 0: 4 rows, but part 0 has 3 vertices"),
        (
            [(0, 1, (1, 2, 3)), (1, 1, (1, 2, 3, 4))],
            "pair graph 1: parts (1, 1) need 0 <= i < j < 3",
        ),
        ([(2, 1, (1, 2, 3, 4))], "pair graph 0: parts (2, 1) need 0 <= i < j < 3"),
        ([(1, 3, (1, 2, 3, 4))], "pair graph 0: parts (1, 3) need 0 <= i < j < 3"),
        ([(-1, 1, (1, 2, 3))], "pair graph 0: parts (-1, 1) need 0 <= i < j < 3"),
        ([(0, 2, (1, -2, 3))], "pair graph 0: row 1 has bits outside part 2"),
        ([(0, 2, (1, 2, 1 << 5))], "pair graph 0: row 2 has bits outside part 2"),
        ([(1, 2, (0, 0, 0, 0b111111))], "pair graph 0: row 3 has bits outside part 2"),
    ],
)
def test_dlr_rejects_malformed_pair_graphs(graphs, message):
    vs = PartiteVertexSet.of_sizes(3, 4, 5)
    with pytest.raises(InvalidStructure) as info:
        dlr_cylinder_regularity(vs, graphs, Fraction(1, 20), DESK)
    assert str(info.value) == message


def _uncached_dlr(vs, graphs, alpha, profile, initial=None):
    """``dlr_cylinder_regularity`` as it stood before it kept its terms:
    every density, certificate and witness split recomputed where read."""
    if not graphs:
        raise InvalidStructure("need at least one pair graph")
    for m, (i, j, rows) in enumerate(graphs):
        if not 0 <= i < j < vs.t:
            raise InvalidStructure(f"pair graph {m}: parts ({i}, {j}) need 0 <= i < j < {vs.t}")
        if len(rows) != vs.sizes[i]:
            raise InvalidStructure(
                f"pair graph {m}: {len(rows)} rows, but part {i} has {vs.sizes[i]} vertices"
            )
        for x, r in enumerate(rows):
            if r < 0 or r.bit_length() > vs.sizes[j]:
                raise InvalidStructure(f"pair graph {m}: row {x} has bits outside part {j}")
    if not 0 < alpha <= 1:
        raise InvalidStructure("alpha must lie in (0, 1]")
    pv = initial if initial is not None else VertexCylinderPartition.trivial(vs)

    def index_value(part):
        total = Fraction(0)
        for cyl in part.cylinders:
            w = cyl.weight(vs)
            if w == 0:
                continue
            for i, j, rows in graphs:
                li, rj = cyl.masks[i], cyl.masks[j]
                e = sum((rows[x] & rj).bit_count() for x in bits(li))
                d = ratio(e, li.bit_count() * rj.bit_count())
                total += w * d * d
        return total

    rows_trace = []
    idx = index_value(pv)
    for step in range(profile.max_steps + 1):
        worst_at = {}
        bad_mass = Fraction(0)
        for ci, cyl in enumerate(pv.cylinders):
            w = cyl.weight(vs)
            if w == 0:
                continue
            worst_cert = alpha
            for m, (i, j, rows) in enumerate(graphs):
                cert = masked_pair_quasirandomness(
                    rows, list(bits(cyl.masks[i])), cyl.masks[j]
                ).value
                if cert > worst_cert:
                    worst_cert = cert
                    worst_at[ci] = m
            if ci in worst_at:
                bad_mass += w
        ok = bad_mass <= alpha / 2
        rows_trace.append(
            TraceRow(
                step,
                idx,
                len(pv.cylinders),
                1,
                bad_mass,
                "accept" if ok else "split-cylinders",
                stage="cylinder",
            )
        )
        if ok:
            return pv, IterationTrace(tuple(rows_trace))
        if step == profile.max_steps:
            raise NonterminationError(
                "cylinder audit still failing at the step cap",
                IterationTrace(tuple(rows_trace)),
            )
        new_masks = []
        split_any = False
        for ci, cyl in enumerate(pv.cylinders):
            if ci not in worst_at:
                new_masks.append(cyl.masks)
                continue
            i, j, rows = graphs[worst_at[ci]]
            ws = _witness_split(
                rows,
                list(bits(cyl.masks[i])),
                cyl.masks[j],
                profile.witness_search,
                profile.witness_cap,
            )
            if ws is None:
                new_masks.append(cyl.masks)
                continue
            split_any = True
            am, bm = ws
            for mi in (am, cyl.masks[i] & ~am):
                for mj in (bm, cyl.masks[j] & ~bm):
                    child = list(cyl.masks)
                    child[i], child[j] = mi, mj
                    if all(child_mask for child_mask in child):
                        new_masks.append(tuple(child))
        if not split_any:
            raise RefinementFailure(
                "no deviation witness splits the failing cylinders",
                IterationTrace(tuple(rows_trace)),
            )
        pv = VertexCylinderPartition(vs, tuple(VertexCylinder(m) for m in new_masks))
        idx_new = index_value(pv)
        if idx_new < idx:
            raise InvariantViolation("edge index decreased across a vertex split")
        if idx_new - idx < profile.q_gain:
            raise RefinementFailure(
                f"index gain {idx_new - idx} fell below the profile floor",
                IterationTrace(tuple(rows_trace)),
            )
        idx = idx_new
    raise AssertionError("unreachable")


def _dlr_outcome(fn, *args, **kwargs):
    """(cylinders, trace rows), or the exception's class, message and the
    trace rows it carries."""
    try:
        pv, trace = fn(*args, **kwargs)
        return pv.cylinders, trace.rows
    except (EngineError, CapacityError, InvariantViolation) as exc:
        trace = getattr(exc, "trace", None)
        return type(exc), str(exc), trace.rows if trace else None


DLR_PROFILES = (
    DESK,
    ConstantsProfile.desk(witness_search="exhaustive"),
    ConstantsProfile.desk(witness_search="exhaustive", witness_cap=3),
    ConstantsProfile.desk(witness_search="greedy"),
    ConstantsProfile.desk(max_steps=1),
)


def _assert_dlr_matches_uncached(vs, graphs, alpha, profile, initial=None):
    got = _dlr_outcome(dlr_cylinder_regularity, vs, graphs, alpha, profile, initial=initial)
    want = _dlr_outcome(_uncached_dlr, vs, graphs, alpha, profile, initial=initial)
    assert got == want
    return got


def _outcome_kind(outcome) -> str:
    if isinstance(outcome[0], tuple):
        return "accept" if len(outcome[1]) == 1 else "split"
    return outcome[0].__name__


def test_dlr_terms_kept_per_mask_pair_match_the_uncached_run_on_graph_pairs():
    """The graph pipeline's family: every pair graph of a random graph cut
    into t = 2..5 equitable parts, over the witness modes and a step cap."""
    rng = SplitMix64(21)
    kinds = set()
    for case in range(40):
        t = 2 + case % 4
        n = t * (2 + rng.below(3)) + rng.below(t)
        g = random_graph(n, Fraction(1 + rng.below(3), 4), rng.next_u64())
        parts = equitable_partition(n, t)
        mg = partite_from_graph(g, [len(part) for part in parts])
        graphs = [(i, j, mg.pair(i, j).rows) for i in range(t) for j in range(i + 1, t)]
        alpha = (Fraction(1, 16), Fraction(1, 64))[case % 2]
        profile = DLR_PROFILES[case % len(DLR_PROFILES)]
        kinds.add(_outcome_kind(_assert_dlr_matches_uncached(mg.vertex_set, graphs, alpha, profile)))
    assert {"split", "NonterminationError", "CapacityError"} <= kinds, kinds


def test_dlr_terms_kept_per_mask_pair_match_the_uncached_run_on_cells():
    """Cylinder re-regularization's family: the nonempty cells of a random
    cylinder chain partition, t = 3..5, from its cylinders and from scratch."""
    rng = SplitMix64(22)
    kinds = set()
    for case in range(24):
        t = 3 + case % 3
        vs = PartiteVertexSet.of_sizes(*(1 + rng.below(4) for _ in range(t)))
        p = random_cylinder_chain_partition(vs, 1 + rng.below(3), 3, seed=rng.next_u64())
        cells = [
            (i, j, cell)
            for cyl, ep in zip(p.vertex.cylinders, p.edges)
            if cyl.weight(vs)
            for i in range(t)
            for j in range(i + 1, t)
            for cell in ep.pair(i, j).cells
            if any(cell)
        ]
        if not cells:
            continue
        alpha = (Fraction(1, 30), Fraction(1, 100))[case % 2]
        profile = DLR_PROFILES[case % len(DLR_PROFILES)]
        for initial in (p.vertex, None):
            outcome = _assert_dlr_matches_uncached(vs, cells, alpha, profile, initial)
            kinds.add(_outcome_kind(outcome))
    assert {"split", "NonterminationError"} <= kinds, kinds


def test_dlr_terms_kept_per_mask_pair_match_the_uncached_run_on_noisy_cliques(monkeypatch):
    """The graph pipeline's family on two noisy 20-cliques cut into five
    parts at alpha = (1/5)^2, as ``decompose --eps 1/5`` runs it: the
    Cauchy-Schwarz bound decides 14 of the 18 keys read, and the run equals
    the uncached one under every witness mode and the step cap."""
    g = build_two_clique_noise()
    mg = partite_from_graph(g, [len(part) for part in equitable_partition(g.n, 5)])
    graphs = [(i, j, mg.pair(i, j).rows) for i in range(5) for j in range(i + 1, 5)]
    alpha = Fraction(1, 25)
    bounds = _count_calls(monkeypatch, pair_bound_scaled)
    certs = _count_calls(monkeypatch, pair_raw_scaled)
    _, trace = dlr_cylinder_regularity(mg.vertex_set, graphs, alpha, DESK)
    assert (len(bounds), len(certs), len(trace.rows)) == (18, 4, 2)
    monkeypatch.undo()
    for profile in DLR_PROFILES:
        _assert_dlr_matches_uncached(mg.vertex_set, graphs, alpha, profile)


def _half_graph_pairs():
    """The pair graphs ``decompose --eps 1/8`` cuts from the 2x48 half graph."""
    g = Graph.from_edges(96, [(i, 48 + j) for i in range(48) for j in range(i, 48)])
    mg = partite_from_graph(g, [12] * 8)
    return mg.vertex_set, [(i, j, mg.pair(i, j).rows) for i in range(8) for j in range(i + 1, 8)]


def test_dlr_terms_kept_per_mask_pair_match_the_uncached_run_on_the_half_graph():
    vs, graphs = _half_graph_pairs()
    outcome = _assert_dlr_matches_uncached(vs, graphs, Fraction(1, 64), DESK)
    assert _outcome_kind(outcome) == "split"


def test_dlr_computes_each_term_once_per_input_and_mask_pair(monkeypatch):
    """On the half graph at eps 1/8 the four diagonal pair graphs are equal
    triangles and splits copy the other pairs' masks, so the uncached run
    makes 85 witness splits and 9,548 certificates of which 4 and 188 are
    distinct; the run computes each distinct witness once.  It runs the c4
    kernel on none of the keys whose Cauchy-Schwarz bound is at most alpha
    and at most once on every other key: 16 calls.  Certificates are
    counted as calls of the c4 kernel, which the uncached run reaches
    through ``masked_pair_quasirandomness``."""
    import sys

    from regulab import engines

    vs, graphs = _half_graph_pairs()
    alpha = Fraction(1, 64)
    splits = _count_calls(monkeypatch, _witness_split)
    certs = _count_calls(monkeypatch, pair_raw_scaled)
    # The uncached copy here reads this module's names: count those too.
    here = sys.modules[__name__]
    monkeypatch.setattr(here, "_witness_split", engines._witness_split)

    def keys(calls):
        return [(id(rows), tuple(left), right) for rows, left, right, *_ in calls]

    counts, undecided = [], set()
    for run in (_uncached_dlr, dlr_cylinder_regularity):
        splits.clear()
        certs.clear()
        run(vs, graphs, alpha, DESK)
        counts.append((len(splits), len(set(keys(splits))), len(certs), len(set(keys(certs)))))
        if run is _uncached_dlr:
            undecided = {
                key
                for key, (_, _, _, e, area) in zip(keys(certs), certs)
                if pair_bound_scaled(e, area) > alpha * area**6
            }
    assert counts == [(85, 4, 9548, 188), (4, 4, 16, 16)]
    assert set(keys(certs)) <= undecided


def test_dlr_walks_each_partition_once(monkeypatch):
    """One walk per partition reached reads each cylinder's masks once, so
    the walk's reads are the trace rows' cylinder counts summed.  The walk
    is handed each state as a tuple that counts the masks read from it."""
    from regulab import engines

    vs, graphs = _half_graph_pairs()
    reads = []

    class Counted(tuple):
        def __iter__(self):
            for masks in tuple.__iter__(self):
                reads.append(masks)
                yield masks

    real = engines._iterate
    monkeypatch.setattr(
        engines, "_iterate", lambda walk, *rest: real(lambda s: walk(Counted(s)), *rest)
    )
    _, trace = dlr_cylinder_regularity(vs, graphs, Fraction(1, 64), DESK)
    assert len(trace.rows) > 1
    assert len(reads) == sum(row.vertex_count for row in trace.rows)


def _reregularization_family(seed):
    """A cell family as cylinder re-regularization builds it, with the
    cylinders it starts from: the nonempty cells of a random cylinder chain
    partition of four parts."""
    vs = PartiteVertexSet.of_sizes(4, 5, 3, 4)
    p = random_cylinder_chain_partition(vs, 2, 3, seed=seed)
    cells = [
        (i, j, cell)
        for cyl, ep in zip(p.vertex.cylinders, p.edges)
        if cyl.weight(vs)
        for i in range(4)
        for j in range(i + 1, 4)
        for cell in ep.pair(i, j).cells
        if any(cell)
    ]
    return vs, cells, p.vertex


@pytest.mark.parametrize("from_initial", [False, True], ids=["trivial", "initial"])
def test_dlr_builds_only_the_partition_it_returns(from_initial, monkeypatch):
    """A run's steps hold masks: the one VertexCylinderPartition built,
    and validated, is the one returned."""
    vs, cells, initial = _reregularization_family(3)
    built = []
    post_init = VertexCylinderPartition.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(VertexCylinderPartition, "__post_init__", counted)
    pv, trace = dlr_cylinder_regularity(
        vs, cells, Fraction(1, 30), DESK, initial=initial if from_initial else None
    )
    assert len(trace.rows) > 2
    assert len(built) == 1 and built[0] is pv


def test_every_state_dlr_walks_is_a_partition(monkeypatch):
    """Only the partition returned is validated; every state the walk reads
    builds a validated VertexCylinderPartition too, on the 2x48 half
    graph's pairs and on re-regularization families from their cylinders.
    The last state is the partition returned."""
    from regulab import engines

    states = []
    real = engines._iterate

    def iterate(walk, *rest):
        def kept(state):
            states.append(state)
            return walk(state)

        return real(kept, *rest)

    monkeypatch.setattr(engines, "_iterate", iterate)
    runs = [(*_half_graph_pairs(), Fraction(1, 64), None)]
    for seed in range(6):
        vs, cells, initial = _reregularization_family(seed)
        runs.append((vs, cells, Fraction(1, 30), initial))
    walked = 0
    for vs, graphs, alpha, initial in runs:
        states.clear()
        pv, _ = dlr_cylinder_regularity(vs, graphs, alpha, DESK, initial=initial)
        for state in states:
            VertexCylinderPartition(vs, tuple(map(VertexCylinder, state)))
        assert states[-1] == tuple(cyl.masks for cyl in pv.cylinders)
        walked += len(states)
    assert walked >= 3 * len(runs)


@pytest.mark.parametrize("sizes", [(3, 3), (1, 1), (2, 2, 2)])
def test_dlr_refuses_an_initial_partition_over_another_vertex_set(sizes):
    vs = PartiteVertexSet.of_sizes(2, 2)
    initial = VertexCylinderPartition.trivial(PartiteVertexSet.of_sizes(*sizes))
    with pytest.raises(InvalidStructure, match="initial partition is over another vertex set"):
        dlr_cylinder_regularity(vs, [(0, 1, (0b01, 0b10))], Fraction(1, 20), DESK, initial=initial)


# A 4x4 pair graph with a positive certificate and a deviation witness.
_TIE_ROWS = (0b0011, 0b0111, 0b1100, 0b1001)


@pytest.mark.parametrize("below", [0, Fraction(1, 10**9)], ids=["at", "below"])
def test_dlr_ties_at_alpha(below):
    """An input whose certificate equals alpha passes the audit, and one
    above alpha fails it; both runs equal the uncached one."""
    vs = PartiteVertexSet.of_sizes(4, 4)
    cert = pair_quasirandomness(BipartiteGraph(4, 4, _TIE_ROWS)).value
    assert 0 < cert < 1
    _, rows = _assert_dlr_matches_uncached(vs, [(0, 1, _TIE_ROWS)], cert - below, DESK)
    assert (rows[0].useful_mass, rows[0].action) == (
        (1, "split-cylinders") if below else (0, "accept")
    )


def test_dlr_keeps_the_first_of_equal_certificates_as_worst(monkeypatch):
    """Two inputs of equal certificate in one cylinder: the first, in input
    order, is the worst, so the first split is along its witness; the run
    equals the uncached one."""
    vs = PartiteVertexSet.of_sizes(4, 4, 4)
    copy = tuple(list(_TIE_ROWS))
    graphs = [(0, 1, _TIE_ROWS), (0, 2, copy)]
    assert copy is not _TIE_ROWS
    splits = _count_calls(monkeypatch, _witness_split)
    _assert_dlr_matches_uncached(vs, graphs, Fraction(1, 10**6), DESK)
    assert splits[0][0] is _TIE_ROWS


def test_dlr_skips_the_kernel_below_the_worst_certificate_so_far(monkeypatch):
    """An input whose bound is above alpha but at most an earlier input's
    certificate in the same cylinder cannot be the worst there, so the c4
    kernel never runs on it, although its own certificate is above alpha;
    the run equals the uncached one."""
    vs = PartiteVertexSet.of_sizes(4, 4, 4)
    one_edge = (0b0001, 0, 0, 0)
    graphs = [(0, 1, _TIE_ROWS), (0, 2, one_edge)]
    alpha = Fraction(1, 10**6)
    first = pair_quasirandomness(BipartiteGraph(4, 4, _TIE_ROWS)).value
    second = pair_quasirandomness(BipartiteGraph(4, 4, one_edge)).value
    assert alpha < second < Fraction(pair_bound_scaled(1, 16), 16**6) < first
    certs = _count_calls(monkeypatch, pair_raw_scaled)
    got = _dlr_outcome(dlr_cylinder_regularity, vs, graphs, alpha, DESK)
    assert certs[0][0] is _TIE_ROWS
    assert not [left for rows, left, *_ in certs if rows is one_edge and list(left) == [0, 1, 2, 3]]
    monkeypatch.undo()
    assert got == _dlr_outcome(_uncached_dlr, vs, graphs, alpha, DESK)


def test_one_cylinder_refine_gains_on_box():
    c = build_box_chain()
    # sits above the gate at eta = 1/250
    cert = chain_quasirandomness(c).value
    eta = Fraction(1, 250)
    assert cert > eta
    pe = one_cylinder_refine(c, eta, DESK)
    d = relative_density(c)
    q = q_edge_partition(c, pe, mode="fast")
    assert q >= d * d + DESK.refine_gain(eta)
    assert q_edge_partition(c, pe, mode="naive") == q


def test_one_cylinder_refine_gate():
    c = build_pair_only_chain()
    # certificate is exactly the baseline 1/256 <= 1/4: below the gate
    with pytest.raises(InvalidStructure):
        one_cylinder_refine(c, Fraction(1, 4), DESK)


def test_one_cylinder_refine_pair_pattern_below_gate():
    c = build_pair_only_chain()
    eta = Fraction(1, 1000)
    assert chain_quasirandomness(c).value == Fraction(1, 256) > eta
    pe = one_cylinder_refine(c, eta, DESK)
    q = q_edge_partition(c, pe)
    # separating the full cells from the empty ones doubles the energy
    assert q >= Fraction(1, 4) + DESK.refine_gain(eta)
    assert q == Fraction(1, 2)


def test_one_cylinder_refine_parity_is_resistant():
    """The three-way parity pattern gains nothing from single-pair splits.

    Every cell density stays exactly 1/2 under any one-pair refinement,
    and the certificate sits at the finite-size baseline because each
    vertex enters the eight-fold product an even number of times.  The
    engine reports the failure instead of inventing progress.
    """
    from regulab.engines import RefinementFailure

    vs = PartiteVertexSet.of_sizes(4, 4, 4)
    g = MultipartiteGraph.complete(vs)
    trips = [
        (x, 4 + y, 8 + z)
        for x in range(4)
        for y in range(4)
        for z in range(4)
        if (x < 2) == ((y < 2) == (z < 2))
    ]
    c = Chain(g, PartiteThreeGraph.from_triples(vs, trips))
    assert chain_quasirandomness(c).value == Fraction(1, 256)
    with pytest.raises(RefinementFailure):
        one_cylinder_refine(c, Fraction(1, 1000), DESK)


def test_one_cylinder_refine_reports_missing_split():
    """2x2x2 parity chain: every edge deviation is 0, so no candidate split
    exists; the failure says so instead of quoting a best q."""
    from regulab.engines import RefinementFailure

    vs = PartiteVertexSet.of_sizes(2, 2, 2)
    trips = [
        (x, 2 + y, 4 + z)
        for x in range(2)
        for y in range(2)
        for z in range(2)
        if (x + y + z) % 2 == 0
    ]
    c = Chain(MultipartiteGraph.complete(vs), PartiteThreeGraph.from_triples(vs, trips))
    assert chain_quasirandomness(c).value == Fraction(1, 256)
    with pytest.raises(RefinementFailure, match="no candidate edge split exists") as info:
        one_cylinder_refine(c, Fraction(1, 512), DESK)
    assert "best q" not in str(info.value)


def _unmap_cells(cells, keep_left, keep_right, left_size):
    out = []
    for cell in cells:
        rows = [0] * left_size
        for cx, rowm in enumerate(cell):
            acc = 0
            for cy in bits(rowm):
                acc |= 1 << keep_right[cy]
            rows[keep_left[cx]] = acc
        out.append(tuple(rows))
    return out


def _extract_and_unmap_refinements(h, p, useful, eta, profile):
    """The chain refinement step as it stood before it refined chains where
    they lie: cut each useful chain out in compact ids, refine the copy,
    map its cells back and merge the variants of a cell by a label lambda."""
    vs = h.vertex_set
    splits = {}
    for (ci, (i, j, k), combo, cells) in useful:
        cyl = p.vertex.cylinders[ci]
        masks = (cyl.masks[i], cyl.masks[j], cyl.masks[k])
        chain = extract_cell_chain(h, masks, (i, j, k), cells)
        pe_small = one_cylinder_refine(chain, eta, profile)
        keeps = {
            i: sorted(bits(cyl.masks[i])),
            j: sorted(bits(cyl.masks[j])),
            k: sorted(bits(cyl.masks[k])),
        }
        placements = (((0, 1), (i, j), combo[0]), ((0, 2), (i, k), combo[1]), ((1, 2), (j, k), combo[2]))
        for small_pair, (pi, pj), cell_idx in placements:
            pp_small = pe_small.pair(*small_pair)
            if pp_small.cell_count <= 1:
                continue
            orig = _unmap_cells(pp_small.cells, keeps[pi], keeps[pj], vs.sizes[pi])
            splits.setdefault((ci, (pi, pj), cell_idx), []).append(orig)

    if not splits:
        raise RefinementFailure("useful chains produced no cell splits")

    by_pair = {}
    for (ci, pair, cell_idx), subparts in splits.items():
        by_pair.setdefault((ci, pair), {})[cell_idx] = subparts

    new_edges = list(p.edges)
    for (ci, (i, j)), cell_splits in sorted(by_pair.items()):
        ep = new_edges[ci]
        pp = ep.pair(i, j)
        new_cells = []
        for idx, cell in enumerate(pp.cells):
            variants = cell_splits.get(idx)
            if not variants:
                new_cells.append(cell)
                continue
            label = lambda x, y, variants=variants: tuple(
                next((si for si, sub in enumerate(variant) if sub[x] >> y & 1), -1)
                for variant in variants
            )
            new_cells.extend(cells_by_label(pp.left_size, cell, label))
        if len(new_cells) > profile.edge_part_cap:
            raise RefinementFailure(f"pair ({i},{j}) would need {len(new_cells)} cells, over the cap")
        pairs = dict(ep.pairs)
        pairs[(i, j)] = PairPartition(
            pp.left_size, pp.right_size, pp.left_mask, pp.right_mask, pp.host_rows, tuple(new_cells)
        )
        new_edges[ci] = EdgePartition(pairs)
    return CylinderChainPartition(p.vertex, tuple(new_edges))


def _outcome(fn, *args):
    """The result, or a failure's class and message; a stuck split reads as
    the RefinementFailure the engine loop raises for it."""
    try:
        return fn(*args)
    except RefinementFailure as exc:
        return type(exc), str(exc)
    except _Stuck as exc:
        return RefinementFailure, str(exc)


def test_chain_refinements_match_the_extract_and_unmap_route():
    """Refining each useful chain where it lies and merging by common
    refinement gives the partition, or the failure and its message, of
    the old route through a compact copy of the chain.  The profiles cover
    a plain refinement, the cell caps and a gain no candidate reaches."""
    profiles = (
        DESK,
        ConstantsProfile.desk(edge_part_cap=2),
        ConstantsProfile.desk(q_gain=Fraction(1, 8)),
    )
    rng = SplitMix64(11)
    with_useful = 0
    kinds = set()
    for case in range(300):
        t = 3 + case % 3
        sizes = tuple(1 + rng.below(4) for _ in range(t))
        h = random_partite_3graph(sizes, Fraction(1, 2), seed=rng.next_u64())
        p = random_cylinder_chain_partition(
            h.vertex_set, 1 + rng.below(3), 1 + rng.below(3), seed=rng.next_u64()
        )
        eta = (Fraction(1, 4), Fraction(1, 16))[case % 2]
        profile = profiles[case % 3]
        useful = survey_partition(h, p, eta, PSI_ID).useful
        if not useful:
            continue
        with_useful += 1
        got = _outcome(_apply_chain_refinements, h, p, useful, eta, profile)
        want = _outcome(_extract_and_unmap_refinements, h, p, useful, eta, profile)
        assert got == want, f"case {case}"
        kinds.add(got[1].split(" ")[0] if isinstance(got, tuple) else "refined")
    assert with_useful >= 100, with_useful
    assert {"refined", "pair", "no"} <= kinds


def _refine_by_pair_partitions(
    h: PartiteThreeGraph,
    masks: tuple[int, int, int],
    parts: tuple[int, int, int],
    cells: tuple[Sequence[int], Sequence[int], Sequence[int]],
    eta: Fraction,
    profile: ConstantsProfile,
) -> EdgePartition:
    """The single-chain edge refinement as it stood before candidates were
    scored as deviation cuts: every candidate is three validated
    PairPartitions, scored by ``q_cell_chain`` and dropped unless it wins."""
    tri, hyp, cert = cell_chain_stats(h, masks, parts, cells)
    if cert <= eta:
        raise InvalidStructure("chain is already quasirandom at this eta")
    i, j, k = parts
    sizes = h.vertex_set.sizes
    d = ratio(hyp, tri)
    target = d * d + profile.refine_gain(eta)
    num, den = d.numerator, d.denominator
    pair_keys = ((i, j), (i, k), (j, k))
    side_masks = {(i, j): masks[:2], (i, k): masks[::2], (j, k): masks[1:]}
    # The chain's pair graphs: each cell on the cylinder masks.
    host_of = {}
    for pk, cell in zip(pair_keys, cells):
        mask_a, mask_b = side_masks[pk]
        rows = tuple(row & mask_b if mask_a >> x & 1 else 0 for x, row in enumerate(cell))
        host_of[pk] = BipartiteGraph(sizes[pk[0]], sizes[pk[1]], rows)
    g01, g02, g12 = host_of.values()

    # Deviation through each edge.  Hyperedges on the chain's triangles:
    # through (x, y) from the index, through (x, z) and (y, z) tallied
    # from it.
    zm = h.zmasks(i, j, k)
    hyp02: dict[tuple[int, int], int] = {}
    hyp12: dict[tuple[int, int], int] = {}
    tbl = {}
    for x in bits(masks[0]):
        for y in bits(g01.rows[x]):
            tri_z = g02.rows[x] & g12.rows[y]
            zmask = zm.get((x, y), 0) & tri_z
            tbl[(x, y)] = den * zmask.bit_count() - num * tri_z.bit_count()
            for z in bits(zmask):
                hyp02[(x, z)] = hyp02.get((x, z), 0) + 1
                hyp12[(y, z)] = hyp12.get((y, z), 0) + 1
    devs: dict[tuple[int, int], dict[tuple[int, int], int]] = {(i, j): tbl}
    cols01, cols02, cols12 = g01.columns(), g02.columns(), g12.columns()
    tbl = {}
    for x in bits(masks[0]):
        for z in bits(g02.rows[x]):
            tri = (g01.rows[x] & cols12[z]).bit_count()
            tbl[(x, z)] = den * hyp02.get((x, z), 0) - num * tri
    devs[(i, k)] = tbl
    tbl = {}
    for y in bits(masks[1]):
        for z in bits(g12.rows[y]):
            tri = (cols01[y] & cols02[z]).bit_count()
            tbl[(y, z)] = den * hyp12.get((y, z), 0) - num * tri
    devs[(j, k)] = tbl

    def make_pps(cell_map: dict) -> tuple[PairPartition, ...]:
        return tuple(
            PairPartition(
                host_of[pk].left_size,
                host_of[pk].right_size,
                *side_masks[pk],
                host_of[pk].rows,
                cell_map.get(pk, (host_of[pk].rows,)),
            )
            for pk in pair_keys
        )

    def q_of(pps: tuple[PairPartition, ...], mode: str = "fast") -> Fraction:
        return q_cell_chain(h, parts, (g01.rows, g02.rows, g12.rows), pps, mode)

    def split(pk: tuple[int, int], groups: dict) -> tuple[tuple[int, ...], ...]:
        host = host_of[pk]
        return cells_by_label(host.left_size, host.rows, lambda x, y: groups[(x, y)])

    sign_cells = {}
    for pk in pair_keys:
        tbl = devs[pk]
        if not tbl:
            continue
        positive = {edge for edge, val in tbl.items() if val > 0}
        if positive and len(positive) < len(tbl):
            sign_cells[pk] = split(pk, {edge: edge in positive for edge in tbl})

    candidates: list[dict] = []
    keys_avail = [pk for pk in pair_keys if pk in sign_cells]
    for picks in range(1, 1 << len(keys_avail)):
        cell_map = {
            pk: sign_cells[pk]
            for bit, pk in enumerate(keys_avail)
            if picks >> bit & 1
        }
        candidates.append(cell_map)
    for pk in pair_keys:
        tbl = devs[pk]
        vals = sorted({abs(v) for v in tbl.values() if v != 0})
        if not vals:
            continue
        thr = vals[len(vals) // 2]
        groups = {
            edge: (0 if val < -thr else (2 if val > thr else 1)) for edge, val in tbl.items()
        }
        if len(set(groups.values())) >= 2:
            candidates.append({pk: split(pk, groups)})

    best_q = Fraction(-1)
    best_pps: tuple[PairPartition, ...] | None = None
    for cell_map in candidates:
        pps = make_pps(cell_map)
        qv = q_of(pps)
        if qv > best_q:
            best_q, best_pps = qv, pps

    if best_q < target:
        # Threshold sweep escalation: two-way cuts at spread-out deviation
        # levels, per pair and combined across pairs.
        combo: dict = {}
        for pk in pair_keys:
            tbl = devs[pk]
            vals = sorted(set(tbl.values()))
            if len(vals) < 2:
                continue
            cuts = {vals[(len(vals) - 1) * m // 14] for m in range(14)}
            best_pair_q = Fraction(-1)
            best_pair_cells = None
            for cut in sorted(cuts):
                groups = {edge: (0 if val <= cut else 1) for edge, val in tbl.items()}
                if len(set(groups.values())) < 2:
                    continue
                pair_cells = split(pk, groups)
                pps = make_pps({pk: pair_cells})
                qv = q_of(pps)
                if qv > best_q:
                    best_q, best_pps = qv, pps
                if qv > best_pair_q:
                    best_pair_q, best_pair_cells = qv, pair_cells
            if best_pair_cells is not None:
                combo[pk] = best_pair_cells
        if combo:
            pps = make_pps(combo)
            qv = q_of(pps)
            if qv > best_q:
                best_q, best_pps = qv, pps

    if best_pps is None:
        raise NoCandidateSplit(
            "no candidate edge split exists: within each pair every edge has the same deviation"
        )
    if best_q < target:
        raise RefinementFailure(
            f"no edge partition reached d^2 + gain = {target} (best q {best_q})"
        )
    if q_of(best_pps, mode="naive") != best_q:
        raise InvariantViolation("fast and naive q disagree on the chosen partition")
    best_ep = EdgePartition(dict(zip(pair_keys, best_pps)))
    if best_ep.cell_count > profile.edge_part_cap:
        raise RefinementFailure(
            f"winning partition has {best_ep.cell_count} cells, over the cap"
        )
    return best_ep


def test_refine_cell_chain_matches_the_pair_partition_search():
    """Scoring each candidate as a deviation cut in one label tally gives
    the refinement, or the failure and its message, of the search that
    built every candidate as pair partitions, on the located chains of
    random cylinder chain partitions under the three profiles above, plus
    a gain that sends half the chains to the threshold sweep and a cap
    that every split exceeds."""
    profiles = (
        DESK,
        ConstantsProfile.desk(edge_part_cap=2),
        ConstantsProfile.desk(q_gain=Fraction(1, 8)),
        ConstantsProfile.desk(q_gain=Fraction(1, 4)),
        ConstantsProfile.desk(edge_part_cap=1),
    )
    rng = SplitMix64(23)
    chains = 0
    kinds = set()
    for case in range(80):
        t = 3 + case % 3
        sizes = tuple(1 + rng.below(4) for _ in range(t))
        h = random_partite_3graph(sizes, Fraction(1, 2), seed=rng.next_u64())
        p = random_cylinder_chain_partition(
            h.vertex_set, 1 + rng.below(3), 1 + rng.below(3), seed=rng.next_u64()
        )
        eta = (Fraction(1, 4), Fraction(1, 16))[case % 2]
        for (ci, (i, j, k), _combo, cells) in survey_partition(h, p, eta, PSI_ID).useful:
            cyl = p.vertex.cylinders[ci]
            args = (h, (cyl.masks[i], cyl.masks[j], cyl.masks[k]), (i, j, k), cells, eta)
            chains += 1
            for profile in profiles:
                got = _outcome(refine_cell_chain, *args, profile)
                want = _outcome(_refine_by_pair_partitions, *args, profile)
                assert got == want, f"case {case}"
                kinds.add(got[1].split(" ")[0] if isinstance(got, tuple) else "refined")
    assert chains >= 300, chains
    assert {"refined", "no", "winning"} <= kinds


def test_a_refinement_builds_pair_partitions_for_the_winner_only(monkeypatch):
    """Candidates are label tables, not partitions: a successful refinement
    constructs the three PairPartitions of its winner and no others."""
    built = []
    post_init = PairPartition.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(PairPartition, "__post_init__", counted)
    pe = one_cylinder_refine(build_box_chain(), Fraction(1, 250), DESK)
    assert len(built) == 3
    assert tuple(pe.pairs.values()) == tuple(built)


def _count_calls(monkeypatch, fn) -> list:
    """Count calls of ``fn`` through every regulab module that holds it."""
    import sys

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("regulab"):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_a_refine_step_extracts_and_certifies_each_chain_once(monkeypatch):
    """One refine step (the survey, then the refinements) reads each
    distinct located chain where it lies and cuts none out: the kernel's
    first pass also counts the triangles, so it runs once on each chain,
    with triangles or without.  The pair loop runs at most once per chain,
    only on chains whose bound is above eta, and on each of those whose
    bound is not already exact; the refinement reads the evaluator's
    numbers."""
    extracted = _count_calls(monkeypatch, extract_cell_chain)
    passes = _count_calls(monkeypatch, chain_first_pass)
    loops = _count_calls(monkeypatch, chain_pair_total)
    eta = Fraction(1, 16)
    h = random_partite_3graph((3, 4, 3, 4), Fraction(1, 2), seed=5)
    p = random_cylinder_chain_partition(h.vertex_set, 2, 2, seed=6)
    useful = survey_partition(h, p, eta, PSI_ID).useful
    refined = _apply_chain_refinements(h, p, useful, eta, DESK)
    assert len(useful) >= 5 and refined != p
    stored = h.index.cell_chains
    assert any(tri for tri, _, _ in stored.values())
    assert len(passes) == len(stored)
    undecided = {
        key for key, (_, _, (n, d)) in stored.items() if n * eta.denominator > eta.numerator * d
    }
    assert undecided <= h.index.chain_values.keys()
    # Every first pass stored a chain, so distinct passes are distinct chains.
    looped = [args[0] for args in loops]
    assert len({id(fp) for fp in looped}) == len(looped)
    assert all(fp.paired and Fraction(*fp.scaled(fp.diagonal)) > eta for fp in looped)
    # The survey read every chain's verdict, so each chain above eta whose
    # bound is not its certificate ran the loop.
    fps = [chain_first_pass(*args) for args in passes]
    above = [fp for fp in fps if fp.paired and Fraction(*fp.scaled(fp.diagonal)) > eta]
    assert len(looped) == len(above) > 0
    assert extracted == []


HALF_2X48 = "part V 96\n" + "".join(f"e {i} {48 + j}\n" for i in range(48) for j in range(i, 48))


def test_exhaustive_witness_search_refuses_past_the_cap(tmp_path, capsys):
    """``--witness-search exhaustive`` enumerates the left side's subsets
    only up to ``--witness-cap``; past it the run exits 3 with one line
    instead of walking 2^12 subsets per witness on the half graph."""
    from regulab.cli import run

    path = tmp_path / "half.g"
    path.write_text(HALF_2X48)
    argv = ["decompose", "--input", str(path), "--eps", "1/8", "--witness-search", "exhaustive"]
    assert run(argv + ["--witness-cap", "4"]) == 3
    err = capsys.readouterr().err
    assert err == "capacity: exhaustive witness search over 12 left vertices exceeds the witness cap 4\n"


def test_witness_split_refuses_a_left_side_past_the_cap():
    rows = tuple(((1 << 30) - 1) >> x for x in range(30))
    with pytest.raises(CapacityError, match="over 30 left vertices exceeds the witness cap 16"):
        _witness_split(rows, list(range(30)), (1 << 30) - 1, "exhaustive", 16)
    # auto and greedy threshold by degree instead
    for search in ("auto", "greedy"):
        assert _witness_split(rows, list(range(30)), (1 << 30) - 1, search, 16) is not None


def test_szemeredi_splits_planted_cells():
    from conftest import build_planted_chain_partition

    q0 = build_planted_chain_partition()
    alpha = Fraction(1, 20)
    qf, trace = szemeredi_multi(q0, alpha, DESK)
    # the planted identity cells force witness splits down to singletons
    assert any(r.action.startswith(("refine", "split")) for r in trace.rows)
    n = 80
    same = sum(Fraction(len(p), n) ** 2 for p in qf.parts)
    bad = same
    for (a, b), pp in qf.pairs.items():
        la, lb = len(qf.parts[a]), len(qf.parts[b])
        for idx in range(pp.cell_count):
            cert = pair_quasirandomness(BipartiteGraph(la, lb, pp.cells[idx]))
            if cert.value > alpha:
                bad += Fraction(
                    2 * sum(r.bit_count() for r in pp.cells[idx]), n * n
                )
    assert bad <= alpha


def test_szemeredi_accepts_quasirandom_input():
    n = 16
    parts = tuple(tuple(range(4 * a, 4 * a + 4)) for a in range(4))
    host = (0b1111,) * 4
    pairs = {
        (a, b): PairPartition(4, 4, 0b1111, 0b1111, host, (host,))
        for a in range(4)
        for b in range(a + 1, 4)
    }
    q0 = ChainPartition(n, parts, pairs)
    qf, trace = szemeredi_multi(q0, Fraction(1, 2), DESK)
    assert trace.rows[-1].action == "accept"
    assert qf.part_count == 4


def _complete_chain_partition(sizes, label=lambda x, y: 0) -> ChainPartition:
    """Consecutive parts of the given sizes; every pair's complete host is
    split into cells by ``label``."""
    parts, start = [], 0
    for size in sizes:
        parts.append(tuple(range(start, start + size)))
        start += size
    pairs = {
        (a, b): PairPartition.complete(sizes[a], sizes[b], label)
        for a, b in combinations(range(len(sizes)), 2)
    }
    return ChainPartition(start, tuple(parts), pairs)


def _checkerboard_chain_partition() -> ChainPartition:
    """Twenty parts of four whose pairs hold the two colour classes of a
    checkerboard: halving the parts leaves 2x2 identity cells of
    certificate 1/16 on every pair."""
    return _complete_chain_partition((4,) * 20, lambda x, y: (x ^ y) & 1)


HALVES = tuple((2 * a, 2 * a + 1) for a in range(8))
SINGLETONS = tuple((v,) for v in range(16))


@pytest.mark.parametrize(
    "sizes, alpha, max_steps, parts, actions, masses, error",
    [
        ((4,) * 4, Fraction(1, 4), 64, HALVES, ["split-sizes", "accept"], ["1/4", "1/8"], None),
        (
            (4,) * 4,
            Fraction(1, 8),
            64,
            SINGLETONS,
            ["split-sizes", "split-sizes", "accept"],
            ["1/4", "1/8", "1/16"],
            None,
        ),
        (
            (4,) * 4,
            Fraction(1, 40),
            64,
            None,
            ["split-sizes", "split-sizes"],
            ["1/4", "1/8"],
            "same-part mass exceeds the budget even at singletons",
        ),
        (
            (4,) * 4,
            Fraction(1, 40),
            1,
            None,
            ["split-sizes", "split-sizes"],
            ["1/4", "1/8"],
            "size splitting did not fit the budget before the step cap",
        ),
        (
            (1,) * 4,
            Fraction(1, 4),
            64,
            None,
            [],
            [],
            "same-part mass exceeds the budget even at singletons",
        ),
    ],
)
def test_szemeredi_size_phase(sizes, alpha, max_steps, parts, actions, masses, error):
    """The size phase halves every part of two or more vertices, the first
    half first, until same-part mass is at most alpha/2; the complete pairs'
    cells then pass the audit.  Singletons that still exceed the budget and
    the step cap end it with their own messages and the rows reached."""
    q0 = _complete_chain_partition(sizes)
    profile = ConstantsProfile.desk(max_steps=max_steps)
    if error is None:
        qf, trace = szemeredi_multi(q0, alpha, profile)
        assert qf.parts == parts
        assert qf.edge_cell_count == 1
    else:
        with pytest.raises(NonterminationError, match=error) as info:
            szemeredi_multi(q0, alpha, profile)
        trace = info.value.trace
    assert [row.action for row in trace.rows] == actions
    assert [str(row.useful_mass) for row in trace.rows] == masses
    assert all(row.stage == "pairs" for row in trace.rows)


@pytest.mark.parametrize("max_steps", [64, 1])
def test_szemeredi_size_then_witness_phase(max_steps):
    """A size split leaves checkerboard identity cells on every pair; one
    witness step splits them to singletons.  With one step allowed the pair
    audit is still failing at the cap."""
    q0 = _checkerboard_chain_partition()
    profile = ConstantsProfile.desk(max_steps=max_steps)
    actions = ["split-sizes", "refine-pairs"]
    if max_steps == 1:
        with pytest.raises(NonterminationError, match="pair audit still failing at the step cap") as info:
            szemeredi_multi(q0, Fraction(1, 20), profile)
        assert [row.action for row in info.value.trace.rows] == actions
        return
    qf, trace = szemeredi_multi(q0, Fraction(1, 20), profile)
    assert [row.action for row in trace.rows] == actions + ["accept"]
    assert [row.vertex_count for row in trace.rows] == [20, 40, 80]
    assert [str(row.useful_mass) for row in trace.rows] == ["1/20", "39/40", "1/80"]
    # Each witness mask holds the half's first vertex, and the unset key sorts first.
    assert qf.parts == tuple((v ^ 1,) for v in range(80))


def test_szemeredi_walks_each_partition_once(monkeypatch):
    """Each partition the pair loop reaches is walked once: every pair's
    edge counts are read once, and its certificate terms once if the
    partition reaches the audit and never if it is only size-split.
    ``certificate_terms`` reads the edge counts too; only reads from
    outside the pair partition are counted."""
    import sys

    inside = PairPartition.__dict__["certificate_terms"].func.__code__
    reads = {name: {} for name in ("edge_counts", "certificate_terms")}
    for name, seen in reads.items():
        cached = PairPartition.__dict__[name]

        def counted(self, seen=seen, cached=cached):
            if sys._getframe(1).f_code is not inside:
                seen.setdefault(id(self), [self, 0])[1] += 1
            return cached.__get__(self, PairPartition)

        monkeypatch.setattr(PairPartition, name, property(counted))
    _, trace = szemeredi_multi(_checkerboard_chain_partition(), Fraction(1, 20), DESK)
    assert [row.action for row in trace.rows] == ["split-sizes", "refine-pairs", "accept"]
    audited = [row for row in trace.rows if row.action != "split-sizes"]
    assert {count for _, count in reads["edge_counts"].values()} == {1}
    assert {count for _, count in reads["certificate_terms"].values()} == {1}
    assert len(reads["edge_counts"]) == sum(comb(row.vertex_count, 2) for row in trace.rows)
    assert len(reads["certificate_terms"]) == sum(comb(row.vertex_count, 2) for row in audited)


@pytest.mark.parametrize(
    "count, alpha, action, bad",
    [
        (40, Fraction(1, 16), "accept", Fraction(1, 40)),
        (40, Fraction(1, 16) - Fraction(1, 10**9), "refine-pairs", Fraction(1)),
        (32, Fraction(1, 16), "accept", Fraction(1, 32)),
        (32, Fraction(1, 16) - Fraction(1, 10**9), "split-sizes", Fraction(1, 32)),
    ],
)
def test_szemeredi_ties_at_alpha(count, alpha, action, bad):
    """Parts of two whose pairs hold 2x2 identity cells, each of certificate
    1/16: a certificate equal to alpha passes the pair audit and one above
    it fails, and a same-part mass equal to alpha/2 reaches the audit and
    one above it splits sizes.  The first row's index and bad mass equal
    the walk written in fractions."""
    q0 = _complete_chain_partition((2,) * count, lambda x, y: (x ^ y) & 1)
    try:
        _, trace = szemeredi_multi(q0, alpha, DESK)
    except EngineError as exc:
        trace = exc.trace
    row = trace.rows[0]
    assert (row.action, row.useful_mass) == (action, bad)
    n = q0.n
    index = sum(
        Fraction(2 * area, n * n) * Fraction(sum(r.bit_count() for r in cell), area) ** 3
        for (a, b), pp in q0.pairs.items()
        for area in [len(q0.parts[a]) * len(q0.parts[b])]
        for cell in pp.cells
    )
    assert row.q == index


def test_hyper_accepts_misaligned_cone():
    h = build_misaligned_cone()
    from regulab.core import equitable_partition, partite_from_three_graph

    parts = equitable_partition(27, 9)
    hp = partite_from_three_graph(h, parts)
    eta_c = Fraction(1, 4) ** 4 / 16
    p, accepted, trace = hyper_cylinder_regularity(hp, eta_c, PSI_ID, DESK)
    assert [r.action for r in trace.rows] == ["refine-edges", "accept"]
    # The audit the engine accepted on equals a fresh one on a cold, equal
    # hypergraph, after a refinement step.
    cold = PartiteThreeGraph.from_triples(hp.vertex_set, hp.triples)
    audit = cylinder_quasirandomness_audit(cold, p, eta_c, PSI_ID)
    assert audit.good_mass >= 1 - eta_c
    assert accepted == audit


def test_a_bounded_audit_keeps_the_cone_trace():
    """On the misaligned t = 9 cone (3^9 tuples), audits bounded at every
    step (cap 0) give the trace and the partition of exact counts at the
    default cap, and the accepted bound is at most the exact mass."""
    from regulab.core import equitable_partition, partite_from_three_graph

    hp = partite_from_three_graph(build_misaligned_cone(), equitable_partition(27, 9))
    eta_c = Fraction(1, 4) ** 4 / 16
    p, exact, trace = hyper_cylinder_regularity(hp, eta_c, PSI_ID, DESK)
    capped = ConstantsProfile.desk(audit_tuple_cap=0)
    p_b, bounded, trace_b = hyper_cylinder_regularity(hp, eta_c, PSI_ID, capped)
    assert (exact.mode, bounded.mode) == ("exhaustive", "bounded")
    assert (p_b, trace_b) == (p, trace)
    assert bounded.good_mass <= exact.good_mass


@pytest.mark.parametrize("n, seed", [(14, 0), (15, 29)])
def test_the_hyper_loop_walks_each_partition_once(n, seed, monkeypatch):
    """Each partition the hyper loop reaches is surveyed once, and that
    survey is the only walk over its located chains: q, the tuple audit and
    the useful chains all come from it.  At n = 15, seed 29 a cylinder
    split follows the edge refinement."""
    import regulab.partitions as partitions

    walks = _count_calls(monkeypatch, partitions.located_cell_chains)
    surveys = _count_calls(monkeypatch, survey_partition)
    _, _, trace = homogeneous_decomposition(
        random_tournament_3graph(n, seed), Fraction(1, 4), PSI_ID, DESK
    )
    rows = [r for r in trace.rows if r.stage == "hyper"]
    assert len(rows) >= 2 + (n == 15)
    assert len(walks) == len(surveys) == len(rows)
    assert [args[1] for args in walks] == [args[1] for args in surveys]


# ---------------------------------------------------------------------------
# Every exit of the three engine loops, pinned.
# ---------------------------------------------------------------------------

# A (3, 3, 3) partite 3-graph at eta = 1/4096 whose profiles reach most
# exits of the hyper loop: under DESK it refines edges twice, splits
# cylinders and accepts.
_H0 = ((3, 3, 3), 1344154044715485647)
_PLANTED = tuple(0b00001111 if x < 4 else 0b11110000 for x in range(8))


def _hyper(profile=DESK):
    h = random_partite_3graph(_H0[0], Fraction(1, 2), seed=_H0[1])
    return hyper_cylinder_regularity(h, Fraction(1, 4096), PSI_ID, profile)


def _dlr(profile=DESK):
    vs = PartiteVertexSet(("A", "B"), (8, 8))
    return dlr_cylinder_regularity(vs, [(0, 1, _PLANTED)], Fraction(1, 20), profile)


def _decompose(n, seed, t):
    return homogeneous_decomposition(
        random_tournament_3graph(n, seed), Fraction(1, 4), PSI_ID, DESK, t=t
    )


def _quartets(alpha, profile=DESK):
    return szemeredi_multi(_complete_chain_partition((4,) * 4), alpha, profile)


def _checkerboard(profile=DESK):
    return szemeredi_multi(_checkerboard_chain_partition(), Fraction(1, 20), profile)


def _no_witness(monkeypatch):
    from regulab import engines

    monkeypatch.setattr(engines, "_witness_split", lambda *args: None)


def _falling_sums(monkeypatch, true_calls):
    """The walks' index sums read true for ``true_calls`` calls, then one
    less: the next split lowers the energy."""
    from regulab import engines

    real, calls = engines.fraction_sum, []

    def falling(*args):
        calls.append(args)
        return real(*args) - (1 if len(calls) > true_calls else 0)

    monkeypatch.setattr(engines, "fraction_sum", falling)


def _falling_q(monkeypatch, lowered):
    """Surveys whose q reads -1 on every partition ``lowered`` picks."""
    from dataclasses import replace

    from regulab import engines

    real = engines.survey_partition

    def survey(h, p, *args):
        got = real(h, p, *args)
        return replace(got, q=Fraction(-1)) if lowered(p) else got

    monkeypatch.setattr(engines, "survey_partition", survey)


def _parity():
    """The 2x2x2 parity 3-graph at eta = 1/512: its one chain is useful but
    has no candidate edge split, so the step turns to the cylinders, and
    the trivial cylinder already passes dlr."""
    vs = PartiteVertexSet.of_sizes(2, 2, 2)
    trips = [
        (x, 2 + y, 4 + z)
        for x in range(2)
        for y in range(2)
        for z in range(2)
        if (x + y + z) % 2 == 0
    ]
    h = PartiteThreeGraph.from_triples(vs, trips)
    return hyper_cylinder_regularity(h, Fraction(1, 512), PSI_ID, DESK)


def _orphans(monkeypatch):
    monkeypatch.setattr(VertexCylinderPartition, "container", lambda self, cyl: None)


def _growing_restriction(monkeypatch):
    from types import SimpleNamespace

    from regulab import engines

    monkeypatch.setattr(
        engines,
        "restrict_chain_partition",
        lambda qp, groups: SimpleNamespace(edge_cell_count=qp.edge_cell_count + 1),
    )


EXITS = [
    # dlr_cylinder_regularity
    pytest.param(
        None,
        _dlr,
        ("returned", None, (
            (0, "1/4", "split-cylinders", "cylinder"),
            (1, "1/2", "accept", "cylinder"),
        )),
        id="dlr-accept",
    ),
    pytest.param(
        None,
        lambda: dlr_cylinder_regularity(
            *_half_graph_pairs(), Fraction(1, 64), ConstantsProfile.desk(max_steps=1)
        ),
        ("NonterminationError", "cylinder audit still failing at the step cap", (
            (0, "1033/144", "split-cylinders", "cylinder"),
            (1, "5603/768", "split-cylinders", "cylinder"),
        )),
        id="dlr-step-cap",
    ),
    pytest.param(
        _no_witness,
        _dlr,
        ("RefinementFailure", "no deviation witness splits the failing cylinders", (
            (0, "1/4", "split-cylinders", "cylinder"),
        )),
        id="dlr-no-witness",
    ),
    pytest.param(
        lambda mp: _falling_sums(mp, 1),
        _dlr,
        ("InvariantViolation", "edge index decreased across a vertex split", None),
        id="dlr-index-falls",
    ),
    pytest.param(
        None,
        lambda: _dlr(ConstantsProfile.desk(q_gain=Fraction(1))),
        ("RefinementFailure", "index gain 1/4 fell below the profile floor", (
            (0, "1/4", "split-cylinders", "cylinder"),
        )),
        id="dlr-gain-floor",
    ),
    # hyper_cylinder_regularity
    pytest.param(
        None,
        _hyper,
        ("returned", None, (
            (0, "100/729", "refine-edges", "hyper"),
            (1, "46/135", "refine-edges", "hyper"),
            (2, "10/27", "split-cylinders", "hyper"),
            (3, "10/27", "accept", "hyper"),
        )),
        id="hyper-accept",
    ),
    pytest.param(
        None,
        lambda: _hyper(ConstantsProfile.desk(max_steps=2)),
        ("NonterminationError", "tuple audit still failing at the step cap", (
            (0, "100/729", "refine-edges", "hyper"),
            (1, "46/135", "refine-edges", "hyper"),
            (2, "10/27", "split-cylinders", "hyper"),
        )),
        id="hyper-step-cap",
    ),
    pytest.param(
        None,
        lambda: _hyper(ConstantsProfile.desk(q_gain=Fraction(1, 16))),
        ("RefinementFailure", "edge refinement gained 4/135, below the floor 1/16", (
            (0, "100/729", "refine-edges", "hyper"),
            (1, "46/135", "refine-edges", "hyper"),
        )),
        id="hyper-gain-floor",
    ),
    pytest.param(  # dlr's own gain floor, met inside cylinder re-regularization
        None,
        lambda: hyper_cylinder_regularity(
            random_partite_3graph((5, 2, 2), Fraction(1, 2), seed=6819561501470575824),
            Fraction(1, 4096), PSI_ID, ConstantsProfile.desk(q_gain=Fraction(1, 16)),
        ),
        ("RefinementFailure", "index gain 1/20 fell below the profile floor", (
            (0, "38/25", "split-cylinders", "cylinder"),
            (1, "51/25", "split-cylinders", "cylinder"),
            (2, "151/60", "split-cylinders", "cylinder"),
            (3, "59/20", "split-cylinders", "cylinder"),
        )),
        id="hyper-reregularization-gain-floor",
    ),
    pytest.param(
        lambda mp: _falling_q(mp, lambda p: p.edge_count > 1),
        _hyper,
        ("InvariantViolation", "q decreased across an edge refinement", None),
        id="hyper-q-falls-on-edges",
    ),
    pytest.param(
        lambda mp: _falling_q(mp, lambda p: p.vertex_count > 1),
        _hyper,
        ("InvariantViolation", "q decreased across a cylinder split", None),
        id="hyper-q-falls-on-cylinders",
    ),
    pytest.param(
        None,
        lambda: _hyper(ConstantsProfile.desk(edge_part_cap=2)),
        ("RefinementFailure", "pair (0,1) would need 3 cells, over the cap", (
            (0, "100/729", "refine-edges", "hyper"),
            (1, "46/135", "refine-edges", "hyper"),
        )),
        id="hyper-pair-cap",
    ),
    pytest.param(
        None,
        lambda: _decompose(48, 1, t=3),
        ("RefinementFailure", "pair (0,1) would need 82 cells, over the cap", (
            (0, "1054729/16777216", "refine-edges", "hyper"),
            (1, "23011938597626488831/273228777264105062400", "refine-edges", "hyper"),
            (2, "103811/430080", "refine-edges", "hyper"),
        )),
        id="hyper-pair-cap-t3",
    ),
    pytest.param(
        None,
        lambda: _decompose(48, 0, t=4),
        ("RefinementFailure", "pair (0,1) would need 138 cells, over the cap", (
            (0, "86971/331776", "refine-edges", "hyper"),
            (
                1,
                "646236361854976501336646079836501/1394586201245436230314266253670400",
                "refine-edges",
                "hyper",
            ),
        )),
        id="hyper-pair-cap-t4",
    ),
    # refine_cell_chain"s own failures carry the hyper loop's rows.
    pytest.param(
        None,
        lambda: _hyper(ConstantsProfile.desk(edge_part_cap=1)),
        ("RefinementFailure", "winning partition has 2 cells, over the cap", (
            (0, "100/729", "refine-edges", "hyper"),
        )),
        id="hyper-winner-cap",
    ),
    pytest.param(
        None,
        lambda: _hyper(ConstantsProfile.desk(q_gain=Fraction(1, 4))),
        (
            "RefinementFailure",
            "no edge partition reached d^2 + gain = 1129/2916 (best q 46/135)",
            ((0, "100/729", "refine-edges", "hyper"),),
        ),
        id="hyper-no-gain-target",
    ),
    # _reregularize_cylinders
    # The step had useful chains, so its row reads split-cylinders only
    # because none had a candidate edge split.
    pytest.param(
        None,
        _parity,
        ("RefinementFailure", "cylinder re-regularization made no progress", (
            (0, "1/4", "split-cylinders", "hyper"),
        )),
        id="rereg-no-progress",
    ),
    pytest.param(
        _orphans,
        _hyper,
        ("InvariantViolation", "refined cylinder has no parent", None),
        id="rereg-no-parent",
    ),
    # dlr"s own exits inside re-regularization carry dlr"s rows.
    pytest.param(
        None,
        lambda: _hyper(ConstantsProfile.desk(witness_search="greedy")),
        ("RefinementFailure", "no deviation witness splits the failing cylinders", (
            (0, "121/81", "split-cylinders", "cylinder"),
            (1, "97/54", "split-cylinders", "cylinder"),
            (2, "64/27", "split-cylinders", "cylinder"),
            (3, "25/9", "split-cylinders", "cylinder"),
            (4, "79/27", "split-cylinders", "cylinder"),
        )),
        id="rereg-dlr-no-witness",
    ),
    pytest.param(
        None,
        lambda: _hyper(ConstantsProfile.desk(witness_search="greedy", max_steps=3)),
        ("NonterminationError", "cylinder audit still failing at the step cap", (
            (0, "121/81", "split-cylinders", "cylinder"),
            (1, "97/54", "split-cylinders", "cylinder"),
            (2, "64/27", "split-cylinders", "cylinder"),
            (3, "25/9", "split-cylinders", "cylinder"),
        )),
        id="rereg-dlr-step-cap",
    ),
    # szemeredi_multi
    pytest.param(
        None,
        _checkerboard,
        ("returned", None, (
            (0, "19/80", "split-sizes", "pairs"),
            (1, "21/80", "refine-pairs", "pairs"),
            (2, "79/80", "accept", "pairs"),
        )),
        id="pairs-accept",
    ),
    pytest.param(
        None,
        lambda: _quartets(Fraction(1, 40)),
        ("NonterminationError", "same-part mass exceeds the budget even at singletons", (
            (0, "3/4", "split-sizes", "pairs"),
            (1, "7/8", "split-sizes", "pairs"),
        )),
        id="pairs-singletons",
    ),
    pytest.param(
        None,
        lambda: szemeredi_multi(_complete_chain_partition((1,) * 4), Fraction(1, 4), DESK),
        ("NonterminationError", "same-part mass exceeds the budget even at singletons", ()),
        id="pairs-singletons-at-once",
    ),
    pytest.param(
        None,
        lambda: _quartets(Fraction(1, 40), ConstantsProfile.desk(max_steps=1)),
        ("NonterminationError", "size splitting did not fit the budget before the step cap", (
            (0, "3/4", "split-sizes", "pairs"),
            (1, "7/8", "split-sizes", "pairs"),
        )),
        id="pairs-size-step-cap",
    ),
    pytest.param(
        None,
        lambda: _checkerboard(ConstantsProfile.desk(max_steps=1)),
        ("NonterminationError", "pair audit still failing at the step cap", (
            (0, "19/80", "split-sizes", "pairs"),
            (1, "21/80", "refine-pairs", "pairs"),
        )),
        id="pairs-step-cap",
    ),
    pytest.param(
        _no_witness,
        _checkerboard,
        ("RefinementFailure", "no deviation witness splits the failing cells", (
            (0, "19/80", "split-sizes", "pairs"),
            (1, "21/80", "refine-pairs", "pairs"),
        )),
        id="pairs-no-witness",
    ),
    pytest.param(
        _growing_restriction,
        _checkerboard,
        ("InvariantViolation", "restriction increased a pair's cell count", None),
        id="pairs-restriction-grows",
    ),
    pytest.param(
        lambda mp: _falling_sums(mp, 1),
        _checkerboard,
        ("InvariantViolation", "index decreased across a size split", None),
        id="pairs-index-falls-on-sizes",
    ),
    pytest.param(
        lambda mp: _falling_sums(mp, 2),
        _checkerboard,
        ("InvariantViolation", "index decreased across a witness split", None),
        id="pairs-index-falls-on-witnesses",
    ),
    pytest.param(
        None,
        lambda: _checkerboard(ConstantsProfile.desk(q_gain=Fraction(1))),
        ("RefinementFailure", "index gain 29/40 fell below the profile floor", (
            (0, "19/80", "split-sizes", "pairs"),
            (1, "21/80", "refine-pairs", "pairs"),
        )),
        id="pairs-gain-floor",
    ),
]


def _exit_of(run):
    """(exception class or "returned", message, trace rows as (step, q,
    action, stage)), the rows None where the exception carries no trace."""
    try:
        trace = run()[-1]
        kind, message = "returned", None
    except (EngineError, InvariantViolation) as exc:
        kind, message, trace = type(exc).__name__, str(exc), getattr(exc, "trace", None)
    if trace is None:
        return kind, message, None
    return kind, message, tuple((r.step, str(r.q), r.action, r.stage) for r in trace.rows)


@pytest.mark.parametrize("patch, run, expected", EXITS)
def test_every_engine_exit_keeps_its_class_message_and_trace(patch, run, expected, monkeypatch):
    """One row per way out of the three engine loops, and of the helpers
    they split through: the exception class, its message and the trace it
    carries, or the trace returned.  A failure raised by refine_cell_chain
    carries the hyper loop's rows; dlr's own exits inside re-regularization
    carry dlr's rows.  The patches reach exits that no input reaches."""
    if patch is not None:
        patch(monkeypatch)
    assert _exit_of(run) == expected


def test_homogeneous_decomposition_cone():
    h = build_misaligned_cone()
    eta = Fraction(1, 4)
    q, audit, trace = homogeneous_decomposition(h, eta, PSI_ID, DESK, t=9)
    assert audit.homogeneous_mass == Fraction(56, 81)
    assert audit.homogeneous_crossing_mass == 1
    assert audit.homogeneous_mass >= 1 - 2 * eta


def test_homogeneous_decomposition_clique_union():
    h = build_clique_union()
    eta = Fraction(1, 4)
    q, audit, trace = homogeneous_decomposition(h, eta, PSI_ID, DESK, t=9)
    assert audit.homogeneous_mass == Fraction(56, 81)
    assert audit.homogeneous_mass >= 1 - 2 * eta


def test_graph_pipeline_two_cliques():
    g = build_two_clique_noise()
    eps = Fraction(1, 5)
    parts, audit, trace = graph_homogeneous_decomposition(g, eps, DESK)
    assert audit.homogeneous_mass == Fraction(41, 50)
    assert audit.same_part_mass == Fraction(9, 50)
    assert audit.homogeneous_mass >= 1 - 2 * eps
    assert sorted(v for p in parts for v in p) == list(range(40))


def test_graph_pipeline_windows_close_at_eps():
    """The graph audit counts a part pair of density exactly eps or 1 - eps
    as homogeneous: on small random graphs, where such ties occur, every
    audit equals the one written in fractions from the returned parts."""
    ties = 0
    for seed in range(12):
        g = random_graph(6 + seed % 5, Fraction(1, 2), seed)
        eps = (Fraction(1, 4), Fraction(1, 3))[seed % 2]
        parts, audit, _ = graph_homogeneous_decomposition(g, eps, DESK)
        n = g.n
        same = sum(Fraction(len(part), n) ** 2 for part in parts)
        hom = Fraction(0)
        for a, b in combinations(range(len(parts)), 2):
            mask = sum(1 << v for v in parts[b])
            e = sum((g.rows[u] & mask).bit_count() for u in parts[a])
            d = Fraction(e, len(parts[a]) * len(parts[b]))
            ties += d in (eps, 1 - eps)
            if d <= eps or d >= 1 - eps:
                hom += Fraction(2 * len(parts[a]) * len(parts[b]), n * n)
        assert (audit.homogeneous_mass, audit.same_part_mass) == (hom, same)
        assert audit.homogeneous_crossing_mass == hom / (1 - same)
    assert ties


@pytest.mark.parametrize(
    "g, eps",
    [
        pytest.param(Graph.from_edges(96, [(i, 48 + j) for i in range(48) for j in range(i, 48)]),
                     Fraction(1, 8), id="half-2x48"),
        pytest.param(random_graph(30, Fraction(1, 2), 2), Fraction(1, 6), id="graph30"),
    ],
)
def test_graph_pipeline_parts_are_the_atoms_of_the_dlr_partition(g, eps, monkeypatch):
    """The graph pipeline's parts are the atoms of the one partition ``dlr``
    returns, flattened to graph ids; every cylinder kept has all of its
    masks nonempty, so every cylinder counts in every atom's key."""
    built = []
    post_init = VertexCylinderPartition.__post_init__

    def kept(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(VertexCylinderPartition, "__post_init__", kept)
    parts, _, _ = graph_homogeneous_decomposition(g, eps, DESK)
    (pv,) = built
    assert len(pv.cylinders) > 1
    assert all(all(cyl.masks) for cyl in pv.cylinders)
    off = pv.vertex_set.offsets
    assert parts == tuple(tuple(off[i] + a for a in locs) for i, locs, _ in pv.atoms())
    assert all(pv.holders[i][a] == key for i, locs, key in pv.atoms() for a in locs)


def test_fps_half_graph_blocks():
    hg = half_graph(64)
    a_parts, b_parts = fps_packing_partition(hg, Fraction(1, 8))
    assert [len(p) for p in a_parts] == [8] * 8
    n = 64
    for part in a_parts:
        for v in part:
            for w in part:
                assert (hg.rows[v] ^ hg.rows[w]).bit_count() < 2 * Fraction(1, 8) * n


def test_fps_random_graph_guarantee():
    g = random_bipartite(24, 24, Fraction(1, 2), seed=11)
    eps = Fraction(1, 4)
    a_parts, b_parts = fps_packing_partition(g, eps)
    cols = g.columns()
    for part in b_parts:
        for v in part:
            for w in part:
                assert (cols[v] ^ cols[w]).bit_count() < 2 * eps * 24


def test_quasirandom_subset_complete_input():
    h = ThreeGraph(12, frozenset(combinations(range(12), 3)))
    res = quasirandom_subset(h, Fraction(1, 4), PSI_ID, DESK, seed=0)
    assert res.vertices == tuple(range(12))
    assert res.density == 1
    assert res.certificate_value == 0
    assert res.bucket == 16
    assert res.eta_ok and res.psi_ok


def test_quasirandom_subset_cone():
    rows = tuple(
        0b111111000000 if a >= 6 else 0b000000111111 for a in range(12)
    )
    from regulab.generators import cone_hypergraph

    h = cone_hypergraph(BipartiteGraph(12, 12, rows), 12).to_three_graph()
    res = quasirandom_subset(h, Fraction(1, 4), PSI_ID, DESK, seed=5)
    assert res.density == Fraction(1, 2)
    assert res.certificate_value == 0
    assert res.eta_ok


@pytest.mark.parametrize("n, seed", [(10, 2), (12, 4)])
def test_quasirandom_subset_certifies_its_cover_once(n, seed, monkeypatch):
    """The cover chain goes through the octahedral kernel once: psi_ok reads
    the certificate already in hand, and equals eta_psi_check's verdict."""
    certified = _count_calls(monkeypatch, masked_chain_quasirandomness)
    h = random_tournament_3graph(n, seed=n - 5)
    prof = ConstantsProfile.desk(cylinder_eta=Fraction(1, 100))
    eta = Fraction(1, 4)
    res = quasirandom_subset(h, eta, PSI_ID, prof, seed=seed)
    g = res.chain.graph
    rows = (g.pair(0, 1).rows, g.pair(0, 2).rows, g.pair(1, 2).rows)
    assert [args[0] for args in certified].count(rows) == 1
    assert res.psi_ok == eta_psi_check(res.chain, eta, PSI_ID)


def test_rodl_sparse_and_dense():
    single = ThreeGraph(4, frozenset({(0, 1, 2)}))
    empty = ThreeGraph(12, frozenset())
    res = rodl_sparse_dense(empty, single, Fraction(1, 8), DESK)
    assert res.kind == "sparse" and res.density == 0
    full = ThreeGraph(12, frozenset(combinations(range(12), 3)))
    res = rodl_sparse_dense(full, single, Fraction(1, 8), DESK)
    assert res.kind == "dense" and res.density == 1


def test_rodl_middle_density_witness():
    h = random_tournament_3graph(12, seed=3)
    prof = ConstantsProfile.desk(cylinder_eta=Fraction(1, 100))
    single = ThreeGraph(3, frozenset({(0, 1, 2)}))
    res = rodl_sparse_dense(h, single, Fraction(1, 8), prof)
    assert res.kind == "witness"
    assert res.witness is not None
    (a, b, c) = sorted(res.witness.all_vertices())
    assert res.subset.induced.has_triple(a, b, c)


def test_rodl_pattern_cap():
    from regulab.core import CapacityError

    big = ThreeGraph(10, frozenset())
    with pytest.raises(CapacityError):
        rodl_sparse_dense(ThreeGraph(12, frozenset()), big, Fraction(1, 8), DESK)


def test_step_counts_respect_energy_budget():
    """Refinement steps never exceed ceil(potential cap / per-step gain)."""
    from math import ceil, comb

    h = build_misaligned_cone()
    eta = Fraction(1, 4)
    q, audit, trace = homogeneous_decomposition(h, eta, PSI_ID, DESK, t=9)
    hyper_rows = [r for r in trace.rows if r.stage == "hyper"]
    steps = sum(1 for r in hyper_rows if r.action.startswith(("refine", "split")))
    eta_c = eta**4 / 16
    gain = DESK.hyper_gain(eta_c, 9)
    assert steps <= ceil(comb(9, 3) / gain)
