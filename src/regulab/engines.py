"""Energy-increment regularity engines and decomposition pipelines.

The engines share one loop, :func:`_iterate`: read the current
partition's energy, its audit and its worst offenders; refine along
explicit witnesses; then read the refined partition and re-check, with
exact rationals, that the energy rose by the claimed gain.  The loop owns
every trace row and every exit that carries one; each engine gives it a
walk, a row per step and a split.  All three engines read each partition
they reach in one walk: the 3-graph engine takes each cell chain's facts
from the hypergraph's own store (``h.index.cell_chains``), ``dlr`` takes
each pair's from a table kept for the run, and the pair engine
(:func:`szemeredi_multi`) takes each cell's edge count and certificate
terms from its ``PairPartition``, so a fact that recurs is computed once;
both decide pair certificates in integers, from the c4 kernel's sum.

Two constants regimes are supported.  The "desk" profile replaces the
theory's schedule formulas with small configurable rationals so the loops
terminate on instances a laptop can hold.  The "paper" profile evaluates
the literal schedules under tower-saturation guards and refuses to run
the moment a required constant exceeds 2^64, which on any real input
happens before the second step; the refusal, with the offending quantity
named, is itself the test target.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt, prod
from typing import Sequence

from .core import (
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
    fraction_sum,
    partite_from_graph,
    partite_from_three_graph,
    product_density,
    ratio,
    relative_density,
)
from .generators import SplitMix64
from .partitions import (
    ChainPartition,
    CylinderAudit,
    CylinderChainPartition,
    EdgePartition,
    HomogeneityAudit,
    PairPartition,
    VertexCylinder,
    VertexCylinderPartition,
    cell_chain_passes,
    cell_chain_stats,
    cell_chain_within,
    cells_by_label,
    common_refinement,
    homogeneity_audit,
    labelled_q,
    q_cell_chain,
    survey_partition,
    venn_diagram,
    restrict_chain_partition,
)
from .quasirandom import (
    PolyFunction,
    chain_quasirandomness,
    is_graph_quasirandom,
    pair_bound_scaled,
    pair_raw_scaled,
)

DEFAULT_CAP = 1 << 64


class EngineError(RuntimeError):
    pass


class NonterminationError(EngineError):
    """Step cap reached before the audit passed; carries the trace."""

    def __init__(self, message: str, trace: "IterationTrace"):
        super().__init__(message)
        self.trace = trace


class RefinementFailure(EngineError):
    """No refinement achieving the required gain was found."""

    def __init__(self, message: str, trace: "IterationTrace | None" = None):
        super().__init__(message)
        self.trace = trace


class NoCandidateSplit(RefinementFailure):
    """A non-quasirandom cell chain has no candidate edge split: within each
    pair every edge has the same deviation."""


class ScheduleSaturation(EngineError):
    """A literal schedule constant exceeded the tower cap."""

    def __init__(self, quantity: str, step: int, rows: tuple["ScheduleRow", ...]):
        super().__init__(
            f"schedule constant {quantity} saturates at step {step}; refusing to run"
        )
        self.quantity = quantity
        self.step = step
        self.rows = rows


class SearchFailure(EngineError):
    pass


# ---------------------------------------------------------------------------
# Tower arithmetic with saturation.
# ---------------------------------------------------------------------------


class _Saturated:
    __slots__ = ()

    def __repr__(self) -> str:
        return "SATURATED"


SATURATED = _Saturated()


def is_saturated(v) -> bool:
    return v is SATURATED


def _ceil_to_int(e):
    if isinstance(e, Fraction):
        return -((-e.numerator) // e.denominator)
    return e


def _pow2(e, cap: int):
    """2**e with saturation; fractional exponents round up first."""
    if e is SATURATED:
        return SATURATED
    e = _ceil_to_int(e)
    if e < 0:
        if -e > 1 << 20:
            raise CapacityError("exponent too negative for exact arithmetic")
        return Fraction(1, 1 << -e)
    if e >= cap.bit_length():
        return SATURATED
    v = 1 << e
    return v if v <= cap else SATURATED


def _sat_mul(a, b, cap: int):
    if a is SATURATED or b is SATURATED:
        return SATURATED
    v = a * b
    return v if v <= cap else SATURATED


def _sat_pow(base, exp: int, cap: int):
    """base**exp (exp >= 0) with an early size guard before computing."""
    if base is SATURATED:
        return SATURATED
    if exp == 0:
        return 1
    num = base.numerator if isinstance(base, Fraction) else base
    den = base.denominator if isinstance(base, Fraction) else 1
    # base >= 2 implies base**exp >= 2**exp; base > 2**lead in general.
    if num >= 2 * den and exp > cap.bit_length():
        return SATURATED
    lead = num.bit_length() - 1 - den.bit_length()
    if lead > 0 and lead * exp > cap.bit_length():
        return SATURATED
    v = base**exp
    return v if v <= cap else SATURATED


def twr(tau: int, x, cap: int = DEFAULT_CAP):
    """Height-tau exponential tower topped by x, saturating above cap.

    twr(0, x) = x and twr(tau+1, x) = 2**twr(tau, x).  Non-integer
    intermediate exponents are rounded up, so saturation verdicts are
    conservative upper bounds.
    """
    if tau < 0:
        raise InvalidStructure("tower height must be non-negative")
    v = x
    for _ in range(tau):
        v = _pow2(v, cap)
    return v


@dataclass(frozen=True)
class ScheduleRow:
    """Literal schedule constants at one step; SATURATED past the cap."""

    tau: int
    b: object
    a: object
    delta: object
    alpha: object
    edge_cap: object


def paper_schedule(eta: Fraction, t: int, psi: PolyFunction, steps: int) -> tuple[ScheduleRow, ...]:
    """Evaluate the literal iteration constants for steps 0..steps.

    B grows as a double exponential of itself, delta is the per-step
    quasirandomness scale (eta/(t^2 B))^C(t,2), alpha = psi(delta), and the
    per-chain edge-partition cap is 3^(delta^-4).  Every quantity saturates
    (rather than overflowing) once it passes ``DEFAULT_CAP``.
    """
    if t < 2:
        raise InvalidStructure("need at least two parts")
    cap = DEFAULT_CAP
    cexp = comb(t, 2)
    rows = []
    b, a = 1, 1
    for tau in range(steps + 1):
        if b is SATURATED:
            delta = alpha = edge_cap = SATURATED
        else:
            delta = (eta / (t * t * b)) ** cexp
            alpha = psi(delta)
            edge_cap = _sat_pow(3, _ceil_to_int((1 / delta) ** 4), cap) if delta > 0 else SATURATED
        rows.append(ScheduleRow(tau, b, a, delta, alpha, edge_cap))
        if b is SATURATED:
            a = SATURATED
            continue
        inner = _pow2((Fraction(t * t) * b / eta) ** (2 * t * t), cap)
        b_next = _pow2(inner, cap)
        if b_next is SATURATED:
            b = a = SATURATED
            continue
        delta_next = (eta / (t * t * b_next)) ** cexp
        blow = _sat_pow(1 / psi(delta_next), 20 * t * t, cap)
        a = _sat_mul(_pow2(_sat_mul(_sat_mul(b_next, t**4, cap), blow, cap), cap), a, cap)
        b = b_next
    return tuple(rows)


def first_saturation(rows: Sequence[ScheduleRow]) -> tuple[str, int] | None:
    for row in rows:
        for name in ("b", "a", "delta", "alpha", "edge_cap"):
            if getattr(row, name) is SATURATED:
                return name, row.tau
    return None


def check_paper_schedule(eta: Fraction, t: int, psi: PolyFunction) -> tuple[ScheduleRow, ...]:
    """Pre-evaluate the literal schedules; raise on any saturation.

    Called before a paper-profile engine touches its input, so infeasible
    constants are reported without a single data pass.
    """
    rows = paper_schedule(eta, t, psi, 2)
    hit = first_saturation(rows)
    if hit is not None:
        raise ScheduleSaturation(hit[0], hit[1], rows)
    return rows


# ---------------------------------------------------------------------------
# Profiles and traces.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantsProfile:
    """Knobs that replace the theory's schedule formulas.

    ``q_gain`` is the minimum exact energy increase demanded of every
    edge-refinement step (vertex re-regularization steps only need
    monotonicity).  ``witness_search`` picks the non-quasirandom witness
    strategy: exhaustive enumerates all subsets of the left side and refuses
    (CapacityError) when it has more than ``witness_cap`` vertices, greedy
    thresholds by degree, and auto enumerates up to the cap and thresholds
    above it.  Audits count tuples exactly up to ``audit_tuple_cap`` and
    certify a union bound above it (``partitions._tuple_audit``).
    """

    name: str
    q_gain: Fraction
    edge_part_cap: int
    max_steps: int
    witness_search: str = "auto"
    witness_cap: int = 16
    audit_tuple_cap: int = 10**6
    cylinder_eta: Fraction | None = None
    szemeredi_alpha: Fraction | None = None
    sparse_density: Fraction | None = None

    def __post_init__(self):
        if self.q_gain <= 0:
            raise InvalidStructure("q_gain must be positive")
        for name, low in (
            ("max_steps", 1), ("edge_part_cap", 1), ("witness_cap", 0),
            ("audit_tuple_cap", 0),
        ):
            if getattr(self, name) < low:
                raise InvalidStructure(f"{name} must be at least {low}")
        for name, zero_ok in (("cylinder_eta", 0), ("szemeredi_alpha", 0), ("sparse_density", 1)):
            val = getattr(self, name)
            if val is not None and not (0 <= val <= 1 and (zero_ok or val > 0)):
                raise InvalidStructure(f"{name} must lie in {'[' if zero_ok else '('}0, 1]")
        if self.witness_search not in ("auto", "exhaustive", "greedy"):
            raise InvalidStructure(f"unknown witness search {self.witness_search!r}")

    @classmethod
    def desk(cls, **overrides) -> "ConstantsProfile":
        base = dict(
            name="desk",
            q_gain=Fraction(1, 1 << 20),
            edge_part_cap=64,
            max_steps=64,
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def paper(cls) -> "ConstantsProfile":
        return cls(name="paper", q_gain=Fraction(1, 1 << 20), edge_part_cap=64, max_steps=64)

    @property
    def is_paper(self) -> bool:
        return self.name == "paper"

    def refine_gain(self, eta: Fraction) -> Fraction:
        """Required q gain of refine_cell_chain over d squared."""
        if self.is_paper:
            return Fraction(1, 1024) * eta * eta
        return self.q_gain

    def hyper_gain(self, eta: Fraction, t: int) -> Fraction:
        """Per-edge-refinement-step q gain of the cylinder chain loop."""
        if self.is_paper:
            return Fraction(1, 1024) * eta**3 / t**3
        return self.q_gain

    def cylinder_threshold(self, eta: Fraction) -> Fraction:
        """Cylinder regularity threshold of a pipeline at ``eta``: the
        ``cylinder_eta`` override, else eta^4 / 16."""
        return self.cylinder_eta if self.cylinder_eta is not None else eta**4 / 16


@dataclass(frozen=True)
class TraceRow:
    step: int
    q: Fraction
    vertex_count: int
    edge_cells: int
    useful_mass: Fraction
    action: str
    stage: str = "main"


@dataclass(frozen=True)
class IterationTrace:
    rows: tuple[TraceRow, ...]

    def __post_init__(self):
        prev: TraceRow | None = None
        for row in self.rows:
            if prev is not None and prev.stage == row.stage and row.q < prev.q:
                raise InvalidStructure(
                    f"trace energy decreased at step {row.step} of stage {row.stage}"
                )
            prev = row

    @property
    def step_count(self) -> int:
        return len(self.rows)

    def extend(self, other: "IterationTrace") -> "IterationTrace":
        return IterationTrace(self.rows + other.rows)


class _Stuck(Exception):
    """A split that cannot go on; the innermost :func:`_iterate` raises it
    as a RefinementFailure carrying that loop's rows."""


_INDEX_FLOOR = "index gain {} fell below the profile floor"


def _iterate(walk, state, max_steps: int, decide, split):
    """The loop of every engine: (final state, its walk, trace).

    ``walk(state)`` gives a tuple whose first entry is the energy.
    ``decide(step, state, walked)`` gives the step's row, which ends the
    loop if its action is "accept", and the step-cap message; a row of None
    stops at once, unrecorded.  ``split(state, walked, relabel)`` gives the
    next state, the message for a fall in energy and the gain floor with
    its message template, or None; it may rename the step's action and
    raises :class:`_Stuck` when nothing splits.
    """
    rows: list[TraceRow] = []

    def relabel(action: str) -> None:
        rows[-1] = replace(rows[-1], action=action)

    walked = walk(state)
    for step in range(max_steps + 1):
        row, cap_message = decide(step, state, walked)
        if row is not None:
            rows.append(row)
            if row.action == "accept":
                return state, walked, IterationTrace(tuple(rows))
        if row is None or step == max_steps:
            raise NonterminationError(cap_message, IterationTrace(tuple(rows)))
        try:
            state, fall, floor = split(state, walked, relabel)
        except _Stuck as stuck:
            raise RefinementFailure(str(stuck), IterationTrace(tuple(rows))) from None
        new = walk(state)
        gain = new[0] - walked[0]
        if gain < 0:
            raise InvariantViolation(fall)
        if floor is not None and gain < floor[0]:
            raise RefinementFailure(floor[1].format(gain), IterationTrace(tuple(rows)))
        walked = new
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Witness search for non-quasirandom bipartite pairs.
# ---------------------------------------------------------------------------


def _witness_split(
    rows: Sequence[int],
    left_ids: Sequence[int],
    right_mask: int,
    search: str,
    cap: int,
) -> tuple[int, int] | None:
    """Subsets (A', B') maximizing |e(A',B') - d|A'||B'|| over a strategy.

    Returns bitmasks in the ambient index spaces, or None when the induced
    graph is constant (no split carries any deviation).  Exhaustive mode
    enumerates all subsets of the left side, pairing each with its exact
    optimal right side (positive and negative deviations separately), and
    raises CapacityError when the left side has more than ``cap`` vertices;
    greedy mode thresholds left vertices by degree.
    """
    n_left = len(left_ids)
    n_right = right_mask.bit_count()
    if n_left == 0 or n_right == 0:
        return None
    e = sum((rows[x] & right_mask).bit_count() for x in left_ids)
    if e == 0 or e == n_left * n_right:
        return None
    if search == "exhaustive" and n_left > cap:
        raise CapacityError(
            f"exhaustive witness search over {n_left} left vertices exceeds the witness cap {cap}"
        )
    num, den = e, n_left * n_right
    ys = list(bits(right_mask))
    colbits = []
    for y in ys:
        m = 0
        for pos, x in enumerate(left_ids):
            if rows[x] >> y & 1:
                m |= 1 << pos
        colbits.append(m)

    best_score = 0
    best_am = 0
    best_bm = 0

    def consider(am: int) -> None:
        nonlocal best_score, best_am, best_bm
        k = am.bit_count()
        pos_dev = neg_dev = 0
        bpos = bneg = 0
        for y, cb in zip(ys, colbits):
            dv = den * (cb & am).bit_count() - num * k
            if dv > 0:
                pos_dev += dv
                bpos |= 1 << y
            elif dv < 0:
                neg_dev -= dv
                bneg |= 1 << y
        if pos_dev > best_score:
            best_score, best_am, best_bm = pos_dev, am, bpos
        if neg_dev > best_score:
            best_score, best_am, best_bm = neg_dev, am, bneg

    if search != "greedy" and n_left <= cap:
        for am in range(1, 1 << n_left):
            consider(am)
    else:
        am1 = 0
        for pos, x in enumerate(left_ids):
            if den * (rows[x] & right_mask).bit_count() >= num * n_right:
                am1 |= 1 << pos
        for am in (am1, ((1 << n_left) - 1) ^ am1):
            if 0 < am < (1 << n_left):
                consider(am)
    if best_score == 0:
        return None
    a_mask = 0
    for pos in bits(best_am):
        a_mask |= 1 << left_ids[pos]
    return a_mask, best_bm


# ---------------------------------------------------------------------------
# Multigraph cylinder regularity (vertex layer only).
# ---------------------------------------------------------------------------


def dlr_cylinder_regularity(
    vs: PartiteVertexSet,
    graphs: Sequence[tuple[int, int, Sequence[int]]],
    alpha: Fraction,
    profile: ConstantsProfile,
    initial: VertexCylinderPartition | None = None,
) -> tuple[VertexCylinderPartition, IterationTrace]:
    """Cylinder partition making every input pair graph alpha-quasirandom inside.

    Each input ``(i, j, rows)`` is a bipartite graph between parts i < j of
    ``vs``: bit y of ``rows[x]`` is the edge from vertex x of part i to
    vertex y of part j.  The audit demands that at least 1 - alpha/2 of the
    cylinder weight lies in cylinders where every input, induced on its own
    two parts, has certificate at most alpha.  While it fails, each bad
    cylinder is split along a deviation witness of its worst input (the
    first, in input order, of the largest certificates), and the combined
    edge index of the inputs must rise by at least profile.q_gain per step.
    Steps hold mask tuples, from ``initial`` or the full masks; a split cuts
    along two complementary masks per side, so each is a partition by
    construction, and only the one returned is built and validated.

    A pair density, certificate or deviation witness depends on one input
    and its two masks only, and a split on pair (i, j) copies every other
    pair's masks into its children, so each is computed once per
    (input, mask_i, mask_j) in a run and read back where it recurs.  Each
    partition is read in one walk, which decides in integers (see ``walk``).
    A certificate is read first through its Cauchy-Schwarz bound
    d^2 (1 - d)^2, which costs two counts; the c4 kernel runs only on a pair
    whose bound is above the worst certificate so far in its cylinder, so
    every pair with d (1 - d) <= sqrt(alpha), near-empty or near-complete,
    is decided without it.
    """
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
    if initial is not None and initial.vertex_set != vs:
        raise InvalidStructure("initial partition is over another vertex set")
    full = (tuple(map(vs.full_mask, range(vs.t))),)
    start = full if initial is None else tuple(cyl.masks for cyl in initial.cylinders)

    terms: dict[tuple[int, int, int], tuple[int, int, int, int]] = {}  # e², area², bound, area⁶
    exact: dict[tuple[int, int, int], int] = {}  # s, where a bound left a verdict open
    witnesses: dict[tuple[int, int, int], tuple[int, int] | None] = {}
    space = prod(vs.sizes)

    def walk(state: tuple[tuple[int, ...], ...]) -> tuple[Fraction, Fraction, dict[int, int]]:
        """The index of ``state``, its bad mass and each bad cylinder's worst
        input: integer sums divided once, certificates s/area⁶ cross-multiplied.

        Each certificate is first read through its Cauchy-Schwarz bound
        (:func:`pair_bound_scaled`).  A bound at or below the cylinder's
        worst so far, which starts at alpha, cannot pass the strict test, so
        only a bound above it runs the c4 kernel, once per key."""
        squares: dict[int, int] = {}  # per area²: the sum of size·e²
        bad = 0  # the bad cylinders' summed size
        worst_at: dict[int, int] = {}
        for ci, masks in enumerate(state):
            size = prod(map(int.bit_count, masks))
            if not size:
                continue
            wn, wd = alpha.numerator, alpha.denominator  # the worst certificate so far
            for m, (i, j, rows) in enumerate(graphs):
                li, rj = masks[i], masks[j]
                key = (m, li, rj)
                term = terms.get(key)
                if term is None:
                    e = sum((rows[x] & rj).bit_count() for x in bits(li))
                    area = li.bit_count() * rj.bit_count()
                    term = terms[key] = (e * e, area * area, pair_bound_scaled(e, area), area**6)
                ee, a2, bound, a6 = term
                squares[a2] = squares.get(a2, 0) + size * ee
                if bound * wd > wn * a6:
                    s = exact.get(key)
                    if s is None:  # e and area are the roots of the stored squares
                        xs = list(bits(li))
                        s = exact[key] = pair_raw_scaled(rows, xs, rj, isqrt(ee), isqrt(a2))
                    if s * wd > wn * a6:
                        wn, wd = s, a6
                        worst_at[ci] = m
            if ci in worst_at:
                bad += size
        return fraction_sum(squares, space), ratio(bad, space), worst_at

    def decide(step: int, state, walked):
        idx, bad_mass, _ = walked
        action = "accept" if bad_mass <= alpha / 2 else "split-cylinders"
        row = TraceRow(step, idx, len(state), 1, bad_mass, action, "cylinder")
        return row, "cylinder audit still failing at the step cap"

    def split(state, walked, relabel):
        worst_at = walked[2]
        new_masks: list[tuple[int, ...]] = []
        split_any = False
        for ci, masks in enumerate(state):
            if ci not in worst_at:
                new_masks.append(masks)
                continue
            m = worst_at[ci]
            i, j, rows = graphs[m]
            key = (m, masks[i], masks[j])
            if key not in witnesses:  # None, no witness, is kept too
                witnesses[key] = _witness_split(
                    rows, list(bits(masks[i])), masks[j],
                    profile.witness_search, profile.witness_cap,
                )
            ws = witnesses[key]
            if ws is None:
                new_masks.append(masks)
                continue
            split_any = True
            am, bm = ws
            for mi in (am, masks[i] & ~am):
                for mj in (bm, masks[j] & ~bm):
                    child = list(masks)
                    child[i], child[j] = mi, mj
                    if all(child):
                        new_masks.append(tuple(child))
        if not split_any:
            raise _Stuck("no deviation witness splits the failing cylinders")
        fall = "edge index decreased across a vertex split"
        return tuple(new_masks), fall, (profile.q_gain, _INDEX_FLOOR)

    state, _, trace = _iterate(walk, start, profile.max_steps, decide, split)
    return VertexCylinderPartition(vs, tuple(map(VertexCylinder, state))), trace


# ---------------------------------------------------------------------------
# Single-chain edge refinement.
# ---------------------------------------------------------------------------


def refine_cell_chain(
    h: PartiteThreeGraph,
    masks: tuple[int, int, int],
    parts: tuple[int, int, int],
    cells: tuple[Sequence[int], Sequence[int], Sequence[int]],
    eta: Fraction,
    profile: ConstantsProfile,
) -> EdgePartition:
    """Edge partition of a non-quasirandom cell chain with q >= d^2 + gain.

    The chain is given where it lies, as :func:`cell_chain_stats` takes it:
    ``cells`` are the row tuples of its (i, j), (i, k) and (j, k) cells on
    the cylinder ``masks`` of ``parts`` = (i, j, k), in ``h``'s local ids.
    Its verdict against eta (:func:`cell_chain_within`) and d = hyperedges
    / triangles are that evaluator's, so the chain is never cut out or
    certified again.  Each candidate cuts
    some pair graphs by the conditional deviation through each edge
    (hyperedge count minus d times triangle count): by sign, at a
    quantile, and, when those fall short, at the levels of a threshold
    sweep.  A cut labels its pair's edges, and one label tally
    (:func:`labelled_q`) scores a candidate.  Only the winner becomes
    partitions, one PairPartition per pair, keyed (i, j), (i, k) and
    (j, k), on the cylinder masks; its q is re-verified with the naive
    oracle before returning.  Raises InvalidStructure when the chain is
    already eta-quasirandom, NoCandidateSplit when there is no candidate
    at all and RefinementFailure when no candidate reaches the gain target.
    """
    if cell_chain_within(h, masks, parts, cells, eta):
        raise InvalidStructure("chain is already quasirandom at this eta")
    tri, hyp, _ = cell_chain_stats(h, masks, parts, cells)
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
    hosts = (g01.rows, g02.rows, g12.rows)

    # Deviation through each edge, devs[pk][x][y].  Hyperedges on the
    # chain's triangles: through (x, y) from the index, through (x, z) and
    # (y, z) tallied from it.
    zm = h.zmasks(i, j, k)
    devs = {pk: [{} for _ in range(sizes[pk[0]])] for pk in pair_keys}
    hyp02: dict[tuple[int, int], int] = {}
    hyp12: dict[tuple[int, int], int] = {}
    for x in bits(masks[0]):
        for y in bits(g01.rows[x]):
            tri_z = g02.rows[x] & g12.rows[y]
            zmask = zm.get((x, y), 0) & tri_z
            devs[(i, j)][x][y] = den * zmask.bit_count() - num * tri_z.bit_count()
            for z in bits(zmask):
                hyp02[(x, z)] = hyp02.get((x, z), 0) + 1
                hyp12[(y, z)] = hyp12.get((y, z), 0) + 1
    cols01, cols02, cols12 = g01.columns(), g02.columns(), g12.columns()
    for x in bits(masks[0]):
        for z in bits(g02.rows[x]):
            tri = (g01.rows[x] & cols12[z]).bit_count()
            devs[(i, k)][x][z] = den * hyp02.get((x, z), 0) - num * tri
    for y in bits(masks[1]):
        for z in bits(g12.rows[y]):
            tri = (cols01[y] & cols02[z]).bit_count()
            devs[(j, k)][y][z] = den * hyp12.get((y, z), 0) - num * tri

    def cut(pk: tuple[int, int], label) -> list[dict] | None:
        """Pair pk's label table under ``label(deviation)``, or None when
        it gives every edge one label."""
        table = [{y: label(v) for y, v in row.items()} for row in devs[pk]]
        return table if len({c for row in table for c in row.values()}) > 1 else None

    # A candidate maps some pairs to their cut; the others read all zeros.
    side = max(sizes[a] for a in parts)
    zeros = ((0,) * side,) * side

    def score(cand: dict) -> Fraction:
        return labelled_q(hosts, tuple(cand.get(pk, zeros) for pk in pair_keys), zm)

    signs = {pk: tbl for pk in pair_keys if (tbl := cut(pk, lambda v: v > 0)) is not None}
    candidates = [
        {pk: tbl for bit, (pk, tbl) in enumerate(signs.items()) if picks >> bit & 1}
        for picks in range(1, 1 << len(signs))
    ]
    for pk in pair_keys:
        vals = sorted({abs(v) for row in devs[pk] for v in row.values() if v != 0})
        if not vals:
            continue
        thr = vals[len(vals) // 2]
        tbl = cut(pk, lambda v: 0 if v < -thr else (2 if v > thr else 1))
        if tbl is not None:
            candidates.append({pk: tbl})

    best_q = Fraction(-1)
    best: dict | None = None
    for cand in candidates:
        qv = score(cand)
        if qv > best_q:
            best_q, best = qv, cand

    if best_q < target:
        # Threshold sweep escalation: two-way cuts at spread-out deviation
        # levels, per pair and combined across pairs.
        combo: dict = {}
        for pk in pair_keys:
            vals = sorted({v for row in devs[pk] for v in row.values()})
            if len(vals) < 2:
                continue
            best_pair_q = Fraction(-1)
            for level in sorted({vals[(len(vals) - 1) * m // 14] for m in range(14)}):
                tbl = cut(pk, lambda v: v > level)
                if tbl is None:
                    continue
                qv = score({pk: tbl})
                if qv > best_q:
                    best_q, best = qv, {pk: tbl}
                if qv > best_pair_q:
                    best_pair_q, combo[pk] = qv, tbl
        if combo:
            qv = score(combo)
            if qv > best_q:
                best_q, best = qv, combo

    if best is None:
        raise NoCandidateSplit(
            "no candidate edge split exists: within each pair every edge has the same deviation"
        )
    if best_q < target:
        raise RefinementFailure(
            f"no edge partition reached d^2 + gain = {target} (best q {best_q})"
        )
    pps = {}
    for pk in pair_keys:
        host, lab = host_of[pk], best.get(pk, zeros)
        pair_cells = cells_by_label(host.left_size, host.rows, lambda x, y: lab[x][y])
        pps[pk] = PairPartition(
            host.left_size, host.right_size, *side_masks[pk], host.rows, pair_cells
        )
    if q_cell_chain(h, parts, hosts, tuple(pps.values()), "naive") != best_q:
        raise InvariantViolation("fast and naive q disagree on the chosen partition")
    best_ep = EdgePartition(pps)
    if best_ep.cell_count > profile.edge_part_cap:
        raise RefinementFailure(
            f"winning partition has {best_ep.cell_count} cells, over the cap"
        )
    return best_ep


def one_cylinder_refine(c: Chain, eta: Fraction, profile: ConstantsProfile) -> EdgePartition:
    """:func:`refine_cell_chain` on a whole chain: full masks, parts
    (0, 1, 2) and the chain's pair graphs as the cells."""
    g = c.graph
    return refine_cell_chain(
        c.hyper,
        tuple(c.vertex_set.full_mask(a) for a in range(3)),
        (0, 1, 2),
        (g.pair(0, 1).rows, g.pair(0, 2).rows, g.pair(1, 2).rows),
        eta,
        profile,
    )


# ---------------------------------------------------------------------------
# Cylinder chain regularity for t-partite 3-graphs.
# ---------------------------------------------------------------------------


def _apply_chain_refinements(
    h: PartiteThreeGraph,
    p: CylinderChainPartition,
    useful,
    eta: Fraction,
    profile: ConstantsProfile,
) -> CylinderChainPartition | None:
    """Refine every useful cell chain where it lies and merge the splits,
    or None when no useful chain has a candidate split.

    Each chain's refinement proposes a variant of each of its three cells;
    a cell's new cells are the common refinement of its variants.  A chain
    without candidates (:class:`NoCandidateSplit`) is skipped; any other
    RefinementFailure, and a pair past the cell cap, raise :class:`_Stuck`.
    """
    splits: dict[tuple[int, tuple[int, int]], dict[int, list[PairPartition]]] = {}
    for (ci, (i, j, k), combo, cells) in useful:
        cyl = p.vertex.cylinders[ci]
        masks = (cyl.masks[i], cyl.masks[j], cyl.masks[k])
        try:
            pe = refine_cell_chain(h, masks, (i, j, k), cells, eta, profile)
        except NoCandidateSplit:
            continue
        except RefinementFailure as failure:
            raise _Stuck(str(failure)) from None
        for pair, cell_idx in zip(((i, j), (i, k), (j, k)), combo):
            variant = pe.pair(*pair)
            if variant.cell_count > 1:
                splits.setdefault((ci, pair), {}).setdefault(cell_idx, []).append(variant)

    if not splits:
        return None

    new_edges = list(p.edges)
    for (ci, (i, j)), cell_splits in sorted(splits.items()):
        ep = new_edges[ci]
        pp = ep.pair(i, j)
        new_cells: list[tuple[int, ...]] = []
        for idx, cell in enumerate(pp.cells):
            variants = cell_splits.get(idx)
            new_cells.extend(common_refinement(variants).cells if variants else (cell,))
        if len(new_cells) > profile.edge_part_cap:
            raise _Stuck(f"pair ({i},{j}) would need {len(new_cells)} cells, over the cap")
        pairs = dict(ep.pairs)
        pairs[(i, j)] = PairPartition(
            pp.left_size, pp.right_size, pp.left_mask, pp.right_mask, pp.host_rows, tuple(new_cells)
        )
        new_edges[ci] = EdgePartition(pairs)
    return CylinderChainPartition(p.vertex, tuple(new_edges))


def _reregularize_cylinders(
    h: PartiteThreeGraph,
    p: CylinderChainPartition,
    eta: Fraction,
    psi: PolyFunction,
    profile: ConstantsProfile,
) -> CylinderChainPartition:
    """Split cylinders until every current cell is quasirandom inside them.

    Every nonempty cell of every pair (i, j) of every cylinder of positive
    weight is one pair graph between parts i and j; the family is
    regularized at alpha = psi(eta / t^2), starting from the current
    cylinder partition.  Old cells are then restricted onto the refined
    cylinders.
    """
    vs = h.vertex_set
    cells = [
        (i, j, cell)
        for cyl, ep in zip(p.vertex.cylinders, p.edges)
        if not cyl.is_empty()
        for (i, j) in combinations(range(vs.t), 2)
        for cell in ep.pair(i, j).cells
        if any(cell)
    ]
    alpha = psi(eta / (vs.t * vs.t))  # positive, as psi(x) = min(c x^k, x) with c > 0
    pv_new, _ = dlr_cylinder_regularity(vs, cells, alpha, profile, initial=p.vertex)
    if pv_new.cylinders == p.vertex.cylinders:
        raise _Stuck("cylinder re-regularization made no progress")
    parents = [p.vertex.container(ncyl) for ncyl in pv_new.cylinders]
    if None in parents:
        raise InvariantViolation("refined cylinder has no parent")
    new_edges = []
    for ncyl, parent in zip(pv_new.cylinders, parents):
        ep = p.edges[parent]
        pairs = {
            (i, j): ep.pair(i, j).restrict(ncyl.masks[i], ncyl.masks[j])
            for (i, j) in combinations(range(vs.t), 2)
        }
        new_edges.append(EdgePartition(pairs))
    return CylinderChainPartition(pv_new, tuple(new_edges))


def hyper_cylinder_regularity(
    h: PartiteThreeGraph,
    eta: Fraction,
    psi: PolyFunction,
    profile: ConstantsProfile,
) -> tuple[CylinderChainPartition, CylinderAudit, IterationTrace]:
    """Cylinder chain partition passing the (eta, psi) tuple audit.

    Each partition is read once, by :func:`survey_partition`: its q, tuple
    audit and useful chains (certificate above eta).  If enough tuple mass
    sees quasirandom located chains, accept, returning the partition, the
    audit it was accepted on and the trace.  Otherwise refine every useful
    chain through refine_cell_chain and demand the profile's q gain; when
    no chain is useful, or no useful chain has a candidate edge split, the
    cylinders are re-regularized instead and the step's trace row reads
    ``split-cylinders``.  That step sets no floor on the gain in q, but the
    ``dlr_cylinder_regularity`` run it makes demands the profile's q gain
    on its own edge index: a split below it ends the run in dlr's
    RefinementFailure, carrying dlr's cylinder rows.  Under the paper
    profile the literal schedules are evaluated first and the run refuses
    on saturation.
    """
    vs = h.vertex_set
    if vs.t < 3:
        raise InvalidStructure("need at least three parts")
    if not 0 < eta <= 1:
        raise InvalidStructure("eta must lie in (0, 1]")
    if profile.is_paper:
        check_paper_schedule(eta, vs.t, psi)
    gain = profile.hyper_gain(eta, vs.t)

    def walk(p: CylinderChainPartition):
        now = survey_partition(h, p, eta, psi, profile.audit_tuple_cap)
        return now.q, now

    def decide(step: int, p: CylinderChainPartition, walked):
        q, now = walked
        ok = now.audit.good_mass >= 1 - eta
        action = "accept" if ok else ("refine-edges" if now.useful else "split-cylinders")
        row = TraceRow(step, q, p.vertex_count, p.edge_count, now.useful_mass, action, "hyper")
        return row, "tuple audit still failing at the step cap"

    def split(p: CylinderChainPartition, walked, relabel):
        refined = _apply_chain_refinements(h, p, walked[1].useful, eta, profile)
        if refined is not None:
            floor = f"edge refinement gained {{}}, below the floor {gain}"
            return refined, "q decreased across an edge refinement", (gain, floor)
        relabel("split-cylinders")  # no useful chain had a candidate edge split
        p = _reregularize_cylinders(h, p, eta, psi, profile)
        return p, "q decreased across a cylinder split", None

    p, (_, now), trace = _iterate(
        walk, CylinderChainPartition.trivial(vs), profile.max_steps, decide, split
    )
    return p, now.audit, trace


# ---------------------------------------------------------------------------
# Pairwise regularity of a chain partition (vertex refinement only).
# ---------------------------------------------------------------------------


def szemeredi_multi(
    q0: ChainPartition, alpha: Fraction, profile: ConstantsProfile
) -> tuple[ChainPartition, IterationTrace]:
    """Vertex-refine a chain partition until most pairs see quasirandom cells.

    The audit charges a pair of vertices as bad when the two lie in one
    part (no bipartite cell is defined there) or when their cell's
    certificate exceeds alpha; it passes when the bad ordered-pair mass is
    at most alpha.  Each partition reached is read in one walk, which gives
    the index (the pair-mass-weighted sum of cubed cell densities), the
    same-part mass and, once same-part mass is at most alpha/2, the bad
    mass and the failing cells; a partition that is only size-split is
    never certified.  While same-part mass exceeds alpha/2 every part of
    two or more vertices is halved, the first half first; then failing
    cells are split along deviation witnesses.  Both phases split parts by
    per-part masks through one tail, so cells are only ever restricted and
    no pair's cell count rises above the input maximum.
    """
    if not 0 < alpha <= 1:
        raise InvalidStructure("alpha must lie in (0, 1]")
    n = q0.n
    if n == 0:
        return q0, IterationTrace((TraceRow(0, Fraction(0), 0, 0, Fraction(0), "accept", "pairs"),))
    l_bound = q0.edge_cell_count

    an, ad = alpha.numerator, alpha.denominator

    def walk(q: ChainPartition):
        """(index, whether same-part mass exceeds alpha/2, bad mass, bad
        cells in sorted pair order).

        A pair (a, b) of area |a| |b| has mass 2 |a| |b| / n^2, so a cell of
        e edges adds 2 e^3 / (n^2 area^2) to the index and 2 e / n^2 to the
        bad mass.  Both are integer sums divided once, and certificates meet
        alpha by cross-multiplying."""
        same = Fraction(sum(len(part) ** 2 for part in q.parts), n * n)
        sizes = 2 * same.numerator * ad > an * same.denominator
        cubes: dict[int, int] = {}  # per area^2: twice the sum of e^3
        bad_edges, bad_cells = 0, []
        for (a, b), pp in sorted(q.pairs.items()):
            counts = pp.edge_counts
            if any(counts):
                key = pp.area * pp.area
                cubes[key] = cubes.get(key, 0) + 2 * sum(e * e * e for e in counts)
            if not sizes:
                for idx, (num, den) in enumerate(pp.certificate_terms):
                    if num * ad > an * den:
                        bad_edges += counts[idx]
                        bad_cells.append((a, b, idx))
        bad = same + Fraction(2 * bad_edges, n * n)
        return fraction_sum(cubes, n * n), sizes, bad, bad_cells

    def decide(step: int, qp: ChainPartition, walked):
        index, sizes, bad, _ = walked
        if sizes and all(len(part) == 1 for part in qp.parts):
            return None, "same-part mass exceeds the budget even at singletons"
        action = "split-sizes" if sizes else ("accept" if bad <= alpha else "refine-pairs")
        row = TraceRow(step, index, qp.part_count, qp.edge_cell_count, bad, action, "pairs")
        if sizes:
            return row, "size splitting did not fit the budget before the step cap"
        return row, "pair audit still failing at the step cap"

    def split(qp: ChainPartition, walked, relabel):
        _, sizes, _, bad_cells = walked
        # Per part, masks over its positions; a part is cut by their bits.
        part_splits: dict[int, list[int]] = {}
        if sizes:
            for a, part in enumerate(qp.parts):
                if len(part) >= 2:  # the second half's bits
                    part_splits[a] = [(1 << len(part)) - (1 << (len(part) + 1) // 2)]
        else:
            for a, b, idx in bad_cells:
                ws = _witness_split(
                    qp.pairs[(a, b)].cells[idx],
                    list(range(len(qp.parts[a]))),
                    (1 << len(qp.parts[b])) - 1,
                    profile.witness_search,
                    profile.witness_cap,
                )
                if ws is not None:
                    part_splits.setdefault(a, []).append(ws[0])
                    part_splits.setdefault(b, []).append(ws[1])
            if not part_splits:
                raise _Stuck("no deviation witness splits the failing cells")
        groups = []
        for a, part in enumerate(qp.parts):
            masks = part_splits.get(a, ())
            by_key: dict[tuple, list[int]] = {}
            for pos, v in enumerate(part):
                by_key.setdefault(tuple((m >> pos) & 1 for m in masks), []).append(v)
            groups.append([by_key[key] for key in sorted(by_key)])
        qp = restrict_chain_partition(qp, groups)
        if qp.edge_cell_count > l_bound:
            raise InvariantViolation("restriction increased a pair's cell count")
        if sizes:
            return qp, "index decreased across a size split", None
        return qp, "index decreased across a witness split", (profile.q_gain, _INDEX_FLOOR)

    qp, _, trace = _iterate(walk, q0, profile.max_steps, decide, split)
    return qp, trace


# ---------------------------------------------------------------------------
# End-to-end decompositions.
# ---------------------------------------------------------------------------


def _ceil_inverse(x: Fraction) -> int:
    inv = 1 / x
    return -((-inv.numerator) // inv.denominator)


def homogeneous_decomposition(
    h: ThreeGraph,
    eta: Fraction,
    psi: PolyFunction,
    profile: ConstantsProfile,
    *,
    t: int | None = None,
) -> tuple[ChainPartition, HomogeneityAudit, IterationTrace]:
    """Partition V(H) so that most triples see an eta-homogeneous chain.

    Pipeline: equitable t-partition, cylinder chain regularity at the
    profile's internal threshold (eta^4/16 by default), Venn conversion to
    a genuine chain partition, then pairwise regularity.  The equitable
    parts are consecutive ranges, so partite ids are the input's own ids
    and the result needs no translating back.  The returned audit is
    recomputed from scratch on the original hypergraph and also carries
    the ordered pair-mass of sparse cells.
    """
    if not 0 < eta <= 1:
        raise InvalidStructure("eta must lie in (0, 1]")
    n = h.n
    if n < 3:
        raise InvalidStructure("need at least three vertices")
    if t is None:
        t = min(n, 3 * _ceil_inverse(eta))
    elif not 3 <= t <= n:
        raise InvalidStructure(f"t must lie in [3, {n}], got {t}")
    alpha_s = profile.szemeredi_alpha if profile.szemeredi_alpha is not None else Fraction(1, 4)
    if alpha_s * n < 2:
        # Same-part mass is at least 1/n, reached only at singletons, so
        # the pair stage could only end here after the hyper stage.
        raise NonterminationError(
            "same-part mass exceeds the budget even at singletons", IterationTrace(())
        )
    hp = partite_from_three_graph(h, equitable_partition(n, t))
    eta_c = profile.cylinder_threshold(eta)
    p, _, tr_hyper = hyper_cylinder_regularity(hp, eta_c, psi, profile)
    qv = venn_diagram(p)
    qfin, tr_pairs = szemeredi_multi(qv, alpha_s, profile)
    audit = homogeneity_audit(h, qfin, eta, psi)
    zeta = profile.sparse_density if profile.sparse_density is not None else eta * eta / 16
    # A cell of e edges in a pair of area |a| |b| has pair mass 2 e / n^2.
    sparse = sum(
        e
        for pp in qfin.pairs.values()
        for e in pp.edge_counts
        if 0 < e and e * zeta.denominator <= zeta.numerator * pp.area
    )
    audit = replace(audit, sparse_pair_mass=Fraction(2 * sparse, n * n))
    return qfin, audit, tr_hyper.extend(tr_pairs)


@dataclass(frozen=True)
class GraphHomogeneityAudit:
    """Pair-mass accounting for a graph decomposition.

    ``homogeneous_mass`` is over ordered vertex pairs; pairs inside one
    part count as failures, and ``homogeneous_crossing_mass`` conditions
    on landing in two different parts.
    """

    eps: Fraction
    homogeneous_mass: Fraction
    homogeneous_crossing_mass: Fraction
    same_part_mass: Fraction
    part_sizes: tuple[int, ...]


def graph_homogeneous_decomposition(
    g: Graph,
    eps: Fraction,
    profile: ConstantsProfile,
    *,
    t: int | None = None,
) -> tuple[tuple[tuple[int, ...], ...], GraphHomogeneityAudit, IterationTrace]:
    """Vertex partition of a graph with most pairs eps-homogeneous.

    Equitable pre-partition into about 1/eps parts, cylinder regularity of
    the induced multipartite graph at alpha = eps^2, then the vertex atoms
    (``VertexCylinderPartition.atoms``) of the partition that returns.  The
    audit reports the ordered pair-mass whose between-part density lies in
    [0, eps] or [1-eps, 1].  The pipeline evaluates no schedule, so it
    refuses the paper profile.
    """
    if profile.is_paper:
        raise InvalidStructure(
            "the paper profile's literal schedules exist only for the 3-graph engines"
        )
    if not 0 < eps < 1:
        raise InvalidStructure("eps must lie in (0, 1)")
    n = g.n
    if n < 2:
        raise InvalidStructure("need at least two vertices")
    if t is None:
        t = min(n, _ceil_inverse(eps))
    elif not 2 <= t <= n:
        raise InvalidStructure(f"t must lie in [2, {n}], got {t}")
    parts = equitable_partition(n, t)  # consecutive ranges
    mg = partite_from_graph(g, [len(p) for p in parts])
    pair_graphs = [(i, j, mg.pair(i, j).rows) for (i, j) in combinations(range(t), 2)]
    pv, trace = dlr_cylinder_regularity(mg.vertex_set, pair_graphs, eps * eps, profile)
    off = mg.vertex_set.offsets
    out_parts = [tuple(off[i] + a for a in locs) for i, locs, _ in pv.atoms()]
    masks = [sum(1 << v for v in part) for part in out_parts]
    # Pair counts over n², with densities e/area in the windows by cross-multiplying.
    en, ed = eps.numerator, eps.denominator
    same = sum(len(part) ** 2 for part in out_parts)
    hom = 0
    for a, b in combinations(range(len(out_parts)), 2):
        e = sum((g.rows[u] & masks[b]).bit_count() for u in out_parts[a])
        area = len(out_parts[a]) * len(out_parts[b])
        if e * ed <= en * area or e * ed >= (ed - en) * area:
            hom += 2 * area
    # At least t >= 2 nonempty parts, so same-part mass is below 1.
    audit = GraphHomogeneityAudit(
        eps,
        Fraction(hom, n * n),
        Fraction(hom, n * n - same),
        Fraction(same, n * n),
        tuple(len(p) for p in out_parts),
    )
    return tuple(out_parts), audit, trace


def fps_packing_partition(
    g: BipartiteGraph, eps: Fraction
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Greedy neighborhood-packing partitions of both sides.

    Centers are collected greedily in vertex order: a vertex joins the
    first existing center whose neighborhood differs from its own on fewer
    than eps*n positions (n the opposite side's size) and otherwise becomes
    a center itself.  The construction guarantees, and this function
    re-verifies exactly, that any two vertices sharing a part differ on
    fewer than 2*eps*n positions.
    """
    if g.left_size == 0 or g.right_size == 0:
        raise InvalidStructure("parts must be nonempty")

    def pack(neighborhoods: Sequence[int], n_ref: int) -> tuple[tuple[int, ...], ...]:
        centers: list[int] = []
        members: list[list[int]] = []
        for v, nb in enumerate(neighborhoods):
            placed = False
            for ci, c in enumerate(centers):
                diff = (nb ^ neighborhoods[c]).bit_count()
                if diff * eps.denominator < eps.numerator * n_ref:
                    members[ci].append(v)
                    placed = True
                    break
            if not placed:
                centers.append(v)
                members.append([v])
        for group in members:
            for u, v in combinations(group, 2):
                diff = (neighborhoods[u] ^ neighborhoods[v]).bit_count()
                if not diff * eps.denominator < 2 * eps.numerator * n_ref:
                    raise InvariantViolation("packing guarantee failed re-verification")
        return tuple(tuple(group) for group in members)

    a_parts = pack(g.rows, g.right_size)
    b_parts = pack(g.columns(), g.left_size)
    return a_parts, b_parts


# ---------------------------------------------------------------------------
# Quasirandom subset extraction and the sparse/dense dichotomy.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsetResult:
    """A vertex subset with a graph certified quasirandom relative to it.

    ``chain`` is the tripartite cover (three copies of the subset joined by
    the subset graph) whose hyperedges are the surviving triples placed in
    all six orders; ``certificate`` is its exact chain quasirandomness and
    ``density`` the common pair density after equalization.  ``induced``
    is the surviving 3-graph on the subset in compact ids.
    """

    vertices: tuple[int, ...]
    graph: Graph
    density: Fraction
    chain: Chain
    certificate_value: Fraction
    eta_ok: bool
    psi_ok: bool
    induced: ThreeGraph
    parts_chosen: tuple[int, ...]
    bucket: int
    trace: IterationTrace


def _subset_rng_stream(seed: int) -> SplitMix64:
    # Fixed offset keeps this stream independent of generator streams
    # derived from the same user seed.
    return SplitMix64(seed ^ 0x6A09E667F3BCC909)


def quasirandom_subset(
    h: ThreeGraph,
    eta: Fraction,
    psi: PolyFunction,
    profile: ConstantsProfile,
    seed: int = 0,
    *,
    s: int = 3,
    t: int | None = None,
) -> SubsetResult:
    """Extract U and a graph G on U with H quasirandom relative to G.

    Pipeline: equitable t-partition, cylinder chain regularity, pick the
    heaviest cylinder whose densest cells pass the (eta, psi) thresholds,
    truncate its parts to a common size, equalize the pair densities by
    removing seeded random edges, color part triples by density bucket
    (width eta^2), choose a monochromatic s-subset of parts, and assemble
    the subset graph with seeded within-part graphs at the common density.
    The returned chain is the tripartite cover used to certify the result.
    """
    if not 0 < eta <= 1:
        raise InvalidStructure("eta must lie in (0, 1]")
    if s < 3:
        raise InvalidStructure("need at least three parts in the subset")
    n = h.n
    if t is None:
        t = max(3, min(s, n))
    elif not 3 <= t <= n:
        raise InvalidStructure(f"t must lie in [3, {n}], got {t}")
    if s > t:
        raise InvalidStructure("subset size exceeds part count")
    hp = partite_from_three_graph(h, equitable_partition(n, t))
    vs = hp.vertex_set
    eta_c = profile.cylinder_threshold(eta)
    p, _, trace = hyper_cylinder_regularity(hp, eta_c, psi, profile)

    order = sorted(
        range(len(p.vertex.cylinders)),
        key=lambda ci: (-prod(p.vertex.cylinders[ci].sizes()), ci),
    )
    chosen = None
    for ci in order:
        cyl = p.vertex.cylinders[ci]
        if cyl.is_empty():
            continue
        ep = p.edges[ci]
        pick: dict[tuple[int, int], int] = {}
        for (i, j) in combinations(range(t), 2):
            pp = ep.pair(i, j)
            best = max(range(pp.cell_count), key=lambda idx: (pp.edge_counts[idx], -idx))
            pick[(i, j)] = best
        # The tuple audit's verdict on each part triple's densest cell chain.
        if all(
            cell_chain_passes(
                hp, cyl, ep, (i, j, k), (pick[(i, j)], pick[(i, k)], pick[(j, k)]), eta_c, psi
            )
            for (i, j, k) in combinations(range(t), 3)
        ):
            chosen = (ci, pick)
            break
    if chosen is None:
        raise SearchFailure("no cylinder's densest cells pass the quasirandomness gate")
    ci, pick = chosen
    cyl = p.vertex.cylinders[ci]
    ep = p.edges[ci]

    m = min(mask.bit_count() for mask in cyl.masks)
    keeps = [sorted(bits(mask))[:m] for mask in cyl.masks]
    rng = _subset_rng_stream(seed)
    cell_rows: dict[tuple[int, int], list[int]] = {}
    counts: dict[tuple[int, int], int] = {}
    for (i, j) in combinations(range(t), 2):
        cell = ep.pair(i, j).cells[pick[(i, j)]]
        rows = []
        for x in keeps[i]:
            mrow = 0
            for pos, y in enumerate(keeps[j]):
                if cell[x] >> y & 1:
                    mrow |= 1 << pos
            rows.append(mrow)
        cell_rows[(i, j)] = rows
        counts[(i, j)] = sum(r.bit_count() for r in rows)
    e_min = min(counts.values())
    for (i, j) in combinations(range(t), 2):
        excess = counts[(i, j)] - e_min
        if excess == 0:
            continue
        edges = [(x, y) for x in range(m) for y in bits(cell_rows[(i, j)][x])]
        for pos in sorted(rng.sample(len(edges), excess)):
            x, y = edges[pos]
            cell_rows[(i, j)][x] &= ~(1 << y)
    delta = ratio(e_min, m * m)

    buckets: dict[tuple[int, int, int], int] = {}
    width = eta * eta
    for (i, j, k) in combinations(range(t), 3):
        tri = hyp = 0
        rij, rik, rjk = cell_rows[(i, j)], cell_rows[(i, k)], cell_rows[(j, k)]
        zm = hp.zmasks(i, j, k)
        for x in range(m):
            for y in bits(rij[x]):
                zmask = rik[x] & rjk[y]
                tri += zmask.bit_count()
                hmask = zm.get((keeps[i][x], keeps[j][y]), 0)
                hyp += sum(hmask >> keeps[k][z] & 1 for z in bits(zmask))
        d = ratio(hyp, tri)
        buckets[(i, j, k)] = int(d / width)

    mono: tuple[int, ...] | None = None
    bucket = 0
    for cand in combinations(range(t), s):
        vals = {buckets[trip] for trip in combinations(cand, 3)}
        if len(vals) == 1:
            mono = cand
            bucket = vals.pop()
            break
    if mono is None:
        raise SearchFailure(
            "no monochromatic part subset at this t; rerun with more parts"
        )

    u = s * m
    vertices = tuple(
        vs.to_global(part, keeps[part][x]) for part in mono for x in range(m)
    )
    adj = [0] * u
    for a_pos in range(s):
        for b_pos in range(a_pos + 1, s):
            rows = cell_rows[(mono[a_pos], mono[b_pos])]
            for x in range(m):
                for y in bits(rows[x]):
                    gu, gv = a_pos * m + x, b_pos * m + y
                    adj[gu] |= 1 << gv
                    adj[gv] |= 1 << gu
    for a_pos in range(s):
        for x in range(m):
            for d in rng.accepted(m - x - 1, delta):
                gu, gv = a_pos * m + x, a_pos * m + x + 1 + d
                adj[gu] |= 1 << gv
                adj[gv] |= 1 << gu
    g_u = Graph(u, tuple(adj))

    back = {v: idx for idx, v in enumerate(vertices)}
    kept_triples = set()
    for (a, b, c) in h.triples:
        if a in back and b in back and c in back:
            x, y, z = back[a], back[b], back[c]
            if g_u.has_edge(x, y) and g_u.has_edge(x, z) and g_u.has_edge(y, z):
                kept_triples.add(tuple(sorted((x, y, z))))
    induced = ThreeGraph(u, frozenset(kept_triples))

    vs3 = PartiteVertexSet(("U1", "U2", "U3"), (u, u, u))
    pairs3 = {
        (0, 1): BipartiteGraph(u, u, g_u.rows),
        (0, 2): BipartiteGraph(u, u, g_u.rows),
        (1, 2): BipartiteGraph(u, u, g_u.rows),
    }
    cover_triples = set()
    for (x, y, z) in kept_triples:
        for (a, b, c) in ((x, y, z), (x, z, y), (y, x, z), (y, z, x), (z, x, y), (z, y, x)):
            cover_triples.add((a, u + b, 2 * u + c))
    cover = Chain(
        MultipartiteGraph(vs3, pairs3), PartiteThreeGraph.from_triples(vs3, cover_triples)
    )
    cert = chain_quasirandomness(cover, mode="fast")
    return SubsetResult(
        vertices=vertices,
        graph=g_u,
        density=delta,
        chain=cover,
        certificate_value=cert.value,
        eta_ok=cert.value <= eta,
        # eta_psi_check without certifying the cover a second time.
        psi_ok=cert.value <= eta
        and is_graph_quasirandom(cover.graph, psi(product_density(cover.graph))),
        induced=induced,
        parts_chosen=mono,
        bucket=bucket,
        trace=trace,
    )


@dataclass(frozen=True)
class RodlResult:
    """Outcome of the sparse/dense dichotomy attempt.

    ``kind`` is "sparse" or "dense" when the subset chain's relative
    density lands in [0, eps] or [1-eps, 1], "witness" when an induced
    copy of the forbidden pattern turned up instead, and "inconclusive"
    when neither happened at desk-scale constants.
    """

    kind: str
    subset: SubsetResult
    witness: object
    density: Fraction


def rodl_sparse_dense(
    h: ThreeGraph,
    f: ThreeGraph,
    eps: Fraction,
    profile: ConstantsProfile,
    seed: int = 0,
    *,
    t: int | None = None,
) -> RodlResult:
    """Find a subset pair with extreme density, or an induced copy of f.

    Runs quasirandom_subset at eta = eps with the identity psi, inspects
    the returned chain's relative density, and falls back to the exact
    induced-pattern search inside the surviving 3-graph.
    """
    from .vcdim import induced_copy_search

    if not 0 < eps < 1:
        raise InvalidStructure("eps must lie in (0, 1)")
    if f.n > 9:
        raise CapacityError("forbidden pattern exceeds 9 vertices")
    psi = PolyFunction(Fraction(1), 1)
    sub = quasirandom_subset(h, eps, psi, profile, seed=seed, t=t)
    density = relative_density(sub.chain)
    if density <= eps:
        return RodlResult("sparse", sub, None, density)
    if density >= 1 - eps:
        return RodlResult("dense", sub, None, density)
    witness = induced_copy_search(f, sub.induced, cap=9)
    if witness is not None:
        return RodlResult("witness", sub, witness, density)
    return RodlResult("inconclusive", sub, None, density)
