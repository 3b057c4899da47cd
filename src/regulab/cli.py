"""Command line front end.

Subcommands: analyze, decompose, cylinder, vc2, generate, subset, and
oracle-check, which runs every case of the oracle registry
(``regulab.oracles``) and reports each case's instances and mismatches.
Thresholds are parsed as exact rationals ("1/4", "0.25", "2**-20"); engine
runs emit a versioned JSON report that is byte-identical across reruns
with the same config and seed, except for runtime_ms.  Each engine
subcommand ends in one call of ``_report``, the one writer of reports;
audits enter it as the engines return them, and the report layer writes
every rational as a "num/den" string.

Exit codes: 0 success, 1 parse or validation failure, 2 audit failure,
3 capacity, nontermination or a failed engine invariant.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from . import __version__
from .core import (
    BipartiteGraph,
    CapacityError,
    ContainmentError,
    DensityUndefined,
    InvalidStructure,
    InvariantViolation,
    MAX_VERTICES,
    MultipartiteGraph,
    ParseError,
    PartiteVertexSet,
    Scan,
    load_chain,
    load_graph,
    load_multipartite,
    load_partite_3graph,
    load_three_graph,
    relative_density,
    save_chain,
    save_graph,
    save_multipartite,
    save_partite_3graph,
    save_three_graph,
    scan,
)
from .engines import (
    ConstantsProfile,
    NonterminationError,
    RefinementFailure,
    ScheduleSaturation,
    SearchFailure,
    graph_homogeneous_decomposition,
    homogeneous_decomposition,
    hyper_cylinder_regularity,
    quasirandom_subset,
    rodl_sparse_dense,
)
from .generators import (
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
from .quasirandom import (
    PolyFunction,
    chain_quasirandomness,
    pair_quasirandomness,
    graph_quasirandomness,
)
from .report import DecompositionReport, input_hash, save_report, trace_list
from .vcdim import vc2_dimension

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AUDIT = 2
EXIT_CAPACITY = 3


class _ArgError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgError(message)


def parse_rational(text: str) -> Fraction:
    """An exact rational from "num/den", a decimal ("0.25", "1e-3") or
    "a**b".  A value whose numerator or denominator would have more digits
    than ``sys.get_int_max_str_digits()`` (its default when that is 0) is
    refused, since no report could write it.  The power and exponent forms
    are sized before they are computed, with integer arithmetic only."""
    s = text.strip()
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    too_long = _ArgError(f"rational {text!r} has more than {limit} digits")
    power = re.fullmatch(r"(-?\d+)\*\*(-?\d+)", s)
    exponent = re.search(r"[eE]([-+]?[\d_]+)$", s)
    try:
        if power:
            base, e = int(power.group(1)), int(power.group(2))
            # |base|**|e| >= 2**(|e| (bit_length - 1)), which has at least
            # floor(|e| (bit_length - 1) log10 2) + 1 digits; log10 2 > 0.30102.
            if abs(e) * (abs(base).bit_length() - 1) * 30102 // 100000 >= limit:
                raise too_long
            x = Fraction(base) ** e
        else:
            # The mantissa's digits cancel at most len(s) of the exponent's.
            if exponent and abs(int(exponent.group(1))) > limit + len(s):
                raise too_long
            x = Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise _ArgError(f"cannot parse rational {text!r}")
    if max(abs(x.numerator), x.denominator) >= 10**limit:
        raise too_long
    return x


def parse_psi(text: str) -> PolyFunction:
    try:
        return PolyFunction.parse(text)
    except InvalidStructure as exc:
        raise _ArgError(str(exc))


def _parse_sizes(text: str, count: int | None = None) -> tuple[int, ...]:
    """Part sizes from "4,4,4"; exactly ``count`` of them when given."""
    try:
        sizes = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise _ArgError(f"cannot parse part sizes {text!r}")
    if not sizes or any(s < 1 for s in sizes):
        raise _ArgError("part sizes must be positive integers")
    if count is not None and len(sizes) != count:
        raise _ArgError(f"--parts needs {count} sizes for this kind, got {len(sizes)}")
    return sizes


def build_profile(args) -> ConstantsProfile:
    overrides = {}
    for flag, conv in (
        ("q_gain", parse_rational),
        ("edge_part_cap", int),
        ("max_steps", int),
        ("witness_cap", int),
        ("witness_search", str),
        ("cylinder_eta", parse_rational),
        ("szemeredi_alpha", parse_rational),
        ("sparse_density", parse_rational),
        ("audit_tuple_cap", int),
    ):
        val = getattr(args, flag, None)
        if val is not None:
            overrides[flag] = conv(val) if isinstance(val, str) else val
    if args.profile == "paper":
        if overrides:
            raise _ArgError("profile overrides are only valid under the desk profile")
        return ConstantsProfile.paper()
    if args.profile == "desk":
        try:
            return ConstantsProfile.desk(**overrides)
        except InvalidStructure as exc:
            raise _ArgError(str(exc))
    raise _ArgError(f"unknown profile {args.profile!r}")


def _add_profile_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", default="desk", help="desk or paper")
    p.add_argument("--q-gain", dest="q_gain")
    p.add_argument("--edge-part-cap", dest="edge_part_cap", type=int)
    p.add_argument("--max-steps", dest="max_steps", type=int)
    p.add_argument("--witness-cap", dest="witness_cap", type=int)
    p.add_argument("--witness-search", dest="witness_search", choices=("auto", "exhaustive", "greedy"))
    p.add_argument("--cylinder-eta", dest="cylinder_eta")
    p.add_argument("--szemeredi-alpha", dest="szemeredi_alpha")
    p.add_argument("--sparse-density", dest="sparse_density")
    p.add_argument("--audit-tuple-cap", dest="audit_tuple_cap", type=int)


def _at_least(args, flag: str, low: int) -> None:
    """Reject an integer flag below ``low``; an unset flag passes."""
    val = getattr(args, flag)
    if val is not None and val < low:
        raise _ArgError(f"--{flag.replace('_', '-')} must be at least {low}, got {val}")


def _write_out(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, or to standard output when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _ArgError(f"cannot write {path}: {exc}")


def _fields(record, **keys) -> dict:
    """An engine's audit record as report keys, plus the command's own
    ``keys``: every field but the part sizes (the report's part counts
    carry them) and the optional fields the engine left unset."""
    d = {k: v for k, v in asdict(record).items() if k != "part_sizes" and v is not None}
    return d | keys


def _report(
    args, digest, t0, audit, part_counts, ok, *, profile=None, trace=None, extra=None
) -> int:
    """Write the one report of an engine run and give its exit code.

    Every report goes through here: ``runtime_ms`` counts from the
    command's ``t0``, and the report layer writes each rational in
    ``audit``, ``trace`` and ``extra`` as a "num/den" string."""
    rep = DecompositionReport(
        command=args.command,
        input_hash=digest,
        profile=asdict(profile) if profile is not None else {},
        seed=getattr(args, "seed", 0),
        trace=trace_list(trace) if trace is not None else [],
        audit=audit,
        part_counts=part_counts,
        runtime_ms=int((time.monotonic() - t0) * 1000),
        extra=extra or {},
    )
    _write_out(args.output, save_report(rep))
    return EXIT_OK if ok else EXIT_AUDIT


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise _ArgError(f"cannot read {path}: {exc}")


def _scan_input(path: str) -> tuple[Scan, str]:
    """The one scan of an input file, which also gives its kind, and the
    hash its report carries.  A command drops the scan once it has loaded,
    so the records do not outlive the load; a malformed file raises its
    ParseError in the loader, after the command's own argument checks."""
    text = _read(path)
    return scan(text), input_hash(text)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    sc, digest = _scan_input(args.input)
    beta = parse_rational(args.beta) if args.beta is not None else None
    kind = sc.kind
    modes = ("fast", "naive") if args.mode == "both" else (args.mode,)
    audit: dict = {"kind": kind}
    t0 = time.monotonic()
    if kind == "chain":
        c = load_chain(sc)
        del sc
        part_counts = list(c.vertex_set.sizes)
        for mode in modes:
            audit[mode] = asdict(chain_quasirandomness(c, mode=mode))
        value = audit[modes[0]]["value"]
        audit["relative_density"] = relative_density(c)
    elif kind == "multipartite":
        g = load_multipartite(sc)
        del sc
        part_counts = list(g.vertex_set.sizes)
        for mode in modes:
            certs = sorted(graph_quasirandomness(g, mode=mode).items())
            audit[mode] = {f"{i},{j}": asdict(cert) for (i, j), cert in certs}
        value = audit["max_pair_value"] = max(cert["value"] for cert in audit[modes[0]].values())
    elif kind == "graph":
        g = load_graph(sc)
        del sc
        part_counts = [g.n]
        bg = BipartiteGraph(g.n, g.n, g.rows)
        for mode in modes:
            audit[mode] = asdict(pair_quasirandomness(bg, mode=mode))
        value = audit[modes[0]]["value"]
    else:
        raise _ArgError("analyze expects a chain or graph file, got a bare 3-graph")
    beta_ok = True
    if beta is not None:
        beta_ok = value <= beta
        audit["beta"] = beta
        audit["is_quasirandom"] = beta_ok
    return _report(args, digest, t0, audit, part_counts, beta_ok)


def _cmd_decompose(args) -> int:
    _at_least(args, "t", 1)
    sc, digest = _scan_input(args.input)
    kind = sc.kind
    profile = build_profile(args)
    t0 = time.monotonic()
    if kind == "three":
        if args.eta is None or args.psi is None:
            raise _ArgError("decompose on a 3-graph needs --eta and --psi")
        eta = parse_rational(args.eta)
        psi = parse_psi(args.psi)
        h = load_three_graph(sc)
        del sc
        q, audit, trace = homogeneous_decomposition(h, eta, psi, profile, t=args.t)
        ok = audit.homogeneous_mass >= 1 - 2 * eta
        audit_d = _fields(audit, convention="ordered-triples", eta=eta, passes=ok)
        part_counts = [len(p) for p in q.parts]
    elif kind == "graph":
        if args.eps is None:
            raise _ArgError("decompose on a graph needs --eps")
        eps = parse_rational(args.eps)
        g = load_graph(sc)
        del sc
        parts, audit, trace = graph_homogeneous_decomposition(g, eps, profile, t=args.t)
        ok = audit.homogeneous_mass >= 1 - 2 * eps
        audit_d = _fields(audit, convention="ordered-pairs", passes=ok)
        part_counts = list(audit.part_sizes)
    else:
        raise _ArgError("decompose expects a 3-graph or a single-part graph file")
    return _report(args, digest, t0, audit_d, part_counts, ok, profile=profile, trace=trace)


def _cmd_cylinder(args) -> int:
    sc, digest = _scan_input(args.input)
    eta = parse_rational(args.eta)
    psi = parse_psi(args.psi)
    profile = build_profile(args)
    if sc.kind != "three":
        raise _ArgError("cylinder expects a partite 3-graph file")
    h = load_partite_3graph(sc)
    del sc
    t0 = time.monotonic()
    p, audit, trace = hyper_cylinder_regularity(h, eta, psi, profile)
    ok = audit.good_mass >= 1 - eta
    return _report(
        args, digest, t0, _fields(audit, eta=eta, passes=ok), [p.vertex_count, p.edge_count], ok,
        profile=profile, trace=trace,
    )


def _cmd_vc2(args) -> int:
    _at_least(args, "cap_d", 0)
    _at_least(args, "cap_n", 0)
    sc = scan(_read(args.input))
    if sc.kind != "three":
        raise _ArgError("vc2 expects a 3-graph file")
    h = load_three_graph(sc)
    del sc
    d, witness = vc2_dimension(h, cap_d=args.cap_d, cap_n=args.cap_n)
    out = {"vc2": d, "witness": None}
    if witness is not None:
        out["witness"] = {
            "sets": [list(s) for s in witness.sets],
            "realizers": {str(k): v for k, v in sorted(witness.realizers.items())},
        }
    _write_out(args.output, json.dumps(out, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def _save_two_part(g: BipartiteGraph) -> str:
    """A bipartite graph in the multipartite format, parts A and B."""
    vs = PartiteVertexSet(("A", "B"), (g.left_size, g.right_size))
    return save_multipartite(MultipartiteGraph(vs, {(0, 1): g}))


def _probability(text: str | None) -> Fraction:
    """A density flag of generate; an absent one means 1/2."""
    p = parse_rational(text) if text is not None else Fraction(1, 2)
    if not 0 <= p <= 1:
        raise _ArgError("probability out of [0, 1]")
    return p


# Part-size defaults and counts of the generate kinds drawn from --parts.
_PARTS_KINDS = {
    "link": ("6,6,6", 3),
    "partite3": ("4,4,4", None),
    "bipartite": ("8,8", 2),
    "multipartite": ("4,4,4", None),
    "chain": ("4,4,4", None),
}


def _cmd_generate(args) -> int:
    kind = args.kind
    seed = args.seed
    _at_least(args, "n", 0)
    p = _probability(args.p)
    if kind in _PARTS_KINDS:
        default, count = _PARTS_KINDS[kind]
        sizes = _parse_sizes(args.parts or default, count)
        total = sum(sizes)
    elif kind == "cone":
        if args.base is None:
            raise _ArgError("generate --kind cone needs --base")
        mg = load_multipartite(_read(args.base))
        if mg.vertex_set.t != 2:
            raise _ArgError("cone base must be a two-part graph file")
        total = mg.vertex_set.total + args.apex
    else:
        total = {"tournament": args.n, "graph": args.n, "half": 2 * args.n}.get(kind, 0)
    if total > MAX_VERTICES:  # no loader would read the file back
        raise CapacityError(
            f"--kind {kind} would write {total} vertices; a file may declare at most {MAX_VERTICES}"
        )
    if kind == "vd":
        out = save_partite_3graph(make_vd(args.d))
    elif kind == "fd":
        out = _save_two_part(make_fd(args.d))
    elif kind == "cone":
        out = save_partite_3graph(cone_hypergraph(mg.pair(0, 1), args.apex))
    elif kind == "link":
        out = save_partite_3graph(random_link_hypergraph(*sizes, seed))
    elif kind == "tournament":
        out = save_three_graph(random_tournament_3graph(args.n, seed))
    elif kind == "partite3":
        out = save_partite_3graph(random_partite_3graph(sizes, p, seed))
    elif kind == "bipartite":
        out = _save_two_part(random_bipartite(*sizes, p, seed))
    elif kind == "graph":
        out = save_graph(random_graph(args.n, p, seed))
    elif kind == "half":
        out = _save_two_part(half_graph(args.n))
    elif kind == "multipartite":
        out = save_multipartite(random_multipartite(sizes, p, seed))
    elif kind == "chain":
        out = save_chain(random_chain(sizes, p, _probability(args.q), seed))
    else:
        raise _ArgError(f"unknown kind {kind!r}")
    _write_out(args.out, out)
    return EXIT_OK


def _cmd_subset(args) -> int:
    _at_least(args, "t", 1)
    sc, digest = _scan_input(args.input)
    if args.pattern is not None:
        if args.eps is None:
            raise _ArgError("rodl mode needs --eps")
        eps = parse_rational(args.eps)
    elif args.eta is None or args.psi is None:
        raise _ArgError("subset needs --eta and --psi")
    else:
        eta, psi = parse_rational(args.eta), parse_psi(args.psi)
    profile = build_profile(args)
    if sc.kind != "three":
        raise _ArgError("subset expects a 3-graph file")
    h = load_three_graph(sc)
    del sc
    t0 = time.monotonic()
    if args.pattern is not None:
        f = load_three_graph(_read(args.pattern))
        res = rodl_sparse_dense(h, f, eps, profile, seed=args.seed, t=args.t)
        sub = res.subset
        witness = None if res.witness is None else res.witness.images
        audit = {"kind": res.kind, "density": res.density, "eps": eps, "witness": witness}
    else:
        sub = quasirandom_subset(h, eta, psi, profile, seed=args.seed, s=args.s, t=args.t)
        audit = {"density": sub.density, "eta": eta, "eta_ok": sub.eta_ok, "psi_ok": sub.psi_ok,
                 "bucket": sub.bucket}
    audit["certificate"] = sub.certificate_value
    extra = {"vertices": sub.vertices, "parts_chosen": sub.parts_chosen}
    return _report(
        args, digest, t0, audit, [len(sub.vertices)], True,
        profile=profile, trace=sub.trace, extra=extra,
    )


def _cmd_oracle_check(args) -> int:
    from .oracles import run_cases  # imported here, so no other command loads the registry

    m = re.fullmatch(r"(\d+)\.\.(\d+)", args.sizes)
    if not m:
        raise _ArgError("--sizes must look like 4..8")
    lo, hi = int(m.group(1)), int(m.group(2))
    if not 1 <= lo <= hi:
        raise _ArgError("size range must be non-empty and positive")
    _at_least(args, "cases", 0)
    t0 = time.monotonic()
    cases = run_cases(lo, hi, args.cases, args.seed)
    mismatches = sum(case["mismatches"] for case in cases.values())
    audit = {"cases": cases, "mismatches": mismatches, "all_equal": mismatches == 0}
    digest = input_hash(f"sizes={lo}..{hi} cases={args.cases} seed={args.seed}")
    return _report(args, digest, t0, audit, [], mismatches == 0)


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------


@functools.cache  # parsing leaves the parser as it was
def _build_parser() -> _Parser:
    top = _Parser(prog="regulab", description=__doc__)
    top.add_argument("--version", action="version", version=f"regulab {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="quasirandomness certificates of a chain or graph")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("fast", "naive", "both"), default="fast")
    p.add_argument("--beta", help="threshold; exit 2 when the certificate exceeds it")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("decompose", help="homogeneous decomposition of a 3-graph or graph")
    p.add_argument("--input", required=True)
    p.add_argument("--eta")
    p.add_argument("--psi", help='rate function "c,k", e.g. "1/16,3"')
    p.add_argument("--eps", help="graph pipeline threshold")
    p.add_argument("--t", type=int)
    p.add_argument("--output")
    _add_profile_flags(p)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("cylinder", help="cylinder chain regularity of a partite 3-graph")
    p.add_argument("--input", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--output")
    _add_profile_flags(p)
    p.set_defaults(fn=_cmd_cylinder)

    p = sub.add_parser("vc2", help="second Vapnik-Chervonenkis dimension of a 3-graph")
    p.add_argument("--input", required=True)
    p.add_argument("--cap-d", dest="cap_d", type=int, default=2)
    p.add_argument("--cap-n", dest="cap_n", type=int, default=20)
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_vc2)

    p = sub.add_parser("generate", help="write instances in the text formats")
    p.add_argument("--kind", required=True, choices=(
        "vd", "fd", "cone", "link", "tournament", "partite3",
        "bipartite", "graph", "half", "multipartite", "chain",
    ))
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--apex", type=int, default=3)
    p.add_argument("--parts", help='sizes like "4,4,4"')
    p.add_argument("--p", help="edge density")
    p.add_argument("--q", help="triple density (chain kind)")
    p.add_argument("--base", help="graph file for the cone base")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("subset", help="quasirandom subset extraction / density dichotomy")
    p.add_argument("--input", required=True)
    p.add_argument("--eta")
    p.add_argument("--psi")
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--t", type=int)
    p.add_argument("--pattern", help="forbidden 3-graph file; switches to dichotomy mode")
    p.add_argument("--eps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    _add_profile_flags(p)
    p.set_defaults(fn=_cmd_subset)

    p = sub.add_parser("oracle-check", help="every fast path against its naive oracle")
    p.add_argument("--sizes", default="1..4", help="part sizes lo..hi")
    p.add_argument("--cases", type=int, default=8, help="instances per case (one in four for some)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_oracle_check)

    return top


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (_ArgError, ParseError, InvalidStructure, DensityUndefined, ContainmentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ScheduleSaturation as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (CapacityError, NonterminationError, RefinementFailure, SearchFailure) as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
