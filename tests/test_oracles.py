"""The oracle registry behind ``regulab oracle-check``: a fault planted in
any fast path shows as mismatches of the case that names it."""

import inspect
import sys

import pytest

from regulab import core, oracles, partitions, quasirandom
from regulab.cli import run
from regulab.core import Graph
from regulab.generators import SplitMix64
from regulab.partitions import PairPartition, VertexCylinderPartition
from regulab.report import load_report


def _rebind(mp, module, name, make):
    """Replace ``module.name`` by ``make(original)`` in every regulab module
    that binds the original, so callers that imported it see the fault."""
    old = getattr(module, name)
    new = make(old)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("regulab") and getattr(mod, name, None) is old:
            mp.setattr(mod, name, new)


def _short_bulk_scan(old):
    """``_bulk_scan`` that drops its last edge."""

    def bulk(text):
        got = old(text)
        if got is None or not got[1]:
            return got
        parts, edges, lines, triples, triple_lines = got
        return parts, edges[:-2], range(lines.start, lines.stop - 1), triples, triple_lines

    return bulk


def _shallow_first_pass(old):
    """``chain_first_pass`` whose Cauchy-Schwarz bound is halved."""
    return lambda *a: (fp := old(*a))._replace(diagonal=fp.diagonal // 2)


def _narrow_slots(old):
    """``chain_first_pass`` with its x slots W - 1 bits apart, not W: an
    off-by-one shift that lays the top z of one x on the lowest z of the
    next.  Made from the kernel's own source with that one line changed."""
    src = inspect.getsource(old)
    assert src.count("slot += W\n") == 1
    namespace = dict(vars(quasirandom))
    exec(src.replace("slot += W\n", "slot += W - 1\n"), namespace)
    return namespace[old.__name__]


def _overwriting_placement(old):
    """The placement loop with each hyperedge's bit stored over its
    (x, y)'s mask, not ORed into it, so only the last z of each (x, y)
    survives.  Made from the loop's own source with that one line changed."""
    src = inspect.getsource(old)
    line = "bucket[key] = bucket.get(key, 0) | 1 << local[w]\n"
    assert src.count(line) == 1
    namespace = dict(vars(core))
    exec(src.replace(line, "bucket[key] = 1 << local[w]\n"), namespace)
    return namespace[old.__name__]


# One planted fault per case, each in a fast path the case names.
FAULTS = {
    "pair-kernel": lambda mp: _rebind(
        mp, quasirandom, "pair_raw_scaled", lambda old: lambda *a: old(*a) + 1
    ),
    "masked-pair": lambda mp: _rebind(  # the row subset ignored
        mp, quasirandom, "masked_pair_quasirandomness",
        lambda old: lambda rows, xs, mask: old(rows, range(len(rows)), mask),
    ),
    "cell-terms": lambda mp: mp.setattr(
        PairPartition, "certificate_terms",
        property(lambda self, old=PairPartition.certificate_terms.func: tuple(
            (n + 1, d) for n, d in old(self)
        )),
    ),
    "pair-bound": lambda mp: _rebind(mp, quasirandom, "pair_bound_scaled", lambda old: lambda e, a: 0),
    "symmetry": lambda mp: _rebind(mp, core, "rows_symmetric", lambda old: lambda rows: True),
    "from-edges": lambda mp: mp.setattr(  # the last edge dropped
        Graph, "from_edges",
        classmethod(lambda cls, n, edges, old=Graph.from_edges: old(n, list(edges)[:-1])),
    ),
    "overlap": lambda mp: _rebind(mp, partitions, "_first_overlap", lambda old: lambda h, c: None),
    "bulk-draw": lambda mp: mp.setattr(  # the last accepted index dropped
        SplitMix64, "accepted", lambda self, n, p, old=SplitMix64.accepted: old(self, n, p)[:-1]
    ),
    "bulk-scan": lambda mp: _rebind(mp, core, "_bulk_scan", _short_bulk_scan),
    "chain-kernel": lambda mp: _rebind(
        mp, quasirandom, "chain_pair_total", lambda old: lambda fp: old(fp) + 1
    ),
    "chain-bound": lambda mp: _rebind(mp, quasirandom, "chain_first_pass", _shallow_first_pass),
    "hyperedge-index": lambda mp: _rebind(mp, core, "_placed", _overwriting_placement),
    "cell-chains": lambda mp: _rebind(mp, partitions, "cell_chain_passes", lambda old: lambda *a: True),
    "containment": lambda mp: mp.setattr(VertexCylinderPartition, "lookup", lambda self, locals_: 0),
}


def test_every_case_has_a_planted_fault():
    assert sorted(FAULTS) == sorted(case.name for case in oracles.CASES)


def _fails_its_case(name, plant, monkeypatch, tmp_path, capsys):
    """``oracle-check --sizes 1..5 --cases 12``, run on the one case, exits
    0 and then, with ``plant`` applied, exits 2 with a report that names
    the case with at least one mismatch."""
    monkeypatch.setattr(oracles, "CASES", tuple(c for c in oracles.CASES if c.name == name))
    out = tmp_path / "oc.json"
    argv = ["oracle-check", "--sizes", "1..5", "--cases", "12", "--output", str(out)]
    assert run(argv) == 0
    plant(monkeypatch)
    assert run(argv) == 2
    assert capsys.readouterr().err == ""
    audit = load_report(out.read_text())["audit"]
    assert audit["cases"][name]["mismatches"] >= 1
    assert audit["mismatches"] == audit["cases"][name]["mismatches"]
    assert audit["all_equal"] is False


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_a_fault_in_a_fast_path_fails_its_case(name, monkeypatch, tmp_path, capsys):
    """Each case catches the fault planted in a fast path it names."""
    _fails_its_case(name, FAULTS[name], monkeypatch, tmp_path, capsys)


def test_an_off_by_one_slot_shift_fails_the_chain_bound_case(monkeypatch, tmp_path, capsys):
    """The first pass with its x slots one bit too close, so that two x
    share a bit of a plane, fails the chain-bound case."""
    _fails_its_case(
        "chain-bound",
        lambda mp: _rebind(mp, quasirandom, "chain_first_pass", _narrow_slots),
        monkeypatch, tmp_path, capsys,
    )


def test_a_fault_shows_in_the_full_report(tmp_path, capsys, monkeypatch):
    """Across the whole registry, a Cauchy-Schwarz bound that reads 0 fails
    the pair-bound case, and every case still reports its instances."""
    FAULTS["pair-bound"](monkeypatch)
    out = tmp_path / "oc.json"
    assert run(["oracle-check", "--sizes", "1..5", "--cases", "12", "--output", str(out)]) == 2
    cases = load_report(out.read_text())["audit"]["cases"]
    assert sorted(cases) == sorted(case.name for case in oracles.CASES)
    assert cases["pair-bound"]["mismatches"] >= 1
    assert all(case["instances"] >= 3 for case in cases.values())
    capsys.readouterr()
