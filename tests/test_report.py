"""Report serialization: exact fractions, schema validation, determinism."""

from fractions import Fraction

import pytest

from regulab.core import InvalidStructure
from regulab.report import (
    DecompositionReport,
    fraction_str,
    input_hash,
    load_report,
    parse_fraction,
    save_report,
    validate_report,
)


def _report(**kw):
    base = dict(
        command="decompose",
        input_hash=input_hash("part A 2\n"),
        profile={"name": "desk"},
        seed=3,
        trace=[{"step": 0, "stage": "hyper", "q": "1/4", "action": "accept"}],
        audit={"passes": True},
        part_counts=[2],
        runtime_ms=12,
    )
    base.update(kw)
    return DecompositionReport(**base)


def test_fraction_round_trip():
    for f in (Fraction(0), Fraction(-3, 7), Fraction(22, 7), Fraction(5)):
        assert parse_fraction(fraction_str(f)) == f
    with pytest.raises(InvalidStructure):
        parse_fraction("1.5")
    with pytest.raises(InvalidStructure):
        parse_fraction("1/0")


def test_input_hash_is_sha256_hex():
    h = input_hash("abc")
    assert len(h) == 64 and set(h) <= set("0123456789abcdef")
    assert h == input_hash("abc")
    assert h != input_hash("abd")


def test_report_json_round_trip():
    rep = _report()
    text = save_report(rep)
    data = load_report(text)
    validate_report(data)
    assert data["schema"] == 2
    assert data["seed"] == 3
    assert data["trace"][0]["q"] == "1/4"


def test_report_deterministic_serialization():
    assert save_report(_report()) == save_report(_report())


def test_report_embeds_fractions_as_strings():
    rep = _report(audit={"gamma": Fraction(1, 16), "passes": True})
    data = load_report(save_report(rep))
    assert data["audit"]["gamma"] == "1/16"


def test_validate_rejects_missing_keys():
    data = load_report(save_report(_report()))
    del data["input_hash"]
    with pytest.raises(InvalidStructure):
        validate_report(data)


def test_validate_rejects_bad_schema():
    data = load_report(save_report(_report()))
    data["schema"] = 1
    with pytest.raises(InvalidStructure):
        validate_report(data)


def test_validate_rejects_bad_trace_row():
    data = load_report(save_report(_report()))
    data["trace"] = [{"step": 0}]
    with pytest.raises(InvalidStructure):
        validate_report(data)


def test_validate_rejects_bad_hash():
    data = load_report(save_report(_report()))
    data["input_hash"] = "zz"
    with pytest.raises(InvalidStructure):
        validate_report(data)
