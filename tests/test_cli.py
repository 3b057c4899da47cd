"""Command line driver: exit codes, reports, determinism."""

import hashlib
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from regulab.cli import _build_parser, parse_rational, run
from regulab.report import load_report, validate_report


@pytest.fixture()
def cone_file(tmp_path):
    path = tmp_path / "cone.h3"
    rc = run(
        [
            "generate", "--kind", "bipartite", "--parts", "6,6", "--p", "1/2",
            "--seed", "3", "--out", str(tmp_path / "base.mg"),
        ]
    )
    assert rc == 0
    rc = run(
        [
            "generate", "--kind", "cone", "--base", str(tmp_path / "base.mg"),
            "--apex", "6", "--out", str(path),
        ]
    )
    assert rc == 0
    return path


def test_parse_rational_forms():
    assert parse_rational("1/4") == Fraction(1, 4)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("2**-3") == Fraction(1, 8)
    assert parse_rational("-2") == Fraction(-2)
    from regulab.cli import _ArgError

    with pytest.raises(_ArgError):
        parse_rational("three halves")


def test_parse_rational_refuses_more_digits_than_a_report_can_write():
    """The limit is ``sys.get_int_max_str_digits()`` (4300 by default) on
    the numerator and the denominator; the power and exponent forms are
    refused before the value is built, so none of these allocates."""
    from regulab.cli import _ArgError

    assert parse_rational("2**-14000") == Fraction(1, 2**14000)
    assert parse_rational("1e4299") == 10**4299
    assert parse_rational("3**9000") == 3**9000
    for text in ("2**-15000", "2**-100000000000", "-7**100000000000", "3**9100",
                 "1e4300", "1e-5000", "1e-100000000000"):
        with pytest.raises(_ArgError, match="more than 4300 digits"):
            parse_rational(text)


@pytest.mark.parametrize(
    "flags",
    [
        ["cylinder", "--eta", "2**-15000", "--psi", "1,1"],
        ["decompose", "--eta", "1/4", "--psi", "1,1", "--q-gain", "2**-15000"],
        ["decompose", "--eta", "1/4", "--psi", "1,1", "--cylinder-eta", "2**-15000"],
    ],
    ids=["cylinder-eta", "decompose-q-gain", "decompose-cylinder-eta"],
)
def test_a_rational_past_the_digit_limit_exits_one(flags, tmp_path, capsys):
    h, out = tmp_path / "p.h3", tmp_path / "r.json"
    assert run(["generate", "--kind", "partite3", "--parts", "3,3,3", "--out", str(h)]) == 0
    capsys.readouterr()
    assert run([flags[0], "--input", str(h), *flags[1:], "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: rational '2**-15000' has more than 4300 digits\n"
    )
    assert not out.exists()
    # 2**-14000 has 4,215 digits: the run and its report go through.
    assert run(["cylinder", "--input", str(h), "--eta", "2**-14000", "--psi", "1,1",
                "--output", str(out)]) == 0
    assert load_report(out.read_text())["audit"]["eta"] == f"1/{2**14000}"


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run(["analyze", "--input", str(tmp_path / "missing.h3")]) == 1
    bad = tmp_path / "bad.g"
    bad.write_text("part A 2\ne 0 9\n")
    assert run(["analyze", "--input", str(bad)]) == 1
    assert run(["decompose", "--input", str(bad), "--eta", "x"]) == 1
    capsys.readouterr()
    # generate checks its own flags, whether or not a draw would read them.
    out = tmp_path / "g.txt"
    for argv, line in [
        (["--kind", "cone"], "error: generate --kind cone needs --base"),
        (["--kind", "graph", "--n", "1", "--p", "2"], "error: probability out of [0, 1]"),
        (["--kind", "graph", "--n", "0", "--p=-1/2"], "error: probability out of [0, 1]"),
        (["--kind", "tournament", "--p", "3/2"], "error: probability out of [0, 1]"),
        (["--kind", "chain", "--parts", "1,1,1", "--p", "0", "--q", "7"],
         "error: probability out of [0, 1]"),
    ]:
        assert run(["generate", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == line + "\n"
        assert not out.exists()


def test_analyze_chain_report(tmp_path, capsys):
    rc = run(["generate", "--kind", "chain", "--parts", "4,4,4", "--seed", "9",
              "--out", str(tmp_path / "c.chain")])
    assert rc == 0
    out = tmp_path / "r.json"
    rc = run(["analyze", "--input", str(tmp_path / "c.chain"), "--mode", "both",
              "--output", str(out)])
    assert rc == 0
    data = load_report(out.read_text())
    validate_report(data)
    assert data["audit"]["fast"]["value"] == data["audit"]["naive"]["value"]
    capsys.readouterr()


def test_analyze_beta_gate(tmp_path, capsys):
    rc = run(["generate", "--kind", "chain", "--parts", "4,4,4", "--seed", "9",
              "--out", str(tmp_path / "c.chain")])
    assert rc == 0
    assert run(["analyze", "--input", str(tmp_path / "c.chain"), "--beta", "1"]) == 0
    assert run(["analyze", "--input", str(tmp_path / "c.chain"),
                "--beta", "1/1000000000"]) == 2
    capsys.readouterr()


def test_decompose_cone_passes(cone_file, tmp_path, capsys):
    out = tmp_path / "dec.json"
    rc = run(["decompose", "--input", str(cone_file), "--eta", "1/4",
              "--psi", "1,1", "--t", "9", "--output", str(out)])
    assert rc == 0
    data = load_report(out.read_text())
    validate_report(data)
    assert data["audit"]["passes"] is True
    assert data["profile"]["name"] == "desk"
    assert data["audit"]["convention"] == "ordered-triples"
    capsys.readouterr()


def test_decompose_reports_are_stable(cone_file, tmp_path, capsys):
    args = ["decompose", "--input", str(cone_file), "--eta", "1/4",
            "--psi", "1,1", "--t", "9"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--output", str(p1)]) == 0
    assert run(args + ["--output", str(p2)]) == 0
    scrub = lambda p: re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', p.read_text())
    assert scrub(p1) == scrub(p2)
    capsys.readouterr()


def test_paper_profile_refusal_exits_three(cone_file, capsys):
    rc = run(["decompose", "--input", str(cone_file), "--eta", "1/4",
              "--psi", "2**-100,28", "--profile", "paper"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "refus" in err


def test_paper_profile_rejects_overrides(cone_file, capsys):
    rc = run(["decompose", "--input", str(cone_file), "--eta", "1/4",
              "--psi", "1,1", "--profile", "paper", "--max-steps", "5"])
    assert rc == 1
    capsys.readouterr()


def test_graph_decompose(tmp_path, capsys):
    rc = run(["generate", "--kind", "graph", "--n", "20", "--p", "1/10",
              "--seed", "8", "--out", str(tmp_path / "g.g")])
    assert rc == 0
    out = tmp_path / "d.json"
    rc = run(["decompose", "--input", str(tmp_path / "g.g"), "--eps", "1/4",
              "--output", str(out)])
    assert rc == 0
    data = load_report(out.read_text())
    assert data["audit"]["convention"] == "ordered-pairs"
    capsys.readouterr()


def test_cylinder_subcommand(cone_file, tmp_path, capsys):
    out = tmp_path / "cyl.json"
    rc = run(["cylinder", "--input", str(cone_file), "--eta", "1/4",
              "--psi", "1,1", "--output", str(out)])
    assert rc == 0
    data = load_report(out.read_text())
    validate_report(data)
    assert data["audit"]["passes"] is True
    capsys.readouterr()


def test_cylinder_reports_are_stable(cone_file, tmp_path, capsys):
    args = ["cylinder", "--input", str(cone_file), "--eta", "1/4", "--psi", "1,1"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--output", str(p1)]) == 0
    assert run(args + ["--output", str(p2)]) == 0
    scrub = lambda p: re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', p.read_text())
    assert scrub(p1) == scrub(p2)
    capsys.readouterr()


def test_unwritable_output_exits_one(cone_file, tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "out.txt"
    commands = [
        ["cylinder", "--input", str(cone_file), "--eta", "1/4", "--psi", "1,1",
         "--output", str(missing)],
        ["vc2", "--input", str(cone_file), "--output", str(missing)],
        ["generate", "--kind", "graph", "--n", "4", "--out", str(missing)],
    ]
    for argv in commands:
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {missing}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
    assert not missing.parent.exists()


def test_vc2_subcommand(cone_file, tmp_path, capsys):
    out = tmp_path / "vc2.json"
    rc = run(["vc2", "--input", str(cone_file), "--output", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["vc2"] <= 1
    capsys.readouterr()


def test_vc2_vd_two(tmp_path, capsys):
    rc = run(["generate", "--kind", "vd", "--d", "2", "--out", str(tmp_path / "vd.h3")])
    assert rc == 0
    out = tmp_path / "vc2.json"
    rc = run(["vc2", "--input", str(tmp_path / "vd.h3"), "--output", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["vc2"] == 2 and data["witness"] is not None
    capsys.readouterr()


def test_subset_subcommand(tmp_path, capsys):
    rc = run(["generate", "--kind", "tournament", "--n", "10", "--seed", "5",
              "--out", str(tmp_path / "t.h3")])
    assert rc == 0
    out = tmp_path / "s.json"
    rc = run(["subset", "--input", str(tmp_path / "t.h3"), "--eta", "1/4",
              "--psi", "1,1", "--cylinder-eta", "1/100", "--seed", "2",
              "--output", str(out)])
    assert rc == 0
    data = load_report(out.read_text())
    validate_report(data)
    assert "bucket" in data["audit"]
    assert data["extra"]["vertices"]
    capsys.readouterr()


def test_oracle_check_subcommand(tmp_path, capsys):
    out = tmp_path / "oc.json"
    rc = run(["oracle-check", "--sizes", "3..6", "--cases", "20", "--seed", "7",
              "--output", str(out)])
    assert rc == 0
    data = load_report(out.read_text())
    assert data["audit"]["all_equal"] is True
    assert data["audit"]["mismatches"] == 0
    capsys.readouterr()


def test_generate_kinds_load_back(tmp_path, capsys):
    from regulab.core import (
        load_chain,
        load_graph,
        load_multipartite,
        load_partite_3graph,
        load_three_graph,
    )

    cases = [
        (["--kind", "vd", "--d", "2"], load_partite_3graph),
        (["--kind", "fd", "--d", "2"], load_multipartite),
        (["--kind", "link", "--parts", "4,4,4", "--seed", "1"], load_partite_3graph),
        (["--kind", "tournament", "--n", "8", "--seed", "1"], load_three_graph),
        (["--kind", "partite3", "--parts", "3,3,3", "--seed", "1"], load_partite_3graph),
        (["--kind", "bipartite", "--parts", "4,4", "--seed", "1"], load_multipartite),
        (["--kind", "graph", "--n", "8", "--seed", "1"], load_graph),
        (["--kind", "half", "--n", "6"], load_multipartite),
        (["--kind", "multipartite", "--parts", "3,3,3", "--seed", "1"], load_multipartite),
        (["--kind", "chain", "--parts", "3,3,3", "--seed", "1"], load_chain),
    ]
    for i, (flags, loader) in enumerate(cases):
        path = tmp_path / f"out{i}.txt"
        assert run(["generate"] + flags + ["--out", str(path)]) == 0
        loader(path.read_text())
    capsys.readouterr()


# The SHA-256 of generate's output for each seeded kind at seed 11, recorded
# before the generators drew in runs: the bulk draws must write the same
# files.  Densities 1/3, 5/7, 2/3 and 3/5 have denominators that are not
# powers of two; 0 and 1 are the ends of the threshold.
@pytest.mark.parametrize(
    "flags, digest",
    [
        pytest.param(
            ["--kind", "partite3", "--parts", "3,4,5", "--p", "1/3"],
            "e267286392939c4617d992bae16084c35801f935b426d9953d90ae2b4e991d93",
            id="partite3-3,4,5-1/3",
        ),
        pytest.param(
            ["--kind", "bipartite", "--parts", "7,9", "--p", "5/7"],
            "876f5e21950c9f956bbc31c71babafd554c7c65501bd1e568f580a4d2e902cea",
            id="bipartite-7,9-5/7",
        ),
        pytest.param(
            ["--kind", "graph", "--n", "12", "--p", "1/2"],
            "9d0e12ebe1c57f77b854782216947954398e648d7b181f0d8ebc856e6d86e24f",
            id="graph-12-1/2",
        ),
        pytest.param(
            ["--kind", "multipartite", "--parts", "3,4,2,5", "--p", "2/3"],
            "d7bca53d33bd3936b801288c26783cf48e96b0fcd17c7eae9170408cca2aa98a",
            id="multipartite-3,4,2,5-2/3",
        ),
        pytest.param(
            ["--kind", "chain", "--parts", "5,4,6", "--p", "3/5", "--q", "1/3"],
            "f8f0c3c37038bc8ddfb6c5d2b004102a131af5fb66ae0c3c987c9e5e68704584",
            id="chain-5,4,6-3/5-1/3",
        ),
        pytest.param(
            ["--kind", "tournament", "--n", "9"],
            "c330fbb6465aa2a83e02d8f55d597ae012ec686ccc626395ea45c3ab6db28e97",
            id="tournament-9",
        ),
        pytest.param(
            ["--kind", "link", "--parts", "4,5,3"],
            "e9a8c23570ab602dc07d7f14cb8b9a380129084691dbc6cbb0630a3d9f3773e8",
            id="link-4,5,3",
        ),
        pytest.param(
            ["--kind", "graph", "--n", "7", "--p", "0"],
            "3e036e401ef02ef2a0043530f6ae25bb4aa84b2182184a5c9ba870387b241418",
            id="graph-7-0",
        ),
        pytest.param(
            ["--kind", "partite3", "--parts", "2,3,2", "--p", "1"],
            "e6c298b43362d29ff20244620e2e16257ecc1b88622325d13287715bf17ebf70",
            id="partite3-2,3,2-1",
        ),
        pytest.param(
            ["--kind", "chain", "--parts", "3,3,3", "--p", "1", "--q", "1"],
            "18271f9d4f0e086e978946c565db78a67944e3c3840d9685614632d8822da80c",
            id="chain-3,3,3-1-1",
        ),
    ],
)
def test_generate_output_matches_its_pin(flags, digest, tmp_path):
    out = tmp_path / "g.txt"
    assert run(["generate", *flags, "--seed", "11", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("kind", ["half", "graph", "tournament"])
def test_generate_rejects_negative_n(kind, tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert run(["generate", "--kind", kind, "--n", "-3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--n" in err and not out.exists()


@pytest.mark.parametrize("kind", ["partite3", "bipartite", "graph", "multipartite", "chain"])
def test_generate_takes_p_zero_as_given(kind, tmp_path, capsys):
    """--p 0 draws no edge and no hyperedge; only an absent --p means 1/2."""
    out = tmp_path / "g.txt"
    assert run(["generate", "--kind", kind, "--n", "4", "--p", "0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines and not [line for line in lines if line.split()[0] in ("e", "t")]
    capsys.readouterr()


@pytest.mark.parametrize(
    "kind, flags, total",
    [
        ("tournament", ["--n", "4194305"], 4194305),
        ("graph", ["--n", "4194305"], 4194305),
        ("half", ["--n", "2097153"], 4194306),
        ("link", ["--parts", "4194303,1,1"], 4194305),
        ("partite3", ["--parts", "4194303,1,1"], 4194305),
        ("bipartite", ["--parts", "4194304,1"], 4194305),
        ("multipartite", ["--parts", "4194303,1,1"], 4194305),
        ("chain", ["--parts", "4194303,1,1"], 4194305),
        ("cone", ["--base", "{base}", "--apex", "4194289"], 4194305),
    ],
)
def test_generate_refuses_more_vertices_than_a_loader_reads(kind, flags, total, tmp_path, capsys):
    # The cap is checked before anything is drawn, so the refusal is quick.
    base = tmp_path / "base.mg"  # 16 vertices
    assert run(["generate", "--kind", "bipartite", "--parts", "8,8", "--out", str(base)]) == 0
    out = tmp_path / "g.txt"
    flags = [f.format(base=base) for f in flags]
    assert run(["generate", "--kind", kind, *flags, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"capacity: --kind {kind} would write {total} vertices; a file may declare at most 4194304\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, parts, line",
    [
        ("link", "2,2", "error: --parts needs 3 sizes for this kind, got 2"),
        ("link", "2,2,2,2", "error: --parts needs 3 sizes for this kind, got 4"),
        ("bipartite", "3", "error: --parts needs 2 sizes for this kind, got 1"),
        ("bipartite", "3,3,3", "error: --parts needs 2 sizes for this kind, got 3"),
    ],
)
def test_generate_rejects_a_wrong_count_of_sizes(kind, parts, line, tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert run(["generate", "--kind", kind, "--parts", parts, "--out", str(out)]) == 1
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["oracle-check", "--cases", "-5"], "--cases"),
        (["vc2", "--input", "{cone}", "--cap-d", "-1"], "--cap-d"),
        (["vc2", "--input", "{cone}", "--cap-n", "-1"], "--cap-n"),
        (["decompose", "--input", "{cone}", "--eta", "1/4", "--psi", "1,1", "--t", "-2"], "--t"),
        (["decompose", "--input", "{cone}", "--eta", "1/4", "--psi", "1,1", "--t", "0"], "--t"),
        (["subset", "--input", "{cone}", "--eta", "1/4", "--psi", "1,1", "--t", "-3"], "--t"),
        (["cylinder", "--input", "{cone}", "--eta", "1/4", "--psi", "1,1",
          "--audit-tuple-cap", "-1"], "audit_tuple_cap"),
        pytest.param(
            ["cylinder", "--input", "{cone}", "--eta", "1/4", "--psi", "1,1",
             "--audit-tuple-cap", "1", "--audit-samples", "10"],
            "unrecognized arguments: --audit-samples", id="audit-samples-removed",
        ),
        (["decompose", "--input", "{cone}", "--eta", "1/4", "--psi", "1,1",
          "--edge-part-cap", "0"], "edge_part_cap"),
        (["subset", "--input", "{cone}", "--eta", "1/4", "--psi", "1,1",
          "--witness-cap", "-1"], "witness_cap"),
        (["decompose", "--input", "{tournament}", "--eta", "1/4", "--psi", "1,1",
          "--cylinder-eta", "0"], "cylinder_eta must lie in (0, 1]"),
        (["decompose", "--input", "{tournament}", "--eta", "1/4", "--psi", "1,1",
          "--cylinder-eta", "5"], "cylinder_eta must lie in (0, 1]"),
        (["decompose", "--input", "{tournament}", "--eta", "1/4", "--psi", "1,1",
          "--szemeredi-alpha", "0"], "szemeredi_alpha must lie in (0, 1]"),
        (["decompose", "--input", "{tournament}", "--eta", "1/4", "--psi", "1,1",
          "--sparse-density", "-1"], "sparse_density must lie in [0, 1]"),
        pytest.param(
            ["decompose", "--input", "{tournament}", "--eta", "1/4", "--psi", "1,1", "--t", "2"],
            "t must lie in [3, 10], got 2", id="decompose-t-2",
        ),
        pytest.param(
            ["decompose", "--input", "{tournament}", "--eta", "1/4", "--psi", "1,1", "--t", "99"],
            "t must lie in [3, 10], got 99", id="decompose-t-99",
        ),
        pytest.param(
            ["subset", "--input", "{cone}", "--eta", "1/4", "--psi", "1,1", "--t", "2"],
            "t must lie in [3, 18], got 2", id="subset-t-2",
        ),
        pytest.param(
            ["decompose", "--input", "{graph}", "--eps", "1/4", "--t", "11"],
            "t must lie in [2, 10], got 11", id="graph-t-11",
        ),
        pytest.param(
            ["decompose", "--input", "{tournament}", "--eta", "0", "--psi", "1,1"],
            "eta must lie in (0, 1]", id="decompose-eta-0",
        ),
        pytest.param(
            ["decompose", "--input", "{tournament}", "--eta=-1/2", "--psi", "1,1"],
            "eta must lie in (0, 1]", id="decompose-eta-negative",
        ),
        pytest.param(
            ["decompose", "--input", "{tournament}", "--eta", "3/2", "--psi", "1,1"],
            "eta must lie in (0, 1]", id="decompose-eta-above-one",
        ),
        pytest.param(
            ["subset", "--input", "{tournament}", "--eta", "2", "--psi", "1,1"],
            "eta must lie in (0, 1]", id="subset-eta-2",
        ),
        pytest.param(
            ["subset", "--input", "{tournament}", "--pattern", "{pattern}", "--eps", "1"],
            "eps must lie in (0, 1)", id="rodl-eps-1",
        ),
        pytest.param(
            ["decompose", "--input", "{cone}", "--eta", "1/4", "--psi", "1,1", "--seed", "42"],
            "unrecognized arguments: --seed", id="decompose-seed-removed",
        ),
        pytest.param(
            ["cylinder", "--input", "{cone}", "--eta", "1/4", "--psi", "1,1", "--seed", "1"],
            "unrecognized arguments: --seed", id="cylinder-seed-removed",
        ),
    ],
)
def test_meaningless_values_exit_one(argv, flag, cone_file, tmp_path, capsys):
    files = {"cone": cone_file, "pattern": tmp_path / "pattern.txt"}
    files["pattern"].write_text("part V 4\nt 0 1 2\n")
    for kind in ("tournament", "graph"):
        files[kind] = tmp_path / f"{kind}.txt"
        assert run(["generate", "--kind", kind, "--n", "10", "--seed", "1",
                    "--out", str(files[kind])]) == 0
    out = tmp_path / "r.json"
    argv = [a.format(**files) for a in argv] + ["--output", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert flag in err and not out.exists()


# Exit code and stderr line on malformed files, as recorded before the
# file's kind came from the loader's own scan.  The two-part file's kind
# error wins over its bad line, and in ``kind_after_bad`` the t-line after
# the bad line still makes the file a 3-graph.
MALFORMED = {
    "one_part": "part V 5\ne 0 1\ne 1 2\nbogus 3\ne 2 3\n",
    "two_parts": "part A 3\npart B 3\ne 0 3\nzzz\ne 1 4\n",
    "three_parts": "part A 2\npart B 2\npart C 2\nt 0 2 4\nt 1 3\n",
    "chain": "part A 2\npart B 2\npart C 2\ne 0 2\ne 0 4\ne 2 4\nt 0 2 4\nt 1 3 x\n",
    "kind_after_bad": "part V 3\nbogus\nt 0 1 2\n",
    "range": "part V 4\ne 0 1\ne 0 9\ne 2 2\n",
    "loop": "part V 4\ne 0 1\ne 2 2\ne 0 9\n",
    "huge": "part V 3\ne 0 99999999999999999999999\n",
    "no_parts": "# nothing\n\n",
    "late_part": "part V 4\ne 0 1\npart W 2\n",
    "duplicate": "part A 2\npart A 3\nt 0 1 2\n",
    "two_part_chain": "part A 2\npart B 2\ne 0 2\nt 0 1 2\n",
    "within_part": "part A 2\npart B 2\ne 0 2\ne 0 1\n",
    "off_triangle": "part A 2\npart B 2\npart C 2\ne 0 2\ne 0 4\ne 2 4\nt 0 2 4\nt 1 3 5\n",
    "chain_range": "part A 2\npart B 2\npart C 2\ne 0 2\ne 0 4\ne 2 4\nt 0 2 4\nt 1 3 9\n",
    "not_crossing": "part A 2\npart B 2\npart C 2\nt 0 2 4\nt 0 1 4\n",
    "repeat": "part V 5\nt 0 1 2\nt 3 3 4\n",
    # Partite 3-graphs whose bad t-line the hyperedge placement refuses:
    # negative ids (the line loop reads them; -9 reads part A if wrapped),
    # an id past 63 bits, a triple within a part and a repeated vertex.
    "negative": "part A 3\npart B 3\npart C 3\nt 0 3 6\nt -1 3 6\n",
    "negative_wrap": "part A 3\npart B 3\npart C 3\nt 0 3 6\nt -9 3 6\n",
    "past_63_bits": "part A 3\npart B 3\npart C 3\nt 0 3 6\nt 1 4 9223372036854775808\n",
    "within_part_triple": "part A 3\npart B 3\npart C 3\nt 0 3 6\nt 0 1 6\n",
    "repeat_partite": "part A 3\npart B 3\npart C 3\nt 0 3 6\nt 3 3 6\n",
}
DECOMPOSE_GRAPH = ("decompose", "--eps", "1/4")
DECOMPOSE_3 = ("decompose", "--eta", "1/4", "--psi", "1,1")
CYLINDER = ("cylinder", "--eta", "1/4", "--psi", "1,1")
ANALYZE = ("analyze", "--mode", "both")
KIND_ERROR = "error: decompose expects a 3-graph or a single-part graph file"
NOT_PARTITE = "error: cylinder expects a partite 3-graph file"


@pytest.mark.parametrize(
    "name,argv,line",
    [
        ("one_part", DECOMPOSE_GRAPH, "error: line 4: unknown directive 'bogus'"),
        ("one_part", ("decompose",), "error: decompose on a graph needs --eps"),
        ("one_part", CYLINDER, NOT_PARTITE),
        ("one_part", ANALYZE, "error: line 4: unknown directive 'bogus'"),
        ("two_parts", DECOMPOSE_GRAPH, KIND_ERROR),
        ("two_parts", CYLINDER, NOT_PARTITE),
        ("two_parts", ANALYZE, "error: line 4: unknown directive 'zzz'"),
        ("three_parts", DECOMPOSE_3, "error: line 5: expected 3 vertex ids after 't'"),
        ("three_parts", DECOMPOSE_3[:3], "error: decompose on a 3-graph needs --eta and --psi"),
        ("three_parts", CYLINDER, "error: line 5: expected 3 vertex ids after 't'"),
        ("three_parts", ANALYZE,
         "error: analyze expects a chain or graph file, got a bare 3-graph"),
        ("chain", DECOMPOSE_GRAPH, KIND_ERROR),
        ("chain", CYLINDER, NOT_PARTITE),
        ("chain", ANALYZE, "error: line 8: vertex ids must be integers"),
        ("kind_after_bad", DECOMPOSE_3, "error: line 2: unknown directive 'bogus'"),
        ("kind_after_bad", DECOMPOSE_GRAPH, "error: decompose on a 3-graph needs --eta and --psi"),
        ("kind_after_bad", CYLINDER, "error: line 2: unknown directive 'bogus'"),
        ("kind_after_bad", ANALYZE,
         "error: analyze expects a chain or graph file, got a bare 3-graph"),
        ("range", DECOMPOSE_GRAPH, "error: line 3: vertex id 9 out of range (total 4)"),
        ("range", ANALYZE, "error: line 3: vertex id 9 out of range (total 4)"),
        ("loop", DECOMPOSE_GRAPH, "error: line 3: loop at vertex 2"),
        ("loop", ANALYZE, "error: line 3: loop at vertex 2"),
        ("huge", DECOMPOSE_GRAPH,
         "error: line 2: vertex id 99999999999999999999999 out of range (total 3)"),
        ("no_parts", DECOMPOSE_GRAPH, "error: line 1: no part declarations"),
        ("no_parts", CYLINDER, NOT_PARTITE),
        ("no_parts", ANALYZE, "error: line 1: no part declarations"),
        ("late_part", DECOMPOSE_GRAPH, KIND_ERROR),
        ("late_part", ANALYZE, "error: line 3: part declared after edges"),
        ("duplicate", CYLINDER, "error: line 2: duplicate part name 'A'"),
        ("duplicate", DECOMPOSE_3, "error: line 2: duplicate part name 'A'"),
        # Argument errors win over a bad line in every subcommand.
        ("three_parts", ("cylinder", "--eta", "foo", "--psi", "1,1"),
         "error: cannot parse rational 'foo'"),
        ("three_parts", ("cylinder", "--eta", "1/4", "--psi", "1,0"),
         "error: cannot parse rate function '1,0': exponent must be a positive integer"),
        ("three_parts", (*CYLINDER, "--profile", "paper", "--max-steps", "3"),
         "error: profile overrides are only valid under the desk profile"),
        ("kind_after_bad", ("subset", "--eta", "foo", "--psi", "1,1"),
         "error: cannot parse rational 'foo'"),
        ("kind_after_bad", ("subset", "--eta", "1/4"), "error: subset needs --eta and --psi"),
        ("kind_after_bad", ("subset", "--pattern", "missing.h3"), "error: rodl mode needs --eps"),
        ("kind_after_bad", ("subset", "--pattern", "missing.h3", "--eps", "1/0"),
         "error: cannot parse rational '1/0'"),
        ("kind_after_bad", ("subset", "--eta", "1/4", "--psi", "1,1", "--profile", "nope"),
         "error: unknown profile 'nope'"),
        ("one_part", (*ANALYZE, "--beta", "foo"), "error: cannot parse rational 'foo'"),
        ("two_part_chain", ANALYZE, "error: line 1: chain file needs exactly three parts"),
        ("within_part", ANALYZE, "error: line 4: edge (0,1) lies within part A"),
        ("off_triangle", ANALYZE, "error: line 8: triple (1,3,5) is not on a triangle"),
        ("chain_range", ANALYZE, "error: line 8: vertex id 9 out of range (total 6)"),
        ("not_crossing", CYLINDER, "error: line 5: triple (0, 1, 4) does not cross three parts"),
        ("repeat", DECOMPOSE_3, "error: line 3: triple (3, 3, 4) repeats a vertex"),
        ("negative", CYLINDER, "error: line 5: vertex id -1 out of range (total 9)"),
        ("negative_wrap", CYLINDER, "error: line 5: vertex id -9 out of range (total 9)"),
        ("past_63_bits", CYLINDER,
         "error: line 5: vertex id 9223372036854775808 out of range (total 9)"),
        ("within_part_triple", CYLINDER,
         "error: line 5: triple (0, 1, 6) does not cross three parts"),
        ("repeat_partite", CYLINDER, "error: line 5: triple (3, 3, 6) repeats a vertex"),
    ],
)
def test_malformed_files_exit_one_with_the_recorded_line(name, argv, line, tmp_path, capsys):
    path = tmp_path / f"{name}.txt"
    path.write_text(MALFORMED[name])
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert run([argv[0], "--input", str(path), *argv[1:], "--output", str(out)]) == 1
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text,argv,total",
    [
        ("part V 1000000000000000\ne 0 1\n", DECOMPOSE_GRAPH, 10**15),
        ("part V 1000000000000000\nt 0 1 2\n", DECOMPOSE_3, 10**15),
        ("part A 1\npart B 1\npart C 1000000000000000\nt 0 1 2\n", CYLINDER, 10**15 + 2),
    ],
)
def test_a_file_that_declares_too_many_vertices_exits_three(text, argv, total, tmp_path, capsys):
    # Loaders build tables with one entry per declared vertex, so the
    # declared total is capped before any of them is built.
    path = tmp_path / "huge.txt"
    path.write_text(text)
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert run([argv[0], "--input", str(path), *argv[1:], "--output", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"capacity: the parts declare {total} vertices; a file may declare at most 4194304\n"
    )
    assert not out.exists()


def test_decompose_refuses_the_paper_profile_on_a_graph(tmp_path, capsys):
    # The graph pipeline evaluates no schedule, so a paper run would use the
    # desk constants under the paper's name.
    g = tmp_path / "g.txt"
    assert run(["generate", "--kind", "graph", "--n", "12", "--seed", "3", "--out", str(g)]) == 0
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert run(["decompose", "--input", str(g), "--eps", "1/8", "--profile", "paper",
                "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: the paper profile's literal schedules exist only for the 3-graph engines\n"
    )
    assert not out.exists()


def test_decompose_reregularizes_the_cylinders_of_a_tournament(tmp_path):
    # At n = 15, seed 1, the hyper stage splits cylinders once through
    # _reregularize_cylinders.  The digest, over the fields the benchmark
    # pins, was recorded while each edge cell reached dlr padded to a whole
    # t-partite graph.
    h = tmp_path / "t15.h3"
    assert run(["generate", "--kind", "tournament", "--n", "15", "--seed", "1",
                "--out", str(h)]) == 0
    out = tmp_path / "r.json"
    assert run(["decompose", "--input", str(h), "--eta", "1/4", "--psi", "1,1",
                "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert any(row["stage"] == "hyper" and row["action"] == "split-cylinders"
               for row in report["trace"])
    body = json.dumps({k: report[k] for k in ("audit", "trace", "part_counts")},
                      sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "0767ddc41826ce953f8ba79679bfd09b81a17a8dbcad59e8dfc994cb8684b462"
    )


def test_decompose_splits_cylinders_when_no_useful_chain_has_a_candidate(tmp_path, capsys):
    # At n = 15, seed 29, the second hyper step finds no useful chain, so
    # it re-regularizes the cylinders instead of exiting 3.
    h = tmp_path / "t15.h3"
    assert run(["generate", "--kind", "tournament", "--n", "15", "--seed", "29",
                "--out", str(h)]) == 0
    out = tmp_path / "r.json"
    assert run(["decompose", "--input", str(h), "--eta", "1/4", "--psi", "1,1",
                "--output", str(out)]) == 0
    report = load_report(out.read_text())
    assert report["audit"]["passes"] is True
    assert [(row["stage"], row["action"]) for row in report["trace"]] == [
        ("hyper", "refine-edges"), ("hyper", "split-cylinders"), ("hyper", "accept"),
        ("pairs", "accept"),
    ]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "n, alpha, extra, code, err",
    [
        (20, "1/40", [], 3, "capacity: same-part mass exceeds the budget even at singletons\n"),
        (20, "1/40", ["--max-steps", "2"], 3,
         "capacity: same-part mass exceeds the budget even at singletons\n"),
        (16, "1/8", [], 0, ""),
    ],
)
def test_decompose_refuses_an_alpha_that_singletons_cannot_meet_before_the_hyper_stage(
    n, alpha, extra, code, err, tmp_path, monkeypatch, capsys
):
    # Same-part mass is at least 1/n, with equality only at singletons, so
    # with alpha/2 < 1/n the pair stage can only end in the singleton line:
    # it is given before the hyper stage runs.  At alpha/2 = 1/n
    # singletons meet the budget and the pipeline runs.
    from regulab import engines

    calls = []
    hyper = engines.hyper_cylinder_regularity

    def counted(*args, **kwargs):
        calls.append(args)
        return hyper(*args, **kwargs)

    monkeypatch.setattr(engines, "hyper_cylinder_regularity", counted)
    h = tmp_path / "t.h3"
    assert run(["generate", "--kind", "tournament", "--n", str(n), "--seed", "1",
                "--out", str(h)]) == 0
    out = tmp_path / "r.json"
    assert run(["decompose", "--input", str(h), "--eta", "1/4", "--psi", "1,1",
                "--szemeredi-alpha", alpha, "--output", str(out)] + extra) == code
    assert capsys.readouterr().err == err
    assert out.exists() == (code == 0)
    assert len(calls) == (code == 0)


def test_analyze_multipartite_reports_the_largest_pair_value(tmp_path, capsys):
    g = tmp_path / "g.mg"
    assert run(["generate", "--kind", "multipartite", "--parts", "3,4,3", "--p", "1/2",
                "--seed", "5", "--out", str(g)]) == 0
    out = tmp_path / "r.json"
    assert run(["analyze", "--input", str(g), "--mode", "both", "--output", str(out)]) == 0
    audit = load_report(out.read_text())["audit"]
    assert audit["kind"] == "multipartite"
    assert set(audit["fast"]) == set(audit["naive"]) == {"0,1", "0,2", "1,2"}
    values = [Fraction(cert["value"]) for cert in audit["fast"].values()]
    assert [Fraction(cert["value"]) for cert in audit["naive"].values()] == values
    assert len(set(values)) > 1
    assert Fraction(audit["max_pair_value"]) == max(values)
    capsys.readouterr()


def test_a_failed_engine_invariant_exits_three_with_one_line(cone_file, monkeypatch, capsys):
    # q is re-measured after every refinement and must not fall; a q that
    # does is the engine's own fault, reported like a capacity stop.
    from dataclasses import replace

    from regulab import engines

    falling = iter(Fraction(1, k) for k in range(1, 100))
    real = engines.survey_partition
    monkeypatch.setattr(
        engines, "survey_partition", lambda *args: replace(real(*args), q=next(falling))
    )
    assert run(["decompose", "--input", str(cone_file), "--eta", "1/4", "--psi", "1,1"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "invariant violated: q decreased across an edge refinement\n"
    assert captured.out == ""


def test_a_q_that_falls_across_a_cylinder_split_exits_three(tmp_path, monkeypatch, capsys):
    # The n = 15, seed 29 tournament refines edges, then splits cylinders
    # (test_decompose_splits_cylinders_when_no_useful_chain_has_a_candidate).
    # Here q reads -1 once there is more than one cylinder, so the edge step
    # keeps its true gain and only the split lowers q.
    from dataclasses import replace

    from regulab import engines

    real = engines.survey_partition

    def survey(h, p, *args):
        got = real(h, p, *args)
        return got if p.vertex_count == 1 else replace(got, q=Fraction(-1))

    monkeypatch.setattr(engines, "survey_partition", survey)
    h = tmp_path / "t15.h3"
    assert run(["generate", "--kind", "tournament", "--n", "15", "--seed", "29",
                "--out", str(h)]) == 0
    assert run(["decompose", "--input", str(h), "--eta", "1/4", "--psi", "1,1"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "invariant violated: q decreased across a cylinder split\n"
    assert captured.out == ""


# Inputs of the pinned invocations below, each made by ``generate`` at a
# fixed seed; the cone's base is the two-part file "base".
PINNED_INPUTS = {
    "chain": ("--kind", "chain", "--parts", "4,4,4", "--seed", "9"),
    "multipartite": ("--kind", "multipartite", "--parts", "3,4,3", "--p", "1/2", "--seed", "5"),
    "graph12": ("--kind", "graph", "--n", "12", "--seed", "3"),
    "graph30": ("--kind", "graph", "--n", "30", "--seed", "2"),
    "t10": ("--kind", "tournament", "--n", "10", "--seed", "5"),
    "t14": ("--kind", "tournament", "--n", "14", "--seed", "1"),
    "t16": ("--kind", "tournament", "--n", "16", "--seed", "0"),
    "base": ("--kind", "bipartite", "--parts", "6,6", "--p", "1/2", "--seed", "3"),
    "cone": ("--kind", "cone", "--base", "{base}", "--apex", "6"),
    "partite3": ("--kind", "partite3", "--parts", "8,8,8"),
    "link": ("--kind", "link", "--parts", "6,6,6"),
    "pattern": ("--kind", "tournament", "--n", "4", "--seed", "0"),
}

# Inputs given as file text: the 2x48 half graph (i ~ 48 + j iff i <= j) as
# one part, which ``decompose`` reads as a graph.
PINNED_TEXTS = {
    "half48": "part V 96\n" + "".join(f"e {i} {48 + j}\n" for i in range(48) for j in range(i, 48)),
}


@pytest.fixture(scope="module")
def pinned_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    files = {}
    for name, flags in PINNED_INPUTS.items():
        files[name] = str(root / name)
        flags = [f.format(**files) for f in flags]
        assert run(["generate", *flags, "--out", files[name]]) == 0
    for name, text in PINNED_TEXTS.items():
        files[name] = str(root / name)
        (root / name).write_text(text)
    return files


# The SHA-256 of each report's text with its runtime_ms set to 0, with the
# exit code and stderr of the run; None where no report is written.  A
# change that alters a report on purpose re-pins it: run the case, take the
# digest of the scrubbed text the way the test does, replace the pin here
# and say in CHANGES.md why that report changed.
@pytest.mark.parametrize(
    "argv, code, err, digest",
    [
        pytest.param(
            ["analyze", "--input", "{chain}", "--mode", "both"], 0, "",
            "817176ddd798294317ea69f3ddccf9468b2dd4d80166360cd893cc60fde9ffa7",
            id="analyze-chain",
        ),
        pytest.param(
            ["analyze", "--input", "{multipartite}", "--mode", "both", "--beta", "1"], 0, "",
            "9404579264d67d551435d8e360d79fc4698c64ceb8c0fab2706de5059df94b90",
            id="analyze-multipartite",
        ),
        pytest.param(
            ["analyze", "--input", "{graph12}", "--mode", "both"], 0, "",
            "5aa1e17ce788da8872ae87ec6804ff5ac0e7804e52d3f5e216d4e2d1dbb0d84a",
            id="analyze-single-part-graph",
        ),
        pytest.param(
            ["analyze", "--input", "{chain}", "--beta", "1/1000"], 2, "",
            "f04710c9123df2ab0d9c37819fcb4429b62b23a29b6e8936d8d6e7080ca9524f",
            id="analyze-beta-fails",
        ),
        pytest.param(
            ["decompose", "--input", "{t14}", "--eta", "1/4", "--psi", "1,1"], 0, "",
            "e02e57ac2d39481984705e7af499d891385645994af2b37372503d2cd1d0541a",
            id="decompose-t14",
        ),
        pytest.param(
            ["decompose", "--input", "{t16}", "--eta", "1/4", "--psi", "1,1"], 0, "",
            "cc8c238e7e5ea8a999235feb1dd645b5c0dd73a2f6933c8a5c71ba85d845960a",
            id="decompose-t16",
        ),
        pytest.param(
            ["decompose", "--input", "{cone}", "--eta", "1/4", "--psi", "1,1", "--t", "3",
             "--audit-tuple-cap", "10"], 0, "",
            "33d41c13969f9b1b9b522d5a342694672107974af0227cfae55032169d9423a6",
            id="decompose-cone",
        ),
        pytest.param(
            ["decompose", "--input", "{graph30}", "--eps", "1/5"], 2, "",
            "7b375e4bc1c3cd24d007694aff56ca1fc35c54d9f108ae09daa5b8d0e260b61f",
            id="decompose-graph-fails",
        ),
        pytest.param(
            ["decompose", "--input", "{half48}", "--eps", "1/8"], 0, "",
            "f52c0a5c80523aea711be0adc8e7789956b85351b0384150ca2fe47d20d792d6",
            id="decompose-half-2x48",
        ),
        pytest.param(
            ["cylinder", "--input", "{partite3}", "--eta", "1/4", "--psi", "1,1"], 0, "",
            "6b04dbc6ced740443b17e411e138020d33cb24600dcf91c7169e181d5fe89276",
            id="cylinder-partite3",
        ),
        pytest.param(
            ["cylinder", "--input", "{cone}", "--eta", "1/4", "--psi", "1,1",
             "--audit-tuple-cap", "10"], 0, "",
            "2882204a57f474d0978a6d7685476ec26a3b71e2ae39a5d03024f7e08eb007ae",
            id="cylinder-bounded",
        ),
        pytest.param(
            ["cylinder", "--input", "{link}", "--eta", "1/100", "--psi", "1,1"], 0, "",
            "dd8b5dea3a3121124d834ba8b62703055832f6cd33ba8033c0677dbb069dbe96",
            id="cylinder-link",
        ),
        pytest.param(
            ["subset", "--input", "{t10}", "--eta", "1/4", "--psi", "1,1", "--seed", "2"], 0, "",
            "2a774bb307c59f1d947b30a4d0a0cb22656ea2e44accc23c812c2071f3cc588c",
            id="subset",
        ),
        pytest.param(
            ["subset", "--input", "{t10}", "--pattern", "{pattern}", "--eps", "1/8"], 0, "",
            "95b2013a657e7a14ffbe5f8bdc9b73d40541de7d8f7a30135f843339dfa89d94",
            id="subset-pattern",
        ),
        pytest.param(
            ["oracle-check", "--sizes", "3..5", "--cases", "12", "--seed", "7"], 0, "",
            "5a0011c413b4d35277206ff15569605403d66a417d396ebf95f21095603c2d72",
            id="oracle-check",
        ),
        pytest.param(
            ["decompose", "--input", "{cone}", "--eta", "1/4", "--psi", "2**-100,28",
             "--profile", "paper"], 3,
            "refused: schedule constant edge_cap saturates at step 0; refusing to run\n", None,
            id="paper-profile-refusal",
        ),
        pytest.param(
            ["decompose", "--input", "{t16}", "--eta", "1/4", "--psi", "1,1",
             "--max-steps", "1"], 3,
            "capacity: tuple audit still failing at the step cap\n", None,
            id="decompose-step-cap",
        ),
    ],
)
def test_reports_match_their_pins(argv, code, err, digest, pinned_inputs, tmp_path, capsys):
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert run([a.format(**pinned_inputs) for a in argv] + ["--output", str(out)]) == code
    assert capsys.readouterr().err == err
    if digest is None:
        assert not out.exists()
        return
    scrubbed = re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', out.read_text())
    assert hashlib.sha256(scrubbed.encode()).hexdigest() == digest


def test_one_parser_serves_every_run_of_a_process(pinned_inputs, tmp_path, capsys):
    """``run`` builds its parser once per process: a usage error and then the
    same good argv twice give the exit codes, stderr lines and report bytes
    of runs on fresh parsers, and the good runs match the pin of
    ``cylinder-bounded`` above."""
    good = ["cylinder", "--input", pinned_inputs["cone"], "--eta", "1/4", "--psi", "1,1",
            "--audit-tuple-cap", "10"]
    bad = good + ["--bogus"]
    out = tmp_path / "r.json"

    def once(argv, fresh):
        if fresh:
            _build_parser.cache_clear()
        out.unlink(missing_ok=True)
        capsys.readouterr()
        code = run(argv + ["--output", str(out)])
        err = capsys.readouterr().err
        if not out.exists():
            return code, err, None
        scrubbed = re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', out.read_text())
        return code, err, hashlib.sha256(scrubbed.encode()).hexdigest()

    fresh = [once(bad, True), once(good, True)]
    cached = [once(bad, False), once(good, False), once(good, False)]
    assert cached == fresh + fresh[1:]
    assert fresh[0] == (1, "error: unrecognized arguments: --bogus\n", None)
    assert fresh[1] == (0, "", "2882204a57f474d0978a6d7685476ec26a3b71e2ae39a5d03024f7e08eb007ae")
    assert _build_parser.cache_info().misses == 1


def test_a_pattern_with_pair_edges_exits_one(tmp_path, capsys):
    h, pattern = tmp_path / "t.h3", tmp_path / "f.h3"
    assert run(["generate", "--kind", "tournament", "--n", "10", "--seed", "5",
                "--out", str(h)]) == 0
    pattern.write_text("part V 4\nt 0 1 2\ne 0 1\n")
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert run(["subset", "--input", str(h), "--pattern", str(pattern), "--eps", "1/8",
                "--output", str(out)]) == 1
    assert capsys.readouterr().err == "error: line 3: 3-graph file may not contain pair edges\n"
    assert not out.exists()


# Value pools of the argv smoke test: valid values, edge values and junk.
# "{name}" is one of the test's own tiny input files, "{out}" a writable
# report path and "{nowhere}" an unwritable one.
_RATIONALS = ("1/4", "1/2", "1", "2**-6", "0", "3/2", "x", "2**-15000")
_INTS = ("3", "1", "0", "-1")
_SEEDS = ("0", "1", "7", "-1")
_TS = ("3", "4", "2", "0")
_OUTS = ("{out}", "{out}", "{nowhere}")
_PSIS = ("1,1", "1/2,2", "2**-100,28", "1,0")
_PROFILE_FLAGS = {
    "--profile": ("desk", "paper", "nope"),
    "--q-gain": _RATIONALS,
    "--edge-part-cap": _INTS,
    "--max-steps": _INTS,
    "--witness-cap": _INTS,
    "--witness-search": ("auto", "exhaustive", "greedy"),
    "--cylinder-eta": _RATIONALS,
    "--szemeredi-alpha": _RATIONALS,
    "--sparse-density": _RATIONALS,
    "--audit-tuple-cap": _INTS,
}
_THREE = ("{tournament}", "{partite3}", "{tournament}", "{graph}", "{malformed}", "{missing}")
SMOKE_FLAGS = {
    "analyze": {"--input": ("{chain}", "{graph}", "{multipartite}", "{bipartite}", "{tournament}",
                            "{malformed}"),
                "--mode": ("fast", "naive", "both"), "--beta": _RATIONALS, "--output": _OUTS},
    "decompose": {"--input": _THREE, "--eta": _RATIONALS, "--psi": _PSIS, "--eps": _RATIONALS,
                  "--t": _TS, "--output": _OUTS},
    "cylinder": {"--input": ("{partite3}", "{tournament}", "{chain}", "{malformed}"),
                 "--eta": _RATIONALS, "--psi": _PSIS, "--output": _OUTS},
    "vc2": {"--input": _THREE, "--cap-d": _INTS, "--cap-n": ("6", *_INTS), "--output": _OUTS},
    "generate": {"--kind": ("vd", "fd", "cone", "link", "tournament", "partite3", "bipartite",
                            "graph", "half", "multipartite", "chain"),
                 "--d": _INTS, "--n": (*_INTS, "4194305"), "--apex": (*_INTS, "4194305"),
                 "--parts": ("2,2,2", "2,3", "0,1", "x", "4194304,1"),
                 "--p": _RATIONALS, "--q": _RATIONALS, "--seed": _SEEDS, "--out": _OUTS,
                 "--base": ("{bipartite}", "{multipartite}", "{tournament}", "{missing}")},
    "subset": {"--input": _THREE, "--eta": _RATIONALS, "--psi": _PSIS, "--s": ("3", "2", "1", "0"),
               "--t": _TS, "--pattern": _THREE, "--eps": _RATIONALS, "--seed": _SEEDS,
               "--output": _OUTS},
    "oracle-check": {"--sizes": ("1..3", "2..4", "3..2", "0..2", "x"), "--cases": _INTS,
                     "--seed": _SEEDS, "--output": _OUTS},
}


@st.composite
def _argvs(draw):
    """A subcommand with each of its flags present at odds 3:1 (7:1 for the
    flags an engine run needs) and, for an engine subcommand, up to two
    profile flags besides."""
    command = draw(st.sampled_from(sorted(SMOKE_FLAGS)))
    pools = dict(SMOKE_FLAGS[command])
    needed = ("--input", "--kind", "--eta", "--psi")
    odds = {flag: (True,) * (7 if flag in needed else 3) + (False,) for flag in pools}
    flags = [flag for flag in sorted(pools) if draw(st.sampled_from(odds[flag]))]
    if command in ("decompose", "cylinder", "subset"):
        pools |= _PROFILE_FLAGS
        flags += draw(st.lists(st.sampled_from(sorted(_PROFILE_FLAGS)), unique=True, max_size=2))
    argv = [command]
    for flag in flags:
        argv += [flag, draw(st.sampled_from(pools[flag]))]
    return argv


def test_any_argv_ends_in_an_exit_code_and_at_most_one_line(tmp_path, capsys):
    """Derandomized, so every run draws the same 300 argvs: each must end
    in exit 0-3 with at most one line on stderr, never an exception."""
    files = {"out": str(tmp_path / "out.txt"), "nowhere": str(tmp_path / "no" / "out.txt"),
             "missing": str(tmp_path / "missing.txt"), "malformed": str(tmp_path / "bad.txt")}
    (tmp_path / "bad.txt").write_text("part V 3\nbogus\nt 0 1 2\n")
    for kind, flags in {"tournament": ("--n", "6"), "partite3": ("--parts", "2,2,2"),
                        "chain": ("--parts", "2,2,2"), "graph": ("--n", "6"),
                        "bipartite": ("--parts", "3,3"), "multipartite": ("--parts", "2,2,2")}.items():
        files[kind] = str(tmp_path / kind)
        assert run(["generate", "--kind", kind, *flags, "--out", files[kind]]) == 0

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_argvs())
    def check(argv):
        capsys.readouterr()
        assert run([a.format(**files) for a in argv]) in (0, 1, 2, 3)
        assert capsys.readouterr().err.count("\n") <= 1

    check()


# Replacement tokens of the input-file fuzz test: ids in and out of range,
# junk, a 23-digit id and the directives themselves.
FUZZ_TOKENS = ("0", "1", "2", "5", "9", "-1", "x", "1.5", "9" * 23, "e", "t", "part", "#")
FUZZ_CHARS = ("0", "7", " ", "\t", "\n", "#", "-", "x")
# Each command that reads an input file, with the generated kinds it reads.
FUZZ_ARGVS = {
    ("analyze", "--mode", "both"): ("chain", "graph", "bipartite", "multipartite"),
    ("decompose", "--eps", "1/4", "--eta", "1/4", "--psi", "1,1"): ("tournament", "graph"),
    ("cylinder", "--eta", "1/4", "--psi", "1,1"): ("partite3",),
    ("vc2",): ("tournament", "partite3"),
    ("subset", "--eta", "1/4", "--psi", "1,1"): ("tournament", "partite3"),
}


@st.composite
def _fuzz_cases(draw, bases):
    """A command and one of the files it reads, with up to three mutations:
    a token replaced, a line dropped or a character changed."""
    argv = draw(st.sampled_from(sorted(FUZZ_ARGVS)))
    text = bases[draw(st.sampled_from(FUZZ_ARGVS[argv]))]
    for _ in range(draw(st.integers(0, 3))):
        op, at = draw(st.integers(0, 2)), draw(st.integers(0, 10**6))
        if op == 0:
            tokens = text.split(" ")
            tokens[at % len(tokens)] = draw(st.sampled_from(FUZZ_TOKENS))
            text = " ".join(tokens)
        elif op == 1:
            lines = text.splitlines(keepends=True)
            del lines[at % len(lines)]
            text = "".join(lines) or "\n"
        else:
            k = at % len(text)
            text = text[:k] + draw(st.sampled_from(FUZZ_CHARS)) + text[k + 1 :]
    return argv, text


def test_any_input_file_ends_in_an_exit_code_and_at_most_one_line(tmp_path, capsys):
    """Derandomized, so every run draws the same 300 cases: small generated
    files, and mutated copies, through each command that reads one.  Each
    must end in exit 0-3 with at most one line on stderr, never an
    exception."""
    bases = {}
    for kind, flags in {"tournament": ("--n", "6"), "partite3": ("--parts", "2,2,2"),
                        "chain": ("--parts", "2,2,2"), "graph": ("--n", "6"),
                        "bipartite": ("--parts", "3,3"), "multipartite": ("--parts", "2,2,2")}.items():
        path = tmp_path / kind
        assert run(["generate", "--kind", kind, *flags, "--seed", "1", "--out", str(path)]) == 0
        bases[kind] = path.read_text()
    path, out = tmp_path / "input.txt", str(tmp_path / "out.json")

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_fuzz_cases(bases))
    def check(case):
        argv, text = case
        path.write_text(text)
        capsys.readouterr()
        assert run([argv[0], "--input", str(path), *argv[1:], "--output", out]) in (0, 1, 2, 3)
        assert capsys.readouterr().err.count("\n") <= 1

    check()
