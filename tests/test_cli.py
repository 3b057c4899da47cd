"""Command line driver: exit codes, reports, determinism."""

import hashlib
import json
import re
from fractions import Fraction

import pytest

from regulab.cli import parse_rational, run
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


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run(["analyze", "--input", str(tmp_path / "missing.h3")]) == 1
    bad = tmp_path / "bad.g"
    bad.write_text("part A 2\ne 0 9\n")
    assert run(["analyze", "--input", str(bad)]) == 1
    assert run(["decompose", "--input", str(bad), "--eta", "x"]) == 1
    capsys.readouterr()


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
              "--psi", "1,1", "--t", "9", "--seed", "42", "--output", str(out)])
    assert rc == 0
    data = load_report(out.read_text())
    validate_report(data)
    assert data["audit"]["passes"] is True
    assert data["profile"]["name"] == "desk"
    assert data["audit"]["convention"] == "ordered-triples"
    capsys.readouterr()


def test_decompose_reports_are_stable(cone_file, tmp_path, capsys):
    args = ["decompose", "--input", str(cone_file), "--eta", "1/4",
            "--psi", "1,1", "--t", "9", "--seed", "42"]
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
        (["cylinder", "--input", "{cone}", "--eta", "1/4", "--psi", "1,1",
          "--audit-tuple-cap", "1", "--audit-samples", "0"], "audit_samples"),
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
    # At n = 15, seed 29, the second hyper step finds useful chains whose
    # edge deviations are constant within each pair, so no edge split
    # exists; the step re-regularizes the cylinders instead of exiting 3.
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
