"""End-to-end command line behavior: outputs, exit codes, determinism."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

import pytest
from hypothesis import given

import votebias.cli
from votebias import (
    borda,
    condorcet_loser,
    condorcet_winner,
    copeland,
    export_dot,
    fixture_profile,
    majority_graph,
    minimax_direct,
    profile_threshold,
    serialize_profile,
)
from votebias.cli import main

from conftest import profiles

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def profile_file(tmp_path):
    def write(fixture_id, name="profile.txt"):
        path = tmp_path / name
        path.write_text(serialize_profile(fixture_profile(fixture_id)) + "\n")
        return str(path)

    return write


class TestAudit:
    def test_human_table(self, capsys, profile_file):
        code, out, err = run(capsys, "audit", profile_file("tm2-5-4"))
        assert code == 0 and err == ""
        assert "5 voters over 4 alternatives" in out
        assert "mu(p)=3" in out and "mu(pr)=4" in out
        lines = [l for l in out.splitlines() if l.startswith("minimax")]
        assert lines and "[1]" in lines[0] and "[1, 2, 4]" in lines[0]
        assert ".  y  y" in lines[0]

    def test_json_with_graph_summaries(self, capsys, profile_file):
        code, out, err = run(
            capsys, "audit", profile_file("tm2-5-4"), "--json", "--mu", "3", "--mu", "4"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"record", "bias", "graphs"}
        assert payload["record"]["minimax"] == [1]
        assert payload["record"]["minimax_reversal"] == [1, 2, 4]
        assert [b["rule"] for b in payload["bias"]] == ["minimax", "borda", "copeland"]
        mm = payload["bias"][0]
        assert (mm["type1"], mm["type2"], mm["type3"]) == (False, True, True)
        assert set(payload["graphs"]) == {"3", "4"}
        for mu in ("3", "4"):
            for side in ("profile", "reversal"):
                entry = payload["graphs"][mu][side]
                assert "arcs" in entry and "maximal" in entry and "acyclic" in entry

    def test_stdin_dash(self, capsys, monkeypatch):
        text = serialize_profile(fixture_profile("tm3-4-4"))
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "audit", "-", "--json")
        assert code == 0
        assert json.loads(out)["record"]["minimax"] == [1, 2, 4]

    def test_rule_subset(self, capsys, profile_file):
        code, out, _ = run(
            capsys, "audit", profile_file("confronto1-3-3"), "--rules", "borda", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert [b["rule"] for b in payload["bias"]] == ["borda"]
        assert payload["bias"][0]["selection_p"] == [1, 2]

    def test_unknown_rule(self, capsys, profile_file):
        code, out, err = run(capsys, "audit", profile_file("tm2-5-4"), "--rules", "veto")
        assert code == 1 and out == ""
        assert "unknown rule" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "audit", "/nonexistent/profile.txt")
        assert code == 1
        assert "cannot read" in err

    def test_parse_error_names_the_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n2 x\n")
        code, _, err = run(capsys, "audit", str(bad))
        assert code == 1
        assert str(bad) in err and "row 2, column 2" in err

    def test_non_ascii_file_is_an_input_error(self, capsys, tmp_path):
        bad = tmp_path / "latin.txt"
        bad.write_bytes(b"1 2\n2 \xc3\n")
        code, out, err = run(capsys, "audit", str(bad))
        assert code == 1 and out == ""
        assert err.startswith("votebias: error:") and "0xc3" in err

    def test_undecodable_stdin_is_an_input_error(self, capsys, monkeypatch):
        raw = io.TextIOWrapper(io.BytesIO(b"1 2\n2 \xc3\n"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", raw)
        code, out, err = run(capsys, "audit", "-")
        assert code == 1 and out == ""
        assert err.startswith("votebias: error: -:") and "0xc3" in err

    @given(profiles(max_h=5, max_n=4))
    def test_record_is_consistent(self, p):
        stdout = io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(serialize_profile(p))
        try:
            with contextlib.redirect_stdout(stdout):
                assert main(["audit", "-", "--json", "--rules", "borda"]) == 0
        finally:
            sys.stdin = stdin
        rec = json.loads(stdout.getvalue())["record"]
        assert rec["profile"] == serialize_profile(p)
        assert rec["h"] == p.h and rec["n"] == p.n
        assert rec["minimax"] == sorted(minimax_direct(p))
        assert rec["minimax_reversal"] == sorted(minimax_direct(p.reverse()))
        assert rec["borda"] == sorted(borda(p))
        assert rec["copeland"] == sorted(copeland(p))
        assert rec["mu_p"] == profile_threshold(p)
        assert rec["mu_pr"] == profile_threshold(p.reverse())
        assert rec["condorcet_winner"] == condorcet_winner(p)
        assert rec["condorcet_loser"] == condorcet_loser(p)

    def test_bad_mu(self, capsys, profile_file):
        code, _, err = run(capsys, "audit", profile_file("tm2-5-4"), "--mu", "2")
        assert code == 1
        assert "mu=2" in err


class TestGraph:
    def test_defaults_to_profile_threshold(self, capsys, profile_file):
        code, out, _ = run(capsys, "graph", profile_file("tm2-5-4"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mu"] == 3
        assert payload["reversed"] is False
        assert payload["dominant"] == [1]
        assert payload["dominant"] == payload["analysis"]["maximal"]

    def test_reverse_transposes_arcs(self, capsys, profile_file):
        path = profile_file("tm3-4-4")
        _, fwd_out, _ = run(capsys, "graph", path, "--json", "--mu", "3")
        _, rev_out, _ = run(capsys, "graph", path, "--json", "--mu", "3", "--reverse")
        fwd, rev = json.loads(fwd_out), json.loads(rev_out)
        assert rev["reversed"] is True
        assert sorted(map(tuple, rev["arcs"])) == sorted(
            (y, x) for x, y in map(tuple, fwd["arcs"])
        )

    def test_dot_output_matches_library(self, capsys, profile_file, tmp_path):
        dot_path = tmp_path / "graph.dot"
        code, out, _ = run(
            capsys, "graph", profile_file("tm2-5-4"), "--mu", "3", "--dot", str(dot_path)
        )
        assert code == 0
        assert f"dot file written to {dot_path}" in out
        expected = export_dot(majority_graph(fixture_profile("tm2-5-4"), 3))
        assert dot_path.read_text() == expected

    def test_human_output(self, capsys, profile_file):
        code, out, _ = run(capsys, "graph", profile_file("tm2-5-4"), "--mu", "4")
        assert code == 0
        assert "majority graph of the profile at mu=4" in out
        assert "dominant set:" in out


class TestVerify:
    def test_small_grid_is_fully_consistent(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--h", "2..3", "--n", "2..3", "--j", "1,2,3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"] == {
            "cells": 12,
            "consistent": 12,
            "contradicted": 0,
            "inconclusive": 0,
        }
        for cell in payload["cells"]:
            assert cell["method"] == "exhaustive"
            assert cell["consistent"] is True
            assert cell["examined"] == cell["space"]
            if cell["outcome"] == "witness-found":
                assert cell["hits"] > 0 and cell["witness"]["j"] == cell["j"]
            else:
                assert cell["outcome"] == "certified-immune" and cell["hits"] == 0

    def test_cells_are_sorted(self, capsys):
        _, out, _ = run(capsys, "verify", "--h", "3,2", "--n", "3,2", "--json")
        cells = json.loads(out)["cells"]
        keys = [(c["h"], c["n"], c["j"]) for c in cells]
        assert keys == sorted(keys)

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--h", "2", "--n", "3", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "h,n,j,expected_immune,method,outcome,examined,space,hits,consistent"
        assert len(lines) == 4
        for line in lines[1:]:
            assert line.endswith("True")

    def test_human_table(self, capsys):
        code, out, _ = run(capsys, "verify", "--h", "2", "--n", "2")
        assert code == 0
        assert "expected" in out and "verdict" in out
        assert "cells: 3  consistent: 3  contradicted: 0  inconclusive: 0" in out
        assert "CONTRADICTION" not in out

    def test_sampled_cannot_decide_immunity(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--h", "5", "--n", "5", "--j", "1",
            "--strategy", "sampled", "--budget", "25", "--json",
        )
        assert code == 3
        payload = json.loads(out)
        cell = payload["cells"][0]
        assert cell["outcome"] == "inconclusive"
        assert cell["consistent"] is None
        assert payload["summary"]["inconclusive"] == 1

    def test_exhaustive_over_budget_is_refused(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--h", "5", "--n", "5", "--j", "1",
            "--strategy", "exhaustive", "--budget", "1000", "--json",
        )
        assert code == 3
        cell = json.loads(out)["cells"][0]
        assert cell["outcome"] == "inconclusive"
        assert "over budget 1000" in cell["note"]

    def test_constructive_strategy(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--h", "8", "--n", "5", "--j", "1",
            "--strategy", "constructive", "--json",
        )
        assert code == 0
        cell = json.loads(out)["cells"][0]
        assert cell["method"] == "constructive"
        assert cell["outcome"] == "witness-found"
        assert cell["consistent"] is True
        assert cell["witness"]["h"] == 8 and cell["witness"]["n"] == 5

    def test_auto_engages_the_neutrality_cut(self, capsys):
        code, out, _ = run(capsys, "verify", "--h", "2", "--n", "7", "--j", "3", "--json")
        assert code == 0
        cell = json.loads(out)["cells"][0]
        assert cell["method"] == "exhaustive"
        assert cell["examined"] == 5040
        assert "neutrality cut" in cell["note"]
        assert cell["outcome"] == "witness-found" and cell["consistent"] is True

    def test_json_is_deterministic(self, capsys):
        args = ("verify", "--h", "2..4", "--n", "2..4", "--json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_matches_the_frozen_grid_reference(self, capsys, monkeypatch):
        # The benchmark's reference rows: plain scans, the cut at (2,7), constructive cells.
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
        spec.loader.exec_module(workloads)
        table = json.loads(workloads.GRID_REFERENCE.read_text())
        for hs, ns in (((2, 3, 4), (2, 3, 4)), ((2,), (7,)), ((3,), (7, 8)), ((4,), (6, 7, 8))):
            h_arg, n_arg = ",".join(map(str, hs)), ",".join(map(str, ns))
            code, out, _ = run(capsys, "verify", "--h", h_arg, "--n", n_arg, "--j", "2,3", "--json")
            assert code == 0
            got = [[c.get(k) for k in workloads.GRID_FIELDS] for c in json.loads(out)["cells"]]
            assert got == [row for row in table if row[0] in hs and row[1] in ns]

    def test_worker_count_does_not_change_output(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        args = ("verify", "--h", "5", "--n", "4", "--json")
        monkeypatch.delenv("VOTEBIAS_WORKERS", raising=False)
        _, sequential, _ = run(capsys, *args)
        monkeypatch.setenv("VOTEBIAS_WORKERS", "3")
        _, parallel, _ = run(capsys, *args)
        assert sequential == parallel

    def test_dual_route_mismatch_contradicts_the_cell(self, capsys, monkeypatch):
        scan = votebias.cli.scan_minimax

        def one_mismatch(*args, **kwargs):
            report = scan(*args, **kwargs)
            report.kramer_mismatches = 1
            return report

        args = ("verify", "--h", "2", "--n", "3", "--j", "3", "--json")
        _, clean, _ = run(capsys, *args)
        monkeypatch.setattr(votebias.cli, "scan_minimax", one_mismatch)
        code, out, _ = run(capsys, *args)
        assert code == 2
        payload = json.loads(out)
        cell = payload["cells"][0]
        assert cell["consistent"] is False
        assert "disagree on 1 profiles" in cell["note"]
        assert payload["summary"]["contradicted"] == 1
        # No new key: only the verdict and the note differ from a clean run.
        clean_cell = json.loads(clean)["cells"][0]
        assert set(cell) == set(clean_cell) | {"note"}

    def test_bad_arguments(self, capsys):
        assert run(capsys, "verify", "--j", "4")[0] == 1
        assert run(capsys, "verify", "--h", "0..3")[0] == 1
        assert run(capsys, "verify", "--h", "five")[0] == 1
        assert run(capsys, "verify", "--h", "4..2")[0] == 1

    def test_range_size_is_bounded(self, capsys):
        assert len(votebias.cli._parse_values("1..10000", "h", 1)) == 10_000
        code, out, err = run(capsys, "verify", "--h", "2..10002")
        assert code == 1 and out == ""
        assert "holds 10001 values, over the limit of 10000" in err

    def test_bad_worker_count_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("VOTEBIAS_WORKERS", "many")
        code, out, err = run(capsys, "verify", "--h", "2", "--n", "2")
        assert code == 1 and out == ""
        assert err == "votebias: error: VOTEBIAS_WORKERS must be an integer, got 'many'\n"


class TestCompare:
    def test_minimax_equals_copeland_on_three_by_three(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--pair", "minimax-copeland", "--h", "3", "--n", "3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "identical"
        assert payload["examined"] == payload["space"] == 216
        assert "profile" not in payload

    def test_minimax_differs_from_borda(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--pair", "minimax-borda", "--h", "3", "--n", "3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "different"
        assert payload["selections"]["minimax"] != payload["selections"]["borda"]
        assert payload["examined"] <= payload["space"]

    def test_two_alternatives_collapse_to_simple_majority(self, capsys):
        for pair in ("minimax-borda", "minimax-copeland", "borda-copeland"):
            code, out, _ = run(
                capsys, "compare", "--pair", pair, "--h", "4", "--n", "2", "--json"
            )
            assert code == 0
            assert json.loads(out)["verdict"] == "identical"

    def test_sampling_agreement_is_inconclusive(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--pair", "minimax-copeland", "--h", "3", "--n", "3",
            "--strategy", "sampled", "--budget", "40", "--json",
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["verdict"] == "inconclusive"
        assert "not a proof" in payload["note"]
        assert payload["seed"] == 271828

    def test_sampling_can_still_prove_a_difference(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--pair", "minimax-borda", "--h", "4", "--n", "4",
            "--strategy", "sampled", "--budget", "500", "--json",
        )
        payload = json.loads(out)
        if payload["verdict"] == "different":
            assert code == 0
            assert payload["selections"]["minimax"] != payload["selections"]["borda"]
        else:
            assert code == 3

    def test_human_output(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--pair", "minimax-borda", "--h", "3", "--n", "3"
        )
        assert code == 0
        assert "minimax vs borda at h=3, n=3: different" in out
        assert "first differing profile:" in out

    def test_bad_pairs(self, capsys):
        for pair in ("minimax", "minimax-minimax", "minimax-veto", "veto-borda"):
            code, _, err = run(capsys, "compare", "--pair", pair, "--h", "3", "--n", "3")
            assert code == 1
            assert "bad pair" in err


class TestFixtures:
    def test_list_human(self, capsys):
        code, out, _ = run(capsys, "fixtures", "list")
        assert code == 0
        for fid in ("intro-6-4", "tm2-5-4", "tm2-7-4", "confronto1-3-3"):
            assert fid in out
        assert "tm3-h-3(k)" in out

    def test_list_json(self, capsys):
        code, out, _ = run(capsys, "fixtures", "list", "--json")
        payload = json.loads(out)
        assert {row["id"] for row in payload["fixed"]} == {
            "intro-6-4", "tm2-5-4", "tm2-5-5", "tm2-7-4", "tm3-4-4", "confronto1-3-3",
        }
        assert {row["pattern"] for row in payload["families"]} == {
            "tm2-3-n(k)", "tm3-2-n(k)", "tm3-h-3(k)",
        }

    def test_emit_stdout(self, capsys):
        code, out, _ = run(capsys, "fixtures", "emit", "tm3-4-4")
        assert code == 0
        assert out.strip() == serialize_profile(fixture_profile("tm3-4-4"))

    def test_emit_family_member_to_file(self, capsys, tmp_path):
        target = tmp_path / "p.txt"
        code, out, _ = run(capsys, "fixtures", "emit", "tm3-h-3(8)", "--out", str(target))
        assert code == 0
        assert f"written to {target}" in out
        assert target.read_text() == serialize_profile(fixture_profile("tm3-h-3(8)")) + "\n"

    def test_emit_unknown(self, capsys):
        code, _, err = run(capsys, "fixtures", "emit", "nope")
        assert code == 1
        assert "unknown fixture id" in err


class TestThresholds:
    def test_json_row(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--h", "4", "--n", "4", "--json")
        assert code == 0
        rows = json.loads(out)
        assert rows == [
            {
                "h": 4,
                "n": 4,
                "mu_majority": 3,
                "mu_acyclic_bound": 3,
                "mu_greenberg": 4,
                "immune_type1": True,
                "immune_type2": True,
                "immune_type3": False,
            }
        ]

    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--h", "2..3", "--n", "2", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("h,n,mu_majority")
        assert len(lines) == 3

    def test_human_table(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--h", "6", "--n", "3")
        assert code == 0
        assert "mu0" in out and "muG" in out


class TestUsageErrors:
    def test_argparse_errors_exit_one(self, capsys):
        for argv in (
            [],
            ["unknown-command"],
            ["verify", "--strategy", "psychic"],
            ["compare", "--pair", "minimax-borda"],
            ["verify", "--budget", "0"],
            ["compare", "--pair", "minimax-borda", "--h", "3", "--n", "3", "--budget", "0"],
            ["fixtures"],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 1
            capsys.readouterr()
