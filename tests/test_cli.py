"""End-to-end command line behavior: outputs, exit codes, determinism."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given

import votebias.cli
from votebias import (
    Profile,
    Ranking,
    borda,
    condorcet_loser,
    condorcet_winner,
    copeland,
    anonymous_count,
    export_dot,
    find_witness,
    load,
    majority_graph,
    minimax_direct,
    profile_threshold,
    serialize_profile,
)
from votebias.cli import main

from conftest import naive_borda, naive_copeland, naive_minimax, profiles

NAIVE_RULES = {"minimax": naive_minimax, "borda": naive_borda, "copeland": naive_copeland}
PAIRS = ("minimax-borda", "minimax-copeland", "borda-copeland")
# Every cell whose n!^h ordered profiles the naive product loop below can walk.
ORACLE_CELLS = [
    (h, n) for n in range(2, 6) for h in range(2, 16) if math.factorial(n) ** h <= 50_000
]

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def profile_file(tmp_path):
    def write(fixture_id, name="profile.txt"):
        path = tmp_path / name
        path.write_text(serialize_profile(load(fixture_id).profile) + "\n")
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
        text = serialize_profile(load("tm3-4-4").profile)
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

    def test_rules_are_one_list_of_distinct_rules(self, capsys, profile_file):
        path = profile_file("tm2-5-4")
        for spec, message in ((",", "unknown rule ''"), ("minimax,", "unknown rule ''"),
                              ("minimax,minimax", "names a rule twice"),
                              ("borda, minimax,borda", "names a rule twice")):
            code, out, err = run(capsys, "audit", path, "--rules", spec)
            assert code == 1 and out == ""
            assert message in err
        code, out, _ = run(capsys, "audit", path, "--rules", "copeland, minimax", "--json")
        assert code == 0
        assert [b["rule"] for b in json.loads(out)["bias"]] == ["copeland", "minimax"]

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
        expected = export_dot(majority_graph(load("tm2-5-4").profile, 3))
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

    def test_sampling_past_the_sample_bound_is_refused_undrawn(self, capsys, monkeypatch):
        def refuse(*_):
            raise AssertionError("sampled past MAX_SAMPLES")

        monkeypatch.setattr(votebias.cli, "search_sampled", refuse)
        # Sampled by request, and by auto's fallback at (3, 7): the space is over
        # the budget and no recipe builds a type-1 witness for an immune cell.
        for cell in (("--h", "3", "--n", "4", "--strategy", "sampled"), ("--h", "3", "--n", "7")):
            code, out, err = run(capsys, "verify", *cell, "--j", "1", "--budget", "10000001")
            assert code == 1 and out == ""
            assert err == (
                "votebias: error: sampled verify draws at most 10000000 samples, "
                "got budget 10000001\n"
            )
        # A certification budget past the bound still serves a cell that never samples.
        code, out, _ = run(
            capsys, "verify", "--h", "3", "--n", "4", "--j", "1", "--budget", "10000001", "--json"
        )
        assert code == 0
        assert json.loads(out)["cells"][0]["outcome"] == "certified-immune"

    def test_exhaustive_over_budget_is_refused(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--h", "5", "--n", "5", "--j", "1",
            "--strategy", "exhaustive", "--budget", "1000", "--json",
        )
        assert code == 3
        cell = json.loads(out)["cells"][0]
        assert cell["outcome"] == "inconclusive"
        assert "over budget 1000" in cell["note"]

    def test_n_past_the_table_limit_leaves_the_exhaustive_route(self, capsys, monkeypatch):
        def refuse(n, *_):
            raise AssertionError(f"ranking table built for n={n}")

        monkeypatch.setattr(votebias.search, "_packed_rows", refuse)
        monkeypatch.setattr(votebias.search, "_above_sets", refuse)
        # neutral_count(2, 10) = 3,628,800 fits the default budget; the 10! table does not.
        code, out, _ = run(
            capsys, "verify", "--h", "2", "--n", "10", "--j", "3",
            "--strategy", "exhaustive", "--json",
        )
        assert code == 3
        cell = json.loads(out)["cells"][0]
        assert (cell["outcome"], cell["examined"]) == ("inconclusive", 0)
        assert cell["note"] == "ranking table holds 3628800 rankings, over the limit of 362880"
        code, out, _ = run(capsys, "verify", "--h", "2", "--n", "10", "--j", "3", "--json")
        assert code == 0
        cell = json.loads(out)["cells"][0]
        assert (cell["method"], cell["outcome"]) == ("constructive", "witness-found")

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

    def test_constructive_mode(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--h", "8", "--n", "4", "--j", "1",
            "--strategy", "constructive", "--json",
        )
        assert code == 0
        cell = json.loads(out)["cells"][0]
        assert (cell["outcome"], cell["examined"]) == ("witness-found", 1)
        assert cell["witness"]["strategy"] == "constructive"
        code, out, _ = run(
            capsys, "verify", "--h", "3", "--n", "3", "--j", "1",
            "--strategy", "constructive", "--json",
        )
        assert code == 3
        cell = json.loads(out)["cells"][0]
        assert (cell["outcome"], cell["examined"]) == ("inconclusive", 0)
        assert cell["note"] == "no constructive recipe applies at this (h, n)"

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

    def test_matches_the_frozen_grid_reference(self, capsys, workloads):
        # Every reference row, i.e. the default grid: plain and cut scans, constructive cells.
        table = json.loads(workloads.GRID_REFERENCE.read_text())
        code, out, _ = run(capsys, "verify", "--j", "2,3", "--json")
        assert code == 0
        got = [[c.get(k) for k in workloads.GRID_FIELDS] for c in json.loads(out)["cells"]]
        assert len(got) == 154
        assert got == table

    def test_worker_count_does_not_change_output(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        args = ("verify", "--h", "5", "--n", "4", "--json")
        monkeypatch.delenv("VOTEBIAS_WORKERS", raising=False)
        _, sequential, _ = run(capsys, *args)
        monkeypatch.setenv("VOTEBIAS_WORKERS", "3")
        _, parallel, _ = run(capsys, *args)
        assert sequential == parallel

    def test_dual_route_mismatch_contradicts_the_cell(self, capsys, monkeypatch):
        scan = votebias.search.scan_minimax

        def one_mismatch(*args, **kwargs):
            report = scan(*args, **kwargs)
            report.kramer_mismatches = 1
            return report

        args = ("verify", "--h", "2", "--n", "3", "--j", "3", "--json")
        _, clean, _ = run(capsys, *args)
        monkeypatch.setattr(votebias.search, "scan_minimax", one_mismatch)
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
        # The bound holds for the whole spec, counted before deduplication.
        with pytest.raises(votebias.cli._CliError, match="holds 10001 values"):
            votebias.cli._parse_values("1..10000,10001", "h", 1)
        code, out, err = run(capsys, "thresholds", "--h", "2..6001,6002..12002", "--n", "2")
        assert code == 1 and out == ""
        assert "holds 12001 values, over the limit of 10000" in err

    @pytest.mark.parametrize(
        "h, n, budget",
        [
            (3, 3, 56),  # plain scan: the whole space fits
            (4, 3, 126),  # plain scan with witnesses
            (3, 4, 300),  # only the neutrality cut fits
            (5, 5, 1000),  # over budget even under the cut
            (2, 10, 5_000_000),  # the cut fits, the ranking table is refused
        ],
    )
    def test_matches_find_witness_cell_by_cell(self, capsys, monkeypatch, h, n, budget):
        def refuse(n, *_):
            raise AssertionError(f"ranking table built for n={n}")

        if n == 10:
            monkeypatch.setattr(votebias.search, "_packed_rows", refuse)
            monkeypatch.setattr(votebias.search, "_above_sets", refuse)
        _, out, _ = run(
            capsys, "verify", "--h", str(h), "--n", str(n), "--strategy", "exhaustive",
            "--budget", str(budget), "--json",
        )
        for cell in json.loads(out)["cells"]:
            res = find_witness(h, n, cell["j"], budget=budget)
            assert (cell["outcome"], cell["space"], cell.get("note", "")) == (
                res.outcome, res.space, res.note
            )
            assert cell.get("witness") == (res.witness and res.witness.to_json_dict())
            if res.outcome == "certified-immune":
                assert cell["examined"] == res.examined

    def test_bad_worker_count_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("VOTEBIAS_WORKERS", "many")
        code, out, err = run(capsys, "verify", "--h", "2", "--n", "2")
        assert code == 1 and out == ""
        assert err == "votebias: error: VOTEBIAS_WORKERS must be an integer, got 'many'\n"


def naive_first_differences(h: int, n: int) -> dict:
    """Per pair, the first ordered profile on which the naive rules differ, as
    (profile text, selections), or None; a plain product loop over permutations."""
    rankings = [Ranking(order) for order in itertools.permutations(range(1, n + 1))]
    found = dict.fromkeys(PAIRS)
    for columns in itertools.product(rankings, repeat=h):
        profile = Profile(columns)
        selections = {rule: sorted(select(profile)) for rule, select in NAIVE_RULES.items()}
        for pair in PAIRS:
            first, second = pair.split("-")
            if found[pair] is None and selections[first] != selections[second]:
                found[pair] = (serialize_profile(profile), {
                    first: selections[first], second: selections[second]
                })
        if all(found.values()):
            break
    return found


class TestCompare:
    @pytest.mark.parametrize("h, n", ORACLE_CELLS)
    def test_matches_a_naive_product_order_loop(self, capsys, h, n):
        for pair, expected in naive_first_differences(h, n).items():
            code, out, _ = run(
                capsys, "compare", "--pair", pair, "--h", str(h), "--n", str(n), "--json"
            )
            payload = json.loads(out)
            assert code == 0 and payload["method"] == "exhaustive"
            assert payload["space"] == anonymous_count(h, n)
            if expected is None:
                assert payload["verdict"] == "identical"
                assert payload["examined"] == payload["space"]
            else:
                assert payload["verdict"] == "different"
                assert (payload["profile"], payload["selections"]) == expected

    def test_minimax_equals_copeland_on_three_by_three(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--pair", "minimax-copeland", "--h", "3", "--n", "3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "identical"
        assert payload["examined"] == payload["space"] == anonymous_count(3, 3) == 56
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

    def test_over_budget_exhaustive_is_inconclusive(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--pair", "minimax-borda", "--h", "4", "--n", "4",
            "--strategy", "exhaustive", "--budget", "17549", "--json",
        )
        payload = json.loads(out)
        assert code == 3 and payload["verdict"] == "inconclusive"
        assert payload["examined"] == 0
        assert payload["note"] == "space holds 17550 representatives, over budget 17549"

    def test_ten_alternatives_never_reach_the_kernel(self, capsys, monkeypatch):
        def refuse(n, *_):
            raise AssertionError(f"ranking table built for n={n}")

        monkeypatch.setattr(votebias.search, "_packed_rows", refuse)
        monkeypatch.setattr(votebias.search, "_above_sets", refuse)
        budget = str(anonymous_count(2, 10))
        code, out, _ = run(
            capsys, "compare", "--pair", "minimax-borda", "--h", "2", "--n", "10",
            "--strategy", "exhaustive", "--budget", budget, "--json",
        )
        payload = json.loads(out)
        assert code == 3 and payload["verdict"] == "inconclusive"
        assert payload["note"].startswith("ranking table holds 3628800 rankings")
        # auto samples instead, and a budget that covers the space is past MAX_SAMPLES.
        code, out, err = run(
            capsys, "compare", "--pair", "minimax-borda", "--h", "2", "--n", "10",
            "--budget", budget, "--json",
        )
        assert code == 1 and out == ""
        assert err.startswith("votebias: error: sampled compare draws at most 10000000 samples")
        code, out, _ = run(
            capsys, "compare", "--pair", "minimax-borda", "--h", "2", "--n", "10",
            "--budget", "10000000", "--json",
        )
        payload = json.loads(out)
        assert payload["method"] == "sampled"
        assert code == 0 and payload["verdict"] == "different"

    def test_sampling_past_the_sample_bound_is_refused_undrawn(self, capsys, monkeypatch):
        def refuse(*_):
            raise AssertionError("sampled past MAX_SAMPLES")

        monkeypatch.setattr(votebias.cli, "scan_samples", refuse)
        cell = ("compare", "--pair", "minimax-borda", "--h", "3", "--n", "10")
        for strategy in ((), ("--strategy", "sampled")):
            code, out, err = run(capsys, *cell, *strategy, "--budget", "10000001")
            assert code == 1 and out == ""
            assert err == (
                "votebias: error: sampled compare draws at most 10000000 samples, "
                "got budget 10000001\n"
            )
        drawn = []
        monkeypatch.setattr(
            votebias.cli, "scan_samples", lambda *args: drawn.append(args) or (7, None, 0)
        )
        code, out, _ = run(capsys, *cell, "--budget", "10000000", "--json")
        assert drawn == [(3, 10, 1, ("minimax", "borda"), 10_000_000, 271828)]
        assert code == 3 and json.loads(out)["examined"] == 7

    def test_an_unconfirmed_difference_is_a_contradiction(self, capsys, monkeypatch):
        # The profile-level rules re-derive the selections; here they agree.
        monkeypatch.setitem(votebias.cli.RULES, "borda", votebias.cli.RULES["minimax"])
        for strategy in ("exhaustive", "sampled"):
            code, out, err = run(
                capsys, "compare", "--pair", "minimax-borda", "--h", "3", "--n", "3",
                "--strategy", strategy,
            )
            assert code == 2 and out == ""
            assert err.startswith("votebias: error: the tally core found minimax and borda")
            assert "Traceback" not in err


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
        assert out.strip() == serialize_profile(load("tm3-4-4").profile)

    def test_emit_family_member_to_file(self, capsys, tmp_path):
        target = tmp_path / "p.txt"
        code, out, _ = run(capsys, "fixtures", "emit", "tm3-h-3(8)", "--out", str(target))
        assert code == 0
        assert f"written to {target}" in out
        assert target.read_text() == serialize_profile(load("tm3-h-3(8)").profile) + "\n"

    def test_emit_unknown(self, capsys):
        code, _, err = run(capsys, "fixtures", "emit", "nope")
        assert code == 1
        assert "unknown fixture id" in err

    def test_emit_refuses_non_ascii_and_oversized_parameters(self, capsys):
        for fixture_id, message in (("tm3-h-3(\u0661\u0662)", "unknown fixture id"),
                                    ("tm3-h-3(201)", "parameter 201 is over the limit of 200"),
                                    ("tm2-3-n(21)", "parameter 21 is over the limit of 20")):
            code, out, err = run(capsys, "fixtures", "emit", fixture_id)
            assert code == 1 and out == ""
            assert err.startswith("votebias: error: ") and message in err


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

    def test_row_count_is_bounded(self, capsys):
        # Each spec fits its own bound; their product is refused before any row.
        code, out, err = run(capsys, "thresholds", "--h", "2..101", "--n", "2..102")
        assert code == 1 and out == ""
        assert "thresholds grid holds 10100 rows, over the limit of 10000" in err
        code, out, _ = run(capsys, "thresholds", "--h", "2..101", "--n", "2..101", "--csv")
        assert code == 0
        assert len(out.splitlines()) == 10_001


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
            ["verify", "--long-run"],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 1
            capsys.readouterr()

    def test_h_and_n_are_bounded(self, capsys):
        pair = ("compare", "--pair", "minimax-borda")
        for argv, bound in (
            (("verify", "--h", "201", "--n", "3"), "h values must be <= 200"),
            (("verify", "--h", "2", "--n", "21"), "n values must be <= 20"),
            ((*pair, "--h", "201", "--n", "3"), "need 2 <= h <= 200 and 2 <= n <= 20"),
            ((*pair, "--h", "3", "--n", "21"), "need 2 <= h <= 200 and 2 <= n <= 20"),
        ):
            # A budget of 1 keeps the run short should the bound ever let it through.
            code, out, err = run(capsys, *argv, "--budget", "1")
            assert code == 1 and out == ""
            assert bound in err
        # At the bounds the largest spaces still print.
        code, out, _ = run(capsys, "verify", "--h", "200", "--n", "20", "--j", "3", "--json")
        assert code == 0
        assert len(str(json.loads(out)["cells"][0]["space"])) == 3303
        code, out, _ = run(
            capsys, *pair, "--h", "200", "--n", "20", "--strategy", "sampled",
            "--budget", "1", "--json",
        )
        assert code in (0, 3)
        assert json.loads(out)["space"] == anonymous_count(200, 20)

    def test_closed_pipe_prints_no_traceback(self):
        # About 320 KB of JSON: more than a pipe buffer, so writes go on after the close.
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), path)))}
        argv = ["thresholds", "--h", "2..200", "--n", "2..8", "--json"]
        with subprocess.Popen(
            [sys.executable, "-m", "votebias", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            assert proc.stdout.read(1024).startswith(b"[")
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert "Traceback" not in err
        assert code == 1
