"""The seeded sample stream, the sampler's tally-core route, and its mismatch count.

tests/data/sampled_stream.json was captured from the object-path sampler that
built, tallied and audited a Profile for every sample: the stdout and exit
code of sampled verify and compare runs, and a sha256 over each cell's first
500 serialized samples.  The sampler now tallies each sample from cached
per-order rows, draws its orders by replaying random.sample on the
generator's getrandbits, and shares Ranking objects between samples; these
runs hold it to the old stream and output byte for byte.  The replay rests on
two CPython internals, random.sample's pool branch and _randbelow; the replay
sweep and the interpreter guard below name them when they change.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from votebias import Ranking, audit_profile, find_witness, sample_profile
from votebias import prefs, search, serialize_profile
from votebias.cli import main
from votebias.rules import minimax_defeats, upper_tally

from conftest import naive_tally, random_profile

PINNED = json.loads((Path(__file__).resolve().parent / "data" / "sampled_stream.json").read_text())


@pytest.mark.parametrize(
    "run", PINNED["runs"], ids=["-".join(run["argv"][:9]) for run in PINNED["runs"]]
)
def test_sampled_runs_print_the_pinned_bytes(capsys, run):
    code = main(run["argv"])
    assert (code, capsys.readouterr().out) == (run["code"], run["stdout"])


@pytest.mark.parametrize(
    "stream", PINNED["streams"], ids=[f"{s['h']}-{s['n']}-{s['seed']}" for s in PINNED["streams"]]
)
def test_sample_stream_is_pinned(stream):
    h, n, seed = stream["h"], stream["n"], stream["seed"]
    text = "\n\n".join(
        serialize_profile(sample_profile(h, n, seed, i)) for i in range(stream["samples"])
    )
    assert hashlib.sha256(text.encode()).hexdigest() == stream["sha256"]


@given(st.integers(2, 12), st.integers(2, 20), st.integers(-5, 10**6), st.integers(0, 10**6))
def test_sample_profile_keeps_its_definition(h, n, seed, index):
    # The profile of the string-seeded stream: h rng.sample draws of 1..n.
    expected = random_profile(random.Random(f"{seed}:{index}"), h, n)
    assert sample_profile(h, n, seed, index) == expected


def test_draw_orders_replay_rng_sample():
    # One sample draws all its voters from one generator, so a replay that
    # consumes the wrong number of words shows in a later voter's order.
    for seed in (271828, 7, -5):
        for h in range(2, 13):
            for n in range(2, search.MAX_N + 1):
                for index in range(25):
                    rng = random.Random(f"{seed}:{index}")
                    expected = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(h)]
                    assert search._draw_orders(h, n, seed, index) == expected, (h, n, seed, index)


def test_the_replayed_randbelow_is_the_getrandbits_loop():
    # _draw_orders replays this method's rejection loop; an interpreter that
    # binds _randbelow to anything else draws a different stream.
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits


@pytest.mark.parametrize("h, n", [(5, 5), (2, 10)])
def test_shared_rankings_stay_values(h, n):
    prefs._ranking.cache_clear()
    profiles = [sample_profile(h, n, 271828, i) for i in range(300)]
    first: dict = {}
    for profile in profiles:
        for q in profile.columns:
            assert first.setdefault(q.order, q) is q
        counts = profile.tally()
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                if x != y:
                    assert counts[x - 1][y - 1] == naive_tally(profile, x, y)
    if n == 5:
        assert len(first) < h * len(profiles)  # orders did repeat across samples
    for index in range(300):
        u = search.sample_tally(h, n, 271828, index)
        assert u == upper_tally(sample_profile(h, n, 271828, index)), index


def _beats_upper(order: tuple[int, ...]) -> list[int]:
    b, n = Ranking(order).beats(), len(order)
    return [b[x * n + y] for x in range(n) for y in range(x + 1, n)]


def test_order_rows_are_the_upper_triangle_of_beats():
    rng = random.Random(5)
    orders = [q for n in range(2, 7) for q in itertools.permutations(range(1, n + 1))]
    orders += [tuple(rng.sample(range(1, n + 1), n)) for n in range(7, 13) for _ in range(200)]
    for order in orders:
        assert list(search._order_row(order)) == _beats_upper(order), order


@pytest.mark.parametrize("h, n", [(5, 5), (3, 7), (4, 4), (2, 10)])
def test_sample_tally_and_verdict_match_the_object_path(h, n):
    for index in range(2000):
        u = search.sample_tally(h, n, 271828, index)
        profile = sample_profile(h, n, 271828, index)
        assert u == upper_tally(profile), index
        for report in audit_profile(profile):
            bits = search._leaf_verdict(u, h, n, report.rule)
            assert bits == 2 * report.type1 | 4 * report.type2 | 8 * report.type3, index


def test_a_sampled_mismatch_contradicts_the_cell_and_raises(capsys, monkeypatch):
    h, n, budget = 5, 5, 50
    defeats = [
        tuple(map(tuple, minimax_defeats(upper_tally(sample_profile(h, n, 271828, i)), h, n)[:2]))
        for i in range(budget)
    ]
    # A sample whose worst defeats no other examined sample shares, with more
    # than one value among them, so that selecting everyone is not the argmin.
    target = next(d for d in defeats if defeats.count(d) == 1 and len(set(d[0])) > 1)
    thresholds = search.minimax_thresholds

    def skewed(wd, wdr, h):
        mu_p, mu_pr = thresholds(wd, wdr, h)
        if (tuple(wd), tuple(wdr)) == target:
            mu_p = h + 1  # the threshold route selects everyone, the argmin does not
        return mu_p, mu_pr

    argv = ["verify", "--h", "5", "--n", "5", "--j", "1", "--strategy", "sampled",
            "--budget", str(budget), "--json"]
    assert main(argv) == 3
    clean = json.loads(capsys.readouterr().out)["cells"][0]
    monkeypatch.setattr(search, "minimax_thresholds", skewed)
    assert search.search_sampled(h, n, 1, "minimax", budget, 271828).mismatches == 1
    assert main(argv) == 2
    payload = json.loads(capsys.readouterr().out)
    cell = payload["cells"][0]
    assert cell["consistent"] is False and payload["summary"]["contradicted"] == 1
    assert cell["note"] == clean["note"] + "; direct and threshold minimax disagree on 1 profiles"
    assert {**cell, "consistent": None, "note": clean["note"]} == clean
    with pytest.raises(RuntimeError, match="disagree on 1 profiles"):
        find_witness(h, n, 1, mode="sampled", budget=budget)
