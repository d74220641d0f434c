"""The seeded sample stream, the sampler's tally-core route, and its mismatch count.

tests/data/sampled_stream.json was captured from the object-path sampler that
built, tallied and audited a Profile for every sample: the stdout and exit
code of sampled verify and compare runs, and a sha256 over each cell's first
500 serialized samples.  The sampler now draws each sample as one ranking code
per voter by replaying random.sample on the generator's getrandbits, on one
generator reseeded per sample, reads each code's tally row off a per-n table
in code order (decoding the code past 8 alternatives), builds a hit's rankings
from its decoded orders, and shares Ranking objects between samples;
these runs hold it to the old stream and output byte for byte.  The replay
rests on three CPython internals: random.sample's pool branch, _randbelow,
and the integer Random.seed derives from a str seed (its bytes and their
SHA-512 digest); the replay sweep and the interpreter guards below name them
when they change.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from votebias import Profile, Ranking, audit_profile, find_witness, sample_profile
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


def _rng_orders(h: int, n: int, seed: int, index: int) -> list[tuple[int, ...]]:
    rng = random.Random(f"{seed}:{index}")
    return [tuple(rng.sample(range(1, n + 1), n)) for _ in range(h)]


def test_code_drawer_replays_rng_sample():
    # One sample draws all its voters from one generator, so a replay that
    # consumes the wrong number of words shows in a later voter's order; one
    # drawer serves all indices of a cell, so a stale reseed shows too.
    for seed in (271828, 7, -5):
        for h in range(2, 13):
            for n in range(2, search.MAX_N + 1):
                draw = search._code_drawer(h, n, seed)
                for index in range(25):
                    orders = [search._code_ranking(n, code).order for code in draw(index)]
                    assert orders == _rng_orders(h, n, seed, index), (h, n, seed, index)


def test_the_replayed_randbelow_is_the_getrandbits_loop():
    # The drawer replays this method's rejection loop; an interpreter that
    # binds _randbelow to anything else draws a different stream.
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits


def test_a_reseeded_generator_replays_the_string_seed():
    # The drawer reseeds one bare generator with the integer Random.seed
    # derives from the string: its bytes, then their SHA-512 digest, read
    # big-endian.  A bare generator is all zeros until seeded, so a draw read
    # before its seed would show as a run of zero words.
    assert [random.Random.__new__(random.Random).getrandbits(32) for _ in range(3)] == [0] * 3
    for seed in (271828, 7, -5):
        for index in (0, 10**6):
            key = f"{seed}:{index}".encode()
            derived = int.from_bytes(key + hashlib.sha512(key).digest(), "big")
            assert random._sha512(key).digest() == hashlib.sha512(key).digest()
            bare = random.Random.__new__(random.Random)
            super(random.Random, bare).seed(derived)
            seeded = random.Random(f"{seed}:{index}")
            assert [bare.getrandbits(32) for _ in range(700)] == [
                seeded.getrandbits(32) for _ in range(700)
            ], (seed, index)
            # A fresh drawer's first sample is already the seeded stream's.
            codes = search._code_drawer(3, 6, seed)(index)
            orders = [search._code_ranking(6, code).order for code in codes]
            assert orders == _rng_orders(3, 6, seed, index)


def _pool_swap_order(n: int, code: int) -> tuple[int, ...]:
    """The plain replay: digit j_m of code (its multiple of (m - 1)!) is the
    draw with m values left, and random.sample's pool swaps build the order."""
    pool, order = list(range(1, n + 1)), []
    for m in range(n, 0, -1):
        j = code // math.factorial(m - 1) % m
        order.append(pool[j])
        pool[j] = pool[m - 1]
    return tuple(order)


def test_code_order_rows_match_the_pool_swaps():
    for n in range(2, search.TABLE_MAX_N + 1):
        size = math.factorial(n)
        rows = search._packed_rows(n, code_order=True)
        assert len(rows) == size, n
        codes = range(size) if n <= 7 else random.Random(n).sample(range(size), 5000)
        for code in codes:
            order = _pool_swap_order(n, code)
            assert rows[code].to_bytes(n * (n - 1) // 2, "little") == search._upper_row(order), (
                n, code
            )
            assert search._decode(n, code) == order, (n, code)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_a_sample_builds_only_its_own_rankings(n):
    # A sampled hit needs its h rankings, not all n! of them (40,320 at n = 8).
    search.all_rankings.cache_clear()
    profiles = [sample_profile(3, n, 271828, i) for i in range(50)]
    assert search.all_rankings.cache_info().currsize == 0
    for i, profile in enumerate(profiles):
        expected = Profile(tuple(map(Ranking, _rng_orders(3, n, 271828, i))))
        assert profile == expected
        assert serialize_profile(profile) == serialize_profile(expected)


def test_a_sampled_search_refuses_a_cell_past_the_bounds():
    # A tally byte sums at most MAX_H < 256 voters, so no larger h reaches it.
    for h, n in [(search.MAX_H + 1, 3), (2, search.MAX_N + 1), (1, 3)]:
        for call in (
            lambda: search.scan_samples(h, n, 1, "minimax", 1, 271828),
            lambda: find_witness(h, n, 1, mode="sampled", budget=1),
        ):
            with pytest.raises(ValueError, match=r"need 2 <= h <= 200 and 2 <= n <= 20"):
                call()


@pytest.mark.parametrize("j, rule, message", [
    (4, "minimax", "bias types must be distinct and each 1, 2 or 3"),
    (1, "veto", "rule must be 'minimax' or a pair of"),
    (0, "minimax", "bias types must be distinct and each 1, 2 or 3"),
    (5, "minimax", "bias types must be distinct and each 1, 2 or 3"),
    (1, "borda", "rule must be 'minimax' or a pair of"),
    (1, ("minimax", "borda", "copeland"), "rule must be 'minimax' or a pair of"),
])
def test_a_sampled_search_refuses_what_find_witness_refuses_before_any_draw(
    monkeypatch, j, rule, message
):
    # Type 4 used to draw the whole budget and report inconclusive, and so
    # did bit 5 of scan_samples; bit 0 would hunt the dual-route mismatch.
    # "veto" failed with KeyError at the first verdict, and a 3-name tuple or
    # a score rule alone fails to unpack as a pair there.
    def refuse(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(search, "_code_drawer", refuse)
    with pytest.raises(ValueError, match=message):
        search.scan_samples(2, 3, j, rule, 50, 1)
    if rule == "minimax":
        with pytest.raises(ValueError, match=message):
            search.search_sampled(2, 3, j, 50, 1)


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
    draw, tally = search._code_drawer(h, n, 271828), search._code_tallier(n)
    for index in range(300):
        assert tally(draw(index)) == upper_tally(sample_profile(h, n, 271828, index)), index


def _beats_upper(order: tuple[int, ...]) -> list[int]:
    b, n = Ranking(order).beats(), len(order)
    return [b[x * n + y] for x in range(n) for y in range(x + 1, n)]


def test_order_rows_are_the_upper_triangle_of_beats():
    rng = random.Random(5)
    orders = [q for n in range(2, 7) for q in itertools.permutations(range(1, n + 1))]
    orders += [tuple(rng.sample(range(1, n + 1), n)) for n in range(7, 13) for _ in range(200)]
    for order in orders:
        assert list(search._upper_row(order)) == _beats_upper(order), order


@pytest.mark.parametrize("h, n", [(5, 5), (3, 7), (4, 4), (2, 10), (200, 3), (2, 20)])
def test_sample_tally_and_verdict_match_the_object_path(h, n):
    # The composition scan_samples runs on each sample.
    draw, tally = search._code_drawer(h, n, 271828), search._code_tallier(n)
    for index in range(2000):
        u = tally(draw(index))
        profile = sample_profile(h, n, 271828, index)
        assert u == upper_tally(profile), index
        reports = {report.rule: report for report in audit_profile(profile)}
        m = reports["minimax"]
        bits = search._leaf_verdict(u, h, n, "minimax")
        assert bits == 2 * m.type1 | 4 * m.type2 | 8 * m.type3, index
        for first, second in itertools.combinations(reports, 2):
            differ = reports[first].selection_p != reports[second].selection_p
            assert search._leaf_verdict(u, h, n, (first, second)) == 2 * differ, index


def test_a_sampled_mismatch_contradicts_the_cell_and_raises(capsys, monkeypatch):
    h, n, budget = 5, 5, 50
    defeats = [
        tuple(map(tuple, minimax_defeats(upper_tally(sample_profile(h, n, 271828, i)), h, n)[:2]))
        for i in range(budget)
    ]
    # A sample whose worst defeats no other examined sample shares, with more
    # than one value among them, so that selecting everyone is not the argmin.
    target = next(d for d in defeats if defeats.count(d) == 1 and len(set(d[0])) > 1)

    def skewed(u, h, n):
        wd, wdr, mu_p, mu_pr = minimax_defeats(u, h, n)
        if (tuple(wd), tuple(wdr)) == target:
            mu_p = h + 1  # the threshold route selects everyone, the argmin does not
        return wd, wdr, mu_p, mu_pr

    argv = ["verify", "--h", "5", "--n", "5", "--j", "1", "--strategy", "sampled",
            "--budget", str(budget), "--json"]
    assert main(argv) == 3
    clean = json.loads(capsys.readouterr().out)["cells"][0]
    monkeypatch.setattr(search, "minimax_defeats", skewed)
    assert search.search_sampled(h, n, 1, budget, 271828).mismatches == 1
    assert main(argv) == 2
    payload = json.loads(capsys.readouterr().out)
    cell = payload["cells"][0]
    assert cell["consistent"] is False and payload["summary"]["contradicted"] == 1
    assert cell["note"] == clean["note"] + "; direct and threshold minimax disagree on 1 profiles"
    assert {**cell, "consistent": None, "note": clean["note"]} == clean
    with pytest.raises(RuntimeError, match="disagree on 1 profiles"):
        find_witness(h, n, 1, mode="sampled", budget=budget)
