"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criterion 2 certifies (5, 5) for type 1 on every run
through the neutrality cut: 9,078,630 representatives, about two seconds.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

from votebias import (
    analyze,
    anonymous_count,
    audit_profile,
    bias_flags,
    borda,
    constructive_witness,
    construct_cycle_profile,
    copeland,
    enumerate_anonymous,
    greenberg_threshold,
    has_l_cycle,
    load,
    majority_graph,
    minimal_threshold,
    minimax_direct,
    minimax_threshold,
    neutral_count,
    profile_threshold,
    property_violations,
    sample_profile,
    scan_minimax,
)
from votebias.cli import main as cli_main
from votebias.search import DEFAULT_SEED

from conftest import (
    EXHAUSTIVE_CAP,
    GRID_H,
    GRID_N,
    NEUTRAL_CUT_CELLS,
    borda_scores,
    copeland_scores,
    expected_immune,
    random_profile,
    smallest_cycle_length,
)


@contextmanager
def criterion(num: int | str, description: str):
    try:
        yield
    except BaseException:
        print(f"CRITERION {num}: FAIL - {description}")
        raise
    else:
        print(f"CRITERION {num}: PASS - {description}")


def test_criterion_1_fixture_reproduction():
    with criterion(1, "published fixtures re-audit to their exact stated values"):
        started = time.perf_counter()

        def mm(fid):
            p = load(fid).profile
            return (
                profile_threshold(p),
                set(minimax_direct(p)),
                profile_threshold(p.reverse()),
                set(minimax_direct(p.reverse())),
            )

        assert mm("intro-6-4")[1] == {1} and mm("intro-6-4")[3] == {1}
        assert mm("tm2-5-4") == (3, {1}, 4, {1, 2, 4})
        assert mm("tm2-5-5") == (3, {1}, 4, {1, 5})
        assert mm("tm2-7-4") == (4, {1}, 5, {1, 2, 4})
        assert mm("tm3-4-4")[1] == {1, 2, 4} and mm("tm3-4-4")[3] == {1, 3, 4}
        for n in range(3, 9):
            got = mm(f"tm3-2-n({n})")
            assert got[1] == {1, n} and got[3] == {n - 1, n}
        for h in (2, 4, 5, 6, 7, 8, 10):
            got = mm(f"tm3-h-3({h})")
            assert got[1] == {1, 3} and got[3] == {2, 3}
        for n in range(4, 8):
            got = mm(f"tm2-3-n({n})")
            assert got[1] == {1} and got[3] == set(range(1, n + 1))

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"fixture re-audit took {elapsed:.2f}s"


def test_criterion_2_immunity_certificates(kernel_scans):
    with criterion(2, "every in-budget immune cell certifies with zero hits"):
        certified = 0
        for (h, n), report in kernel_scans.items():
            for j in (1, 2, 3):
                if expected_immune(j, h, n):
                    assert report.counts[j] == 0, (
                        f"(h={h}, n={n}) expected immune to type {j} "
                        f"but the scan found {report.counts[j]} witnesses"
                    )
                    assert report.examined == anonymous_count(h, n)
                    certified += 1
        assert certified == 68

        for h, n in NEUTRAL_CUT_CELLS:
            want = tuple(j for j in (1, 2, 3) if expected_immune(j, h, n))
            assert want, (h, n)
            assert anonymous_count(h, n) > EXHAUSTIVE_CAP
            assert neutral_count(h, n) <= EXHAUSTIVE_CAP
            report = scan_minimax(h, n, want=want, neutral_cut=True)
            assert report.examined == neutral_count(h, n)
            for j in want:
                assert report.counts[j] == 0, (h, n, j)
            certified += len(want)
        assert certified == 73

        # Over the cap even under the cut: (3,7,1) and (3,8,1) stay out of reach,
        # and the cut scan of (5,5,1) takes about two seconds, so it is certified
        # here; everything else the classification calls immune is certified above.
        out_of_scope = {
            (h, n, j)
            for h in GRID_H
            for n in GRID_N
            for j in (1, 2, 3)
            if expected_immune(j, h, n)
            and anonymous_count(h, n) > EXHAUSTIVE_CAP
            and neutral_count(h, n) > EXHAUSTIVE_CAP
        }
        assert out_of_scope == {(3, 7, 1), (3, 8, 1), (5, 5, 1)}
        report = scan_minimax(5, 5, want=(1,), neutral_cut=True)
        assert report.examined == neutral_count(5, 5) == 9_078_630
        assert report.counts[1] == 0
        assert report.kramer_mismatches == 0
        certified += 1
        print(
            f"criterion 2 scope: {certified} cells certified exhaustively, "
            f"(5,5,1) among them under the neutrality cut; "
            f"out of reach: {sorted(out_of_scope - {(5, 5, 1)})}"
        )


def test_criterion_3_witnesses_everywhere_outside_the_regions():
    with criterion(3, "every vulnerable grid cell yields a certified witness"):
        produced = 0
        for h in GRID_H:
            for n in GRID_N:
                for j in (1, 2, 3):
                    if expected_immune(j, h, n):
                        continue
                    w = constructive_witness(h, n, j)
                    assert w is not None, f"no witness recipe for (h={h}, n={n}, j={j})"
                    assert w.profile.h == h and w.profile.n == n
                    assert w.flags[j - 1]
                    # Independent re-audit, not trusting the certifier.
                    report = audit_profile(w.profile, rules=("minimax",))[0]
                    assert (report.type1, report.type2, report.type3)[j - 1]
                    produced += 1
        assert produced == 155
        print(f"criterion 3 scope: {produced} witnesses produced and re-audited")


def test_criterion_4_dual_route_equivalence(kernel_scans):
    with criterion(4, "direct and threshold minimax agree on every tested profile"):
        for (h, n), report in kernel_scans.items():
            assert report.kramer_mismatches == 0, (h, n)
        for h, n in [(10, 5), (9, 6), (15, 4)]:
            for i in range(100_000):
                p = sample_profile(h, n, DEFAULT_SEED, i)
                assert minimax_direct(p) == minimax_threshold(p)


def test_criterion_5_borda_copeland_immunity():
    with criterion(5, "Borda and Copeland never show type-3 bias; score identities hold"):
        for h, n in [(2, 3), (3, 3), (2, 4), (4, 3)]:
            hits = []

            def visit(p):
                for rule, select in (("borda", borda), ("copeland", copeland)):
                    flags = bias_flags(select(p), select(p.reverse()), p.n)
                    if flags[2]:
                        hits.append((rule, p))

            assert enumerate_anonymous(h, n, visit) == anonymous_count(h, n)
            assert hits == []

        for h, n in [(7, 5), (10, 4)]:
            bound = h * (n - 1)
            for i in range(100_000):
                p = sample_profile(h, n, DEFAULT_SEED, i)
                pr = p.reverse()
                f_b, g_b = borda_scores(p), borda_scores(pr)
                assert all(f_b[x] + g_b[x] == bound for x in f_b)
                f_c, g_c = copeland_scores(p), copeland_scores(pr)
                assert all(f_c[x] == -g_c[x] for x in f_c)
                sel = borda(p)
                assert not bias_flags(sel, borda(pr), n)[2]
                assert not bias_flags(copeland(p), copeland(pr), n)[2]


def run_compare_json(capsys, pair, h, n):
    code = cli_main(
        ["compare", "--pair", pair, "--h", str(h), "--n", str(n), "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    return code, payload


def test_criterion_6_rule_coincidence_corollaries(capsys):
    with criterion(6, "rule coincidences and separations match over full spaces"):
        code, payload = run_compare_json(capsys, "minimax-copeland", 3, 3)
        assert code == 0
        assert payload["verdict"] == "identical"
        assert payload["examined"] == payload["space"] == anonymous_count(3, 3) == 56

        for h in range(2, 9):
            code, payload = run_compare_json(capsys, "minimax-borda", h, 2)
            assert code == 0 and payload["verdict"] == "identical"
            assert payload["examined"] == payload["space"] == anonymous_count(h, 2) == h + 1

        code, payload = run_compare_json(capsys, "minimax-borda", 3, 3)
        assert code == 0 and payload["verdict"] == "different"
        assert payload["selections"]["minimax"] != payload["selections"]["borda"]

        code, payload = run_compare_json(capsys, "minimax-copeland", 4, 4)
        assert code == 0 and payload["verdict"] == "different"
        assert payload["selections"]["minimax"] != payload["selections"]["copeland"]


def test_criterion_7_graph_property_suite():
    with criterion(7, "structural graph invariants hold on sweeps, samples, cycles"):
        for h, n in [(3, 3), (4, 4), (5, 4)]:
            bad: list[str] = []

            def visit(p):
                v = property_violations(p)
                if v:
                    bad.append(v[0])

            enumerate_anonymous(h, n, visit)
            assert bad == [], bad[:3]

        rng = random.Random(DEFAULT_SEED)
        for _ in range(10_000):
            assert property_violations(random_profile(rng, 7, 5)) == []

        # Cycle side of the acyclicity boundary: below the forcing threshold
        # a constructed profile carries a cycle whenever the counting bound
        # admits one; at and above it, no cycle length survives.
        for h, n in [(3, 3), (4, 4), (5, 4), (7, 5)]:
            mu_g = greenberg_threshold(h, n)
            for mu in range(minimal_threshold(h), h + 1):
                l = smallest_cycle_length(h, n, mu)
                if mu >= mu_g:
                    assert l is None
                    continue
                if l is None:
                    continue
                p = construct_cycle_profile(l, mu, h, n=n)
                g = majority_graph(p, mu)
                assert has_l_cycle(g, l)
                assert not analyze(g).acyclic


def test_criterion_8_verify_output_is_deterministic(capsys):
    with criterion(8, "verify emits byte-identical JSON across repeated runs"):
        args = ["verify", "--h", "2..5", "--n", "2..4", "--json"]
        first_code = cli_main(args)
        first = capsys.readouterr().out
        second_code = cli_main(args)
        second = capsys.readouterr().out
        assert first_code == second_code
        assert first == second

        sampled = [
            "verify", "--h", "5", "--n", "5", "--j", "1",
            "--strategy", "sampled", "--budget", "200", "--json",
        ]
        first_code = cli_main(sampled)
        first = capsys.readouterr().out
        second_code = cli_main(sampled)
        second = capsys.readouterr().out
        assert first_code == second_code == 3
        assert first == second
