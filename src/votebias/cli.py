"""Command line laboratory: audit, verify, graph, compare, fixtures, thresholds.

Machine output (--json/--csv) is a stable contract: keys are sorted, cells
are ordered, and nothing time- or host-dependent is emitted, so two runs
with the same flags and seed produce byte-identical bytes.  Wall-clock
timings appear only in the human tables.

Exit codes: 0 success/consistent, 1 usage or input error, 2 a verification
cell contradicts the expected classification or a comparison's difference is
not confirmed, 3 no contradiction but at least one cell or comparison stayed
inconclusive.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass

from .bias import audit_profile, in_table
from .construct import constructive_witness
from .fixtures import _FAMILIES, _FIXED, load
from .graphs import (
    acyclicity_threshold,
    analyze,
    dominant_set,
    export_dot,
    greenberg_threshold,
    majority_graph,
    minimal_threshold,
    profile_threshold,
)
from .prefs import Profile, ProfileParseError, parse_profile, serialize_profile
from .rules import RULES, TALLY_RULES, condorcet_loser, condorcet_winner
from .search import (
    DEFAULT_EXHAUSTIVE_BUDGET,
    DEFAULT_SAMPLE_BUDGET,
    DEFAULT_SEED,
    MAX_H,
    MAX_N,
    OUTCOME_IMMUNE,
    OUTCOME_INCONCLUSIVE,
    OUTCOME_WITNESS,
    SearchResult,
    anonymous_count,
    profile_from_indices,
    resolve_workers,
    scan_minimax,
    scan_samples,
    search_exhaustive,
    search_sampled,
    table_refusal,
)

MAX_RANGE_VALUES = 10_000

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONTRADICTION = 2
EXIT_INCONCLUSIVE = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; 2 is reserved for contradictions."""

    def error(self, message: str):  # noqa: A003 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_profile(path: str) -> Profile:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise _CliError(
            f"{path}: byte 0x{exc.object[exc.start]:02x} at offset {exc.start} is not ASCII text"
        ) from None
    try:
        return parse_profile(text)
    except ProfileParseError as exc:
        raise _CliError(f"{path}: {exc}") from None


def _parse_values(spec: str, name: str, minimum: int, maximum: int | None = None) -> list[int]:
    """Parse 'A..B', 'A,B,C' or a mix; values are validated and deduplicated.

    The whole spec holds at most MAX_RANGE_VALUES values, counted before
    deduplication, and is refused before the list grows past that.
    """
    values: list[int] = []
    for token in spec.split(","):
        token = token.strip()
        lo_text, dots, hi_text = token.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text if dots else lo_text)
        except ValueError:
            bad = f"range {token!r}; expected A..B" if dots else f"value {token!r}"
            raise _CliError(f"bad {name} {bad}") from None
        if lo > hi:
            raise _CliError(f"empty {name} range {token!r}")
        total = len(values) + hi - lo + 1
        if total > MAX_RANGE_VALUES:
            where = f"spec {spec!r}" if values else f"range {token!r}"
            raise _CliError(
                f"{name} {where} holds {total} values, over the limit of {MAX_RANGE_VALUES}"
            )
        values.extend(range(lo, hi + 1))
    out = sorted(set(values))
    if not out or out[0] < minimum:
        raise _CliError(f"{name} values must be >= {minimum}, got {spec!r}")
    if maximum is not None and out[-1] > maximum:
        raise _CliError(f"{name} values must be <= {maximum}, got {spec!r}")
    return out


def _positive_int(text: str) -> int:
    """argparse type for budgets: a count of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _check_mu(h: int, mu: int) -> None:
    if not (2 * mu > h and mu <= h):
        raise _CliError(f"threshold mu={mu} must satisfy h/2 < mu <= h for h={h}")


# --- audit -------------------------------------------------------------------


def cmd_audit(args: argparse.Namespace) -> int:
    profile = _read_profile(args.profile)
    rules = [r.strip() for r in args.rules.split(",")]
    for r in rules:
        if r not in TALLY_RULES:
            raise _CliError(f"unknown rule {r!r}; choose from {sorted(TALLY_RULES)}")
    if len(set(rules)) < len(rules):
        raise _CliError(f"--rules names a rule twice: {args.rules!r}")
    audited = {rep.rule: rep for rep in audit_profile(profile)}
    reports = [audited[r] for r in rules]
    minimax = audited["minimax"]
    record = {
        "profile": serialize_profile(profile),
        "h": profile.h,
        "n": profile.n,
        "mu_p": minimax.mu_p,
        "mu_pr": minimax.mu_pr,
        "minimax": sorted(minimax.selection_p),
        "minimax_reversal": sorted(minimax.selection_pr),
        "borda": sorted(audited["borda"].selection_p),
        "copeland": sorted(audited["copeland"].selection_p),
        "condorcet_winner": condorcet_winner(profile),
        "condorcet_loser": condorcet_loser(profile),
    }
    graphs = {}
    for mu in args.mu or []:
        _check_mu(profile.h, mu)
        g = majority_graph(profile, mu)
        gr = majority_graph(profile.reverse(), mu)
        graphs[str(mu)] = {
            "profile": {"arcs": sorted(map(list, g.arcs)), **analyze(g).to_json_dict()},
            "reversal": {"arcs": sorted(map(list, gr.arcs)), **analyze(gr).to_json_dict()},
        }
    if args.json:
        _emit_json({
            "record": record,
            "bias": [r.to_json_dict() for r in reports],
            "graphs": graphs,
        })
        return EXIT_OK
    print(f"profile: {profile.h} voters over {profile.n} alternatives")
    print(serialize_profile(profile))
    print(f"thresholds: mu(p)={record['mu_p']}  mu(pr)={record['mu_pr']}")
    print(
        f"condorcet: winner={record['condorcet_winner']} "
        f"loser={record['condorcet_loser']}"
    )
    print(f"{'rule':<10} {'selection p':<16} {'selection pr':<16} t1 t2 t3")
    for rep in reports:
        print(
            f"{rep.rule:<10} {str(sorted(rep.selection_p)):<16} "
            f"{str(sorted(rep.selection_pr)):<16} "
            f"{'y' if rep.type1 else '.'}  {'y' if rep.type2 else '.'}  "
            f"{'y' if rep.type3 else '.'}"
        )
    for mu_text, pair in sorted(graphs.items(), key=lambda kv: int(kv[0])):
        for side in ("profile", "reversal"):
            info = pair[side]
            print(
                f"graph mu={mu_text} {side}: arcs={len(info['arcs'])} "
                f"maximal={info['maximal']} isolated={info['isolated']} "
                f"acyclic={info['acyclic']}"
            )
    return EXIT_OK


# --- graph -------------------------------------------------------------------


def cmd_graph(args: argparse.Namespace) -> int:
    profile = _read_profile(args.profile)
    target = profile.reverse() if args.reverse else profile
    mu = args.mu if args.mu is not None else profile_threshold(target)
    _check_mu(target.h, mu)
    graph = majority_graph(target, mu)
    info = analyze(graph)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="ascii") as fh:
                fh.write(export_dot(graph))
        except OSError as exc:
            raise _CliError(f"cannot write {args.dot}: {exc.strerror}") from None
    payload = {
        "h": target.h,
        "n": target.n,
        "mu": mu,
        "reversed": bool(args.reverse),
        "arcs": sorted(map(list, graph.arcs)),
        "dominant": sorted(dominant_set(target, mu)),
        "analysis": info.to_json_dict(),
    }
    if args.json:
        _emit_json(payload)
        return EXIT_OK
    side = "reversal" if args.reverse else "profile"
    print(f"majority graph of the {side} at mu={mu} ({target.h} voters, {target.n} alternatives)")
    print(f"arcs: {payload['arcs']}")
    print(f"dominant set: {payload['dominant']}")
    a = payload["analysis"]
    print(f"maximal={a['maximal']} minimal={a['minimal']} isolated={a['isolated']}")
    print(f"maxima={a['maxima']} minima={a['minima']} acyclic={a['acyclic']}")
    print(f"components: {a['components']}")
    if args.dot:
        print(f"dot file written to {args.dot}")
    return EXIT_OK


# --- verify ------------------------------------------------------------------


@dataclass
class VerificationCell:
    """One (h, n, j) search result checked against the expected immunity classification."""

    result: SearchResult
    expected: bool
    elapsed: float

    @property
    def consistent(self) -> bool | None:
        if self.result.mismatches:  # dual-route minimax disagreements; any one contradicts
            return False
        if self.result.outcome == OUTCOME_WITNESS:
            return not self.expected
        if self.result.outcome == OUTCOME_IMMUNE:
            return self.expected
        return None

    def to_json_dict(self) -> dict:
        r = self.result
        record = {
            "h": r.h,
            "n": r.n,
            "j": r.j,
            "expected_immune": self.expected,
            "method": r.method,
            "outcome": r.outcome,
            "examined": r.examined,
            "space": r.space,
            "consistent": self.consistent,
        }
        if r.hits is not None:
            record["hits"] = r.hits
        if r.seed is not None:
            record["seed"] = r.seed
        if r.note:
            record["note"] = r.note
        if r.witness is not None:
            record["witness"] = r.witness.to_json_dict()
        return record


def _verify_group(
    h: int,
    n: int,
    js: list[int],
    strategy: str,
    ex_budget: int,
    sample_budget: int,
    seed: int,
    workers: int,
) -> list[VerificationCell]:
    """Verify all requested bias types at one (h, n).

    The auto and exhaustive strategies run search_exhaustive, one complete
    scan for all of js, so examined counts and hit totals do not depend on
    the worker count.  Only auto falls back, per type, and only when the
    exhaustive search was inconclusive: to constructive_witness, and where
    that gives None (always on an expected-immune cell) to search_sampled.
    The exhaustive and sampled searches report a dual-route mismatch in the
    result, never raise it.
    """
    started = time.perf_counter()
    if strategy in ("auto", "exhaustive"):
        results = search_exhaustive(h, n, tuple(js), "minimax", ex_budget, workers)
        if strategy == "exhaustive" or results[0].outcome != OUTCOME_INCONCLUSIVE:
            elapsed = time.perf_counter() - started
            return [VerificationCell(r, in_table(r.j, h, n), elapsed) for r in results]
    cells = []
    for j in js:
        expected = in_table(j, h, n)
        started = time.perf_counter()
        witness = None if strategy == "sampled" else constructive_witness(h, n, j)
        if witness or strategy == "constructive":
            result = SearchResult(
                h=h, n=n, j=j, rule="minimax", method="constructive",
                outcome=OUTCOME_WITNESS if witness else OUTCOME_INCONCLUSIVE,
                examined=1 if witness else 0, space=anonymous_count(h, n), witness=witness,
                note="" if witness else "no constructive recipe applies at this (h, n)",
            )
        else:
            result = search_sampled(h, n, j, "minimax", sample_budget, seed)
        cells.append(VerificationCell(result, expected, time.perf_counter() - started))
    return cells


def cmd_verify(args: argparse.Namespace) -> int:
    h_values = _parse_values(args.h, "h", 2, MAX_H)
    n_values = _parse_values(args.n, "n", 2, MAX_N)
    j_values = _parse_values(args.j, "j", 1, 3)
    ex_budget = args.budget if args.budget is not None else DEFAULT_EXHAUSTIVE_BUDGET
    try:
        workers = resolve_workers(None)
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    cells: list[VerificationCell] = []
    for h in h_values:
        for n in n_values:
            cells.extend(
                _verify_group(
                    h, n, j_values, args.strategy, ex_budget,
                    args.budget or DEFAULT_SAMPLE_BUDGET, args.seed, workers,
                )
            )
    contradicted = sum(1 for c in cells if c.consistent is False)
    inconclusive = sum(1 for c in cells if c.consistent is None)
    consistent = len(cells) - contradicted - inconclusive
    code = (
        EXIT_CONTRADICTION if contradicted
        else EXIT_INCONCLUSIVE if inconclusive
        else EXIT_OK
    )
    summary = {
        "cells": len(cells),
        "consistent": consistent,
        "contradicted": contradicted,
        "inconclusive": inconclusive,
    }
    if args.json:
        _emit_json({"cells": [c.to_json_dict() for c in cells], "summary": summary})
        return code
    if args.csv:
        header = ["h", "n", "j", "expected_immune", "method", "outcome", "examined",
                  "space", "hits", "consistent"]
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        for c in cells:
            record = c.to_json_dict()  # a missing hits and a None verdict write as ""
            writer.writerow([record.get(k) for k in header])
        return code
    print(f"{'h':>3} {'n':>3} {'j':>2} {'expected':<9} {'method':<12} "
          f"{'outcome':<17} {'examined':>10} {'elapsed':>9} verdict")
    for c in cells:
        r = c.result
        verdict = {True: "ok", False: "CONTRADICTION", None: "inconclusive"}[c.consistent]
        expected = "immune" if c.expected else "biased"
        print(
            f"{r.h:>3} {r.n:>3} {r.j:>2} {expected:<9} {r.method:<12} "
            f"{r.outcome:<17} {r.examined:>10} {c.elapsed:>8.2f}s {verdict}"
        )
        if r.note:
            print(f"          note: {r.note}")
    print(
        f"cells: {summary['cells']}  consistent: {consistent}  "
        f"contradicted: {contradicted}  inconclusive: {inconclusive}"
    )
    return code


# --- compare -----------------------------------------------------------------


def cmd_compare(args: argparse.Namespace) -> int:
    """First profile on which two rules select differently, or proof that none does.

    Exhaustive mode is one serial kernel scan with the pair as its rule.  Both rules
    are anonymous and a multiset's sorted arrangement is its least in product order,
    so the first differing profile in product order is the kernel's first differing
    representative, at position examined (a neutrality cut would change which one).
    The profile-level RULES re-derive the selections of a difference before it prints.
    """
    first, _, second = args.pair.partition("-")
    if first not in TALLY_RULES or second not in TALLY_RULES or first == second:
        raise _CliError(
            f"bad pair {args.pair!r}; expected two distinct rules like minimax-borda"
        )
    h, n = args.h, args.n
    if not (2 <= h <= MAX_H and 2 <= n <= MAX_N):
        raise _CliError(f"need 2 <= h <= {MAX_H} and 2 <= n <= {MAX_N}")
    space = anonymous_count(h, n)
    budget = args.budget if args.budget is not None else DEFAULT_EXHAUSTIVE_BUDGET
    refusal = table_refusal(n)
    method = args.strategy
    if method == "auto":
        method = "exhaustive" if space <= budget and not refusal else "sampled"
    examined = 0
    difference: Profile | None = None
    note = ""
    if method == "sampled":
        sample_budget = args.budget or DEFAULT_SAMPLE_BUDGET
        examined, difference, _ = scan_samples(h, n, 1, (first, second), sample_budget, args.seed)
        if difference is None:
            note = f"selections agreed on {sample_budget} samples; not a proof"
    elif space > budget:
        note = f"space holds {space} representatives, over budget {budget}"
    elif refusal:
        note = refusal
    else:
        report = scan_minimax(h, n, want=(1,), stop_early=True, workers=1, rule=(first, second))
        examined = report.examined
        if report.firsts[1] is not None:
            difference = profile_from_indices(n, report.firsts[1])
    if difference is not None:
        selections = sorted(RULES[first](difference)), sorted(RULES[second](difference))
        if selections[0] == selections[1]:
            raise _CliError(
                f"the tally core found {first} and {second} different, but both select "
                f"{selections[0]} on {serialize_profile(difference)!r}",
                EXIT_CONTRADICTION,
            )
    verdict = "different" if difference else "inconclusive" if note else "identical"
    payload = {
        "pair": [first, second],
        "h": h,
        "n": n,
        "method": method,
        "space": space,
        "examined": examined,
        "verdict": verdict,
    }
    if method == "sampled":
        payload["seed"] = args.seed
    if note:
        payload["note"] = note
    if difference is not None:
        payload["profile"] = serialize_profile(difference)
        payload["selections"] = {first: selections[0], second: selections[1]}
    code = EXIT_OK if verdict in ("identical", "different") else EXIT_INCONCLUSIVE
    if args.json:
        _emit_json(payload)
        return code
    print(
        f"{first} vs {second} at h={h}, n={n}: {verdict} "
        f"({examined} of {space} profiles examined, {method})"
    )
    if difference is not None:
        print("first differing profile:")
        print(serialize_profile(difference))
        print(f"{first}: {payload['selections'][first]}")
        print(f"{second}: {payload['selections'][second]}")
    if note:
        print(f"note: {note}")
    return code


# --- fixtures ----------------------------------------------------------------


def cmd_fixtures(args: argparse.Namespace) -> int:
    if args.action == "list":
        fixed = []
        for fixture_id in sorted(_FIXED):
            fx = load(fixture_id)
            fixed.append({
                "id": fx.fixture_id,
                "h": fx.profile.h,
                "n": fx.profile.n,
                "description": fx.description,
            })
        families = [
            {"pattern": f"{name}(k)", "domain": dom, "description": desc}
            for name, (_, dom, desc, _) in sorted(_FAMILIES.items())
        ]
        if args.json:
            _emit_json({"fixed": fixed, "families": families})
            return EXIT_OK
        for row in fixed:
            print(f"{row['id']:<16} h={row['h']:<3} n={row['n']:<3} {row['description']}")
        for row in families:
            print(f"{row['pattern']:<16} {row['domain']:<16} {row['description']}")
        return EXIT_OK
    try:
        fx = load(args.id)
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    text = serialize_profile(fx.profile)
    if args.out:
        try:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise _CliError(f"cannot write {args.out}: {exc.strerror}") from None
        print(f"{fx.fixture_id} written to {args.out}")
    else:
        print(text)
    return EXIT_OK


# --- thresholds ----------------------------------------------------------------


def cmd_thresholds(args: argparse.Namespace) -> int:
    h_values = _parse_values(args.h, "h", 2)
    n_values = _parse_values(args.n, "n", 2)
    total = len(h_values) * len(n_values)
    if total > MAX_RANGE_VALUES:
        raise _CliError(
            f"thresholds grid holds {total} rows, over the limit of {MAX_RANGE_VALUES}"
        )
    rows = []
    for h in h_values:
        for n in n_values:
            rows.append({
                "h": h,
                "n": n,
                "mu_majority": minimal_threshold(h),
                "mu_acyclic_bound": acyclicity_threshold(h, n),
                "mu_greenberg": greenberg_threshold(h, n),
                "immune_type1": in_table(1, h, n),
                "immune_type2": in_table(2, h, n),
                "immune_type3": in_table(3, h, n),
            })
    if args.json:
        _emit_json(rows)
        return EXIT_OK
    header = list(rows[0].keys())
    if args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[k] for k in header])
        return EXIT_OK
    print(f"{'h':>3} {'n':>3} {'mu0':>4} {'muA':>4} {'muG':>4}  T1 T2 T3")
    for row in rows:
        print(
            f"{row['h']:>3} {row['n']:>3} {row['mu_majority']:>4} "
            f"{row['mu_acyclic_bound']:>4} {row['mu_greenberg']:>4}  "
            f"{'y' if row['immune_type1'] else '.':<2} "
            f"{'y' if row['immune_type2'] else '.':<2} "
            f"{'y' if row['immune_type3'] else '.':<2}"
        )
    return EXIT_OK


# --- wiring --------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="votebias",
        description="Audit reversal bias of minimax, Borda and Copeland selections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="audit one profile under every rule")
    p_audit.add_argument("profile", help="profile text file, or - for stdin")
    p_audit.add_argument(
        "--rules", default="minimax,borda,copeland",
        help="comma-separated rules to audit (default: all)",
    )
    p_audit.add_argument(
        "--mu", type=int, action="append",
        help="also summarize the majority graphs at this threshold (repeatable)",
    )
    p_audit.add_argument("--json", action="store_true", help="machine-readable output")
    p_audit.set_defaults(func=cmd_audit)

    p_verify = sub.add_parser(
        "verify", help="check the immunity classification over a grid"
    )
    p_verify.add_argument("--h", default="2..12", help="voter counts, e.g. 2..12 or 3,5")
    p_verify.add_argument("--n", default="2..8", help="alternative counts, e.g. 2..8")
    p_verify.add_argument("--j", default="1,2,3", help="bias types to check")
    p_verify.add_argument(
        "--strategy", default="auto",
        choices=["auto", "exhaustive", "sampled", "constructive"],
    )
    p_verify.add_argument("--budget", type=_positive_int, help="profile budget per cell")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    group = p_verify.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true")
    group.add_argument("--csv", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_graph = sub.add_parser("graph", help="majority graph of a profile at a threshold")
    p_graph.add_argument("profile", help="profile text file, or - for stdin")
    p_graph.add_argument("--mu", type=int, help="threshold (default: profile threshold)")
    p_graph.add_argument("--reverse", action="store_true", help="use the reversed profile")
    p_graph.add_argument("--dot", metavar="PATH", help="write Graphviz DOT here")
    p_graph.add_argument("--json", action="store_true")
    p_graph.set_defaults(func=cmd_graph)

    p_compare = sub.add_parser("compare", help="first profile where two rules differ")
    p_compare.add_argument(
        "--pair", required=True, help="two rules joined by a dash, e.g. minimax-borda"
    )
    p_compare.add_argument("--h", type=int, required=True, help="number of voters")
    p_compare.add_argument("--n", type=int, required=True, help="number of alternatives")
    p_compare.add_argument(
        "--strategy", default="auto", choices=["auto", "exhaustive", "sampled"]
    )
    p_compare.add_argument("--budget", type=_positive_int, help="profile budget")
    p_compare.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_compare.add_argument("--json", action="store_true")
    p_compare.set_defaults(func=cmd_compare)

    p_fixtures = sub.add_parser("fixtures", help="catalog of published profiles")
    fix_sub = p_fixtures.add_subparsers(dest="action", required=True)
    p_list = fix_sub.add_parser("list", help="list catalog entries")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(func=cmd_fixtures)
    p_emit = fix_sub.add_parser("emit", help="print one fixture profile")
    p_emit.add_argument("id", help="fixture id, e.g. tm2-5-4 or tm3-h-3(8)")
    p_emit.add_argument("--out", metavar="PATH", help="write here instead of stdout")
    p_emit.set_defaults(func=cmd_fixtures)

    p_thresholds = sub.add_parser(
        "thresholds", help="threshold landmarks and expected immunity per cell"
    )
    p_thresholds.add_argument("--h", default="2..12")
    p_thresholds.add_argument("--n", default="2..8")
    group = p_thresholds.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true")
    group.add_argument("--csv", action="store_true")
    p_thresholds.set_defaults(func=cmd_thresholds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except _CliError as exc:
        print(f"votebias: error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # The reader closed stdout (as `| head` does).  As the signal module
        # docs advise, point stdout at devnull so that the final flush at exit
        # does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
