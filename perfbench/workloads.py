"""The three benchmark workloads and the checks on their outputs.

Each workload runs one pass through the public API and returns its raw
output; ``check`` then verifies that output outside the timed region and
counts operations attempted, settled and failed.  An operation is a verify
cell in ``grid`` and ``hard-cells`` and a profile in ``sweep``.

Calls go through module attributes (``bias.audit_profile``, not an imported
name) so that the tracing wrappers, which rebind those attributes, see them.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

from votebias import bias, cli, prefs, properties, rules, search

HERE = Path(__file__).resolve().parent
GRID_REFERENCE = HERE / "grid_reference.json"
# Per-cell fields compared against the reference; other keys may be added freely.
GRID_FIELDS = ("h", "n", "j", "method", "outcome", "examined", "space", "hits", "consistent")
SETTLED = (search.OUTCOME_WITNESS, search.OUTCOME_IMMUNE)


@dataclass
class Outcome:
    """Operation counts of one pass, plus the ratios the trace reports."""

    attempted: int
    settled: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    visited_fraction: float = 0.0
    witness_yield: float = 0.0


@dataclass
class VerifyRun:
    code: int | None
    stdout: str
    error: str = ""


def _run_cli(argv: list[str]) -> VerifyRun:
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
    except Exception as exc:  # a pass that raises counts as failed, it never aborts the run
        return VerifyRun(None, buffer.getvalue(), f"{type(exc).__name__}: {exc}")
    return VerifyRun(code, buffer.getvalue())


def _recertify(witness: dict, j: int) -> str | None:
    """Re-parse and re-certify a printed witness; a problem string or None."""
    try:
        profile = prefs.parse_profile(witness["profile"])
        again = search.certify_witness(
            profile, j, witness["rule"], method=witness["strategy"], seed=witness["seed"]
        )
    except (search.CertificationError, prefs.ProfileParseError, ValueError, KeyError) as exc:
        return f"witness does not re-certify: {type(exc).__name__}: {exc}"
    if again.to_json_dict() != witness:
        return "re-certified witness differs from the printed one"
    return None


def check_verify(
    run: VerifyRun,
    expected_cells: int,
    allowed_codes: tuple[int, ...],
    reference: dict | None = None,
) -> Outcome:
    """Checks shared by the two verify workloads."""
    out = Outcome(attempted=expected_cells)
    if run.error:
        out.failed = expected_cells
        out.problems.append(f"verify raised {run.error}")
        return out
    try:
        cells = json.loads(run.stdout)["cells"]
    except (ValueError, KeyError) as exc:
        out.failed = expected_cells
        out.problems.append(f"verify output is not the JSON report: {exc}")
        return out
    if run.code not in allowed_codes:
        out.problems.append(f"exit code {run.code}, expected one of {allowed_codes}")
    if len(cells) != expected_cells:
        out.problems.append(f"{len(cells)} cells, expected {expected_cells}")
    examined = space = found = 0
    for cell in cells:
        where = f"cell ({cell.get('h')},{cell.get('n')},{cell.get('j')})"
        bad = []
        if cell.get("consistent") is False:
            bad.append("contradicts the expected classification")
        if reference is not None:
            got = [cell.get(k) for k in GRID_FIELDS]
            want = reference.get((cell.get("h"), cell.get("n"), cell.get("j")))
            if got != want:
                bad.append(f"{got} differs from the reference {want}")
        if cell.get("witness") is not None:
            problem = _recertify(cell["witness"], cell["j"])
            if problem:
                bad.append(problem)
        if bad:
            out.failed += 1
            out.problems.extend(f"{where}: {b}" for b in bad)
        elif cell.get("outcome") in SETTLED:
            out.settled += 1
        if cell.get("method") in ("exhaustive", "sampled"):
            examined += cell["examined"]
            space += cell["space"]
            found += cell.get("hits") or (1 if cell.get("witness") else 0)
    out.failed += max(0, expected_cells - len(cells))
    if out.problems and not out.failed:
        out.failed = 1
    out.visited_fraction = examined / space if space else 0.0
    out.witness_yield = found / examined if examined else 0.0
    return out


class Grid:
    """A verify grid for bias types 2 and 3: plain and neutrality-cut scans, no sampling.

    h 2..4 by n 2..8 holds plain kernel scans up to (4,5) and (2,6), cut scans at
    (3,6), (2,7) and (2,8), and constructive witnesses, in about a quarter of the
    default grid's time, so that a run holds several passes.
    """

    name = "grid"
    probe = "kernel"

    def __init__(self, seed: int, tiny: bool = False):
        # The grid is exhaustive and constructive only, so no input depends on the seed.
        h_top, n_top = (3, 4) if tiny else (4, 8)
        self.argv = ["verify", "--h", f"2..{h_top}", "--n", f"2..{n_top}", "--j", "2,3", "--json"]
        h_values, n_values = range(2, h_top + 1), range(2, n_top + 1)
        table = json.loads(GRID_REFERENCE.read_text())
        self.reference = {
            tuple(row[:3]): row for row in table
            if row[0] in h_values and row[1] in n_values
        }

    def run(self, recorder=None) -> VerifyRun:
        return _run_cli(self.argv)

    def check(self, result: VerifyRun) -> Outcome:
        return check_verify(result, len(self.reference), (0,), self.reference)


class HardCells:
    """The (5,5,1) cell: seeded sampling through the object path, never a hit.

    The sample budget is a tenth of verify's default so that a run holds several passes.
    """

    name = "hard-cells"
    probe = "objects"

    def __init__(self, seed: int, tiny: bool = False):
        budget = 200 if tiny else 10_000
        self.argv = ["verify", "--h", "5", "--n", "5", "--j", "1",
                     "--seed", str(seed), "--budget", str(budget), "--json"]

    def run(self, recorder=None) -> VerifyRun:
        return _run_cli(self.argv)

    def check(self, result: VerifyRun) -> Outcome:
        return check_verify(result, 1, (0, 3))


SWEEP_CELLS = ((3, 3), (4, 3), (6, 3), (3, 4), (2, 5))


@dataclass
class SweepRun:
    counts: list = field(default_factory=list)  # per cell: visited count or the error
    records: list = field(default_factory=list)  # per profile: results or the error


class Sweep:
    """Every multiset at a few small cells through all three rules and the property checker."""

    name = "sweep"
    probe = "objects"

    def __init__(self, seed: int, tiny: bool = False):
        # Exhaustive enumeration: the inputs are the cells, the same for every seed.
        self.cells = SWEEP_CELLS[:1] if tiny else SWEEP_CELLS

    def run(self, recorder=None) -> SweepRun:
        out = SweepRun()
        records = out.records

        def visit(profile):
            try:
                reports = bias.audit_profile(profile)
                records.append((
                    reports,
                    properties.property_violations(profile),
                    rules.minimax_direct(profile),
                ))
            except Exception as exc:  # recorded and counted as a failed profile
                records.append(f"{type(exc).__name__}: {exc}")

        if recorder is not None:
            visit = recorder.wrap("sweep.visitor", visit)
        for h, n in self.cells:
            try:
                out.counts.append(search.enumerate_anonymous(h, n, visit))
            except Exception as exc:
                out.counts.append(f"{type(exc).__name__}: {exc}")
        return out

    def check(self, result: SweepRun) -> Outcome:
        expected = [search.anonymous_count(h, n) for h, n in self.cells]
        out = Outcome(attempted=sum(expected))
        for (h, n), want, got in zip(self.cells, expected, result.counts):
            if got != want:
                out.problems.append(f"enumerate_anonymous({h}, {n}) returned {got}, expected {want}")
        biased = 0
        for index, record in enumerate(result.records):
            bad = _sweep_problems(record)
            if bad:
                out.problems.append(f"profile {index}: {bad}")
            else:
                out.settled += 1
                biased += record[0][0].type3
        out.failed = out.attempted - out.settled
        if out.problems and not out.failed:
            out.failed = 1
        out.visited_fraction = len(result.records) / out.attempted
        out.witness_yield = biased / len(result.records) if result.records else 0.0
        return out


def _sweep_problems(record) -> str:
    if isinstance(record, str):
        return record
    reports, violations, direct = record
    if [r.rule for r in reports] != ["minimax", "borda", "copeland"]:
        return f"audited rules {[r.rule for r in reports]}"
    if reports[1].type3 or reports[2].type3:
        return "Borda or Copeland shows type-3 bias"
    if violations:
        return f"property violations {violations}"
    if direct != reports[0].selection_p:
        return f"minimax_direct {sorted(direct)} != audited {sorted(reports[0].selection_p)}"
    return ""


WORKLOADS = {w.name: w for w in (Grid, HardCells, Sweep)}
