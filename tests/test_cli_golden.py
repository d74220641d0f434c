"""Whole-output pins of the command line: stdout, stderr and exit code of every
subcommand in each of its formats, and of its common error paths.

tests/data/cli_golden.json holds one case per argv.  `{tmp}` in an argv is a
per-test directory holding `profile.txt` (the fixture tm2-5-4), and it is
written back as `{tmp}` in the captured streams.  The elapsed column of
`verify`'s human table is masked, since it is the one time-dependent field.

To rewrite the file after a deliberate, declared change of output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from votebias import load, serialize_profile
from votebias.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
ELAPSED = re.compile(r" +\d+\.\d\ds")

P = "{tmp}/profile.txt"
MOVED = ("--mu", "4", "--reverse")
SAMPLED = ("--h", "3", "--n", "4", "--strategy", "sampled", "--budget", "200")
CONSTRUCTIVE = ("--h", "3", "--n", "3..5", "--strategy", "constructive")
GRID = ("--h", "2..4", "--n", "2..4")
PAIR = ("compare", "--pair")
SMALL = ("--h", "2..5", "--n", "2..4")
ARGVS = [
    ("audit", P),
    ("audit", P, "--json"),
    ("audit", P, "--mu", "3", "--mu", "4"),
    ("audit", P, "--json", "--mu", "3", "--mu", "4"),
    ("audit", P, "--rules", "borda,minimax"),
    ("graph", P),
    ("graph", P, "--json"),
    ("graph", P, *MOVED),
    ("graph", P, *MOVED, "--json"),
    ("graph", P, "--dot", "{tmp}/p.dot"),
    ("verify", *GRID),
    ("verify", *GRID, "--json"),
    ("verify", *GRID, "--csv"),
    ("verify", *SAMPLED),
    ("verify", *SAMPLED, "--json"),
    ("verify", *SAMPLED, "--csv"),
    ("verify", *CONSTRUCTIVE),
    ("verify", *CONSTRUCTIVE, "--json"),
    ("verify", *CONSTRUCTIVE, "--csv"),
    ("verify", "--h", "5", "--n", "5", "--j", "1", "--budget", "100"),
    ("verify", "--h", "4", "--n", "4", "--strategy", "exhaustive", "--budget", "10", "--csv"),
    (*PAIR, "minimax-borda", "--h", "3", "--n", "3"),
    (*PAIR, "minimax-borda", "--h", "3", "--n", "3", "--json"),
    (*PAIR, "minimax-copeland", "--h", "3", "--n", "3"),
    (*PAIR, "minimax-copeland", "--h", "3", "--n", "3", "--json"),
    (*PAIR, "borda-copeland", "--h", "6", "--n", "4", "--strategy", "sampled"),
    (*PAIR, "borda-copeland", "--h", "6", "--n", "4", "--strategy", "sampled", "--json"),
    (*PAIR, "minimax-borda", "--h", "4", "--n", "4", "--strategy", "exhaustive",
     "--budget", "17549"),
    (*PAIR, "minimax-borda", "--h", "3", "--n", "10", "--budget", "50", "--json"),
    ("fixtures", "list"),
    ("fixtures", "list", "--json"),
    ("fixtures", "emit", "tm2-7-4"),
    ("fixtures", "emit", "tm3-h-3(8)", "--out", "{tmp}/h8.txt"),
    ("thresholds", *SMALL),
    ("thresholds", *SMALL, "--json"),
    ("thresholds", *SMALL, "--csv"),
    # Error paths.
    ("audit", P, "--mu", "2"),
    ("graph", P, "--mu", "6"),
    ("audit", P, "--rules", "minimax,veto"),
    ("audit", "{tmp}/missing.txt"),
    (*PAIR, "minimax-veto", "--h", "3", "--n", "3"),
    (*PAIR, "minimax-borda", "--h", "201", "--n", "3"),
    (*PAIR, "minimax-borda", "--h", "3", "--n", "21"),
    (*PAIR, "minimax-borda", "--h", "3", "--n", "10", "--budget", "10000001"),
    ("fixtures", "emit", "no-such-fixture"),
    ("thresholds", "--h", "2..101", "--n", "2..102"),
]


def capture(argv: tuple[str, ...], tmp: Path, run) -> dict:
    """One case: the argv as pinned, with its masked stdout, stderr and exit code.

    run(argv) calls main on the argv and returns (code, stdout, stderr)."""
    (tmp / "profile.txt").write_text(serialize_profile(load("tm2-5-4").profile) + "\n")
    code, out, err = run([arg.replace("{tmp}", str(tmp)) for arg in argv])

    def mask(text: str) -> str:
        return ELAPSED.sub(" <elapsed>", text.replace(str(tmp), "{tmp}"))

    return {"argv": list(argv), "code": code, "stdout": mask(out), "stderr": mask(err)}


def test_every_listed_argv_is_pinned():
    assert [tuple(case["argv"]) for case in json.loads(GOLDEN.read_text())] == ARGVS


@pytest.mark.parametrize(
    "argv", ARGVS, ids=[" ".join(argv).replace("{tmp}/", "") for argv in ARGVS]
)
def test_output_is_byte_identical_to_the_pin(argv, tmp_path, capsys):
    pinned = {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text())}
    assert capture(argv, tmp_path, lambda a: (main(a), *capsys.readouterr())) == pinned[argv]


def _redirected(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


if __name__ == "__main__":
    cases = []
    for argv in ARGVS:
        with tempfile.TemporaryDirectory() as tmp:
            cases.append(capture(argv, Path(tmp), _redirected))
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"{len(cases)} cases written to {GOLDEN}")
