"""The CLI's bytes against recorded outputs in tests/golden/.

Each case runs `latref.cli.main` in process, once with the text report and
once with `--json -`, and compares stdout, stderr and the exit code with
the recorded `<case>.<mode>.stdout`, `<case>.<mode>.stderr` and
`exit_codes.json`.  After a deliberate output change, regenerate the
records with

    PYTHONPATH=src python tests/test_cli_golden.py

and state the change and its reason with the commit.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from latref.cli import main

GOLDEN = Path(__file__).parent / "golden"
CODES = GOLDEN / "exit_codes.json"
# argparse wraps its usage lines to the terminal width
COLUMNS = "80"

# case name -> (command, instance file in tests/golden/, further arguments)
CASES = {
    "reformulate-cuww1-s1": ("reformulate", "cuww1.txt", "--s", "1"),
    "reformulate-ms2": ("reformulate", "market-split-m2-s1.txt"),
    "width-cuww1": ("width", "cuww1.txt", "--b", "89643481"),
    "frobenius-bound-cuww1": ("frobenius-bound", "cuww1.txt"),
    "frobenius-exact-cuww1": ("frobenius-exact", "cuww1.txt"),
    "solve-orig-ms2": ("solve", "market-split-m2-s1.txt"),
    "solve-orig-ms2-limit": ("solve", "market-split-m2-s1.txt", "--node-limit", "10"),
    "solve-ahl-ms2": ("solve", "market-split-m2-s1.txt", "--formulation", "ahl"),
    "solve-ext-ms2": ("solve", "market-split-m2-s1.txt", "--formulation", "ext", "--s", "1"),
    "solve-ahl-cuww1-f1": ("solve", "cuww1-f1.txt", "--formulation", "ahl"),
    "solve-ext-cuww1-f1": ("solve", "cuww1-f1.txt", "--formulation", "ext", "--s", "1"),
    "compare-ms2": ("compare", "market-split-m2-s1.txt", "--s", "1,4,8"),
    "usage-compare-bad-s": ("compare", "market-split-m2-s1.txt", "--s", "1,x"),
}
RUNS = [(case, mode) for case in CASES for mode in ("text", "json")]


def run_cli(case, mode):
    """(exit code, stdout, stderr) of one case; COLUMNS must be set."""
    command, instance, *rest = CASES[case]
    argv = [command, str(GOLDEN / instance), *rest]
    if mode == "json":
        argv += ["--json", "-"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case,mode", RUNS)
def test_cli_matches_golden(case, mode, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    code, out, err = run_cli(case, mode)
    stem = "%s.%s" % (case, mode)
    assert out == (GOLDEN / (stem + ".stdout")).read_text()
    assert err == (GOLDEN / (stem + ".stderr")).read_text()
    assert code == json.loads(CODES.read_text())[stem]


def regenerate():
    os.environ["COLUMNS"] = COLUMNS
    codes = {}
    for case, mode in RUNS:
        code, out, err = run_cli(case, mode)
        stem = "%s.%s" % (case, mode)
        (GOLDEN / (stem + ".stdout")).write_text(out)
        (GOLDEN / (stem + ".stderr")).write_text(err)
        codes[stem] = code
    CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
