"""The run contract pinned by files: stdout and ``--figure-data`` of two small
``maxboot run`` cells, one per dependence structure, all five laws, and the
stdout of one small ``maxboot check`` over every suite.

On the numpy and scipy versions that wrote the files the bytes must match.
Elsewhere a library may round differently in its last bits, so the values are
compared to a tolerance instead; the test prints which check it ran (shown
with ``pytest -rA``).  Regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` only when the contract is meant
to change.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from maxboot.cli import main

DATA = Path(__file__).parent / "data"
VERSIONS = DATA / "golden_versions.json"
SMALL = ["--n", "60", "--p", "9", "--outer", "5", "--truth", "80", "--breps", "70", "--schemes", "g,m,r,e,mix:0.3"]
RUNS = {
    "golden_I_abs": ["--experiment", "I", "--rho", "0.5", "--shape", "2", "--mode", "abs", "--format", "json"],
    "golden_II": ["--experiment", "II", "--rho", "0.2", "--shape", "1", "--seed", "11"],
}
CHECK = ["check", "--suite", "all", "--trials", "200", "--reps", "10000", "--seed", "11"]
CHECK_FILE = "golden_check.jsonl"


def results_file(name: str) -> str:
    return name + (".json" if "json" in RUNS[name] else ".csv")


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def stdout_of(argv: list[str]) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    return stdout.getvalue()


def run(name: str, figure: Path) -> str:
    """stdout of the named run, with its figure data written to ``figure``."""
    return stdout_of(["run", *SMALL, *RUNS[name], "--figure-data", str(figure)])


def table(name: str, text: str) -> list[list]:
    """The rows of a results, figure-data or check file, floats parsed; a check
    line without its details, which only repeat its numbers as text."""
    if name.endswith(".jsonl"):
        keys = ("name", "passed", "trials", "max_violation")
        return [[json.loads(line)[key] for key in keys] for line in text.splitlines()]
    if name.endswith(".json"):
        return [list(row.values()) for row in json.loads(text)]
    return [[number(v) for v in row] for row in csv.reader(io.StringIO(text))]


def number(text: str) -> float | str:
    try:
        return float(text)
    except ValueError:
        return text


def first_difference(name: str, got: str, want: str, exact: bool) -> str | None:
    if exact:
        got_rows, want_rows = got.splitlines(keepends=True), want.splitlines(keepends=True)
    else:
        got_rows, want_rows = table(name, got), table(name, want)
    if len(got_rows) != len(want_rows):
        return f"{len(got_rows)} {'lines' if exact else 'rows'}, the file has {len(want_rows)}"
    for i, (g, w) in enumerate(zip(got_rows, want_rows)):
        close = g == w or (
            not exact
            and len(g) == len(w)
            and all(
                a == b or (isinstance(a, float) and isinstance(b, float) and np.isclose(a, b, rtol=1e-6, atol=1e-9))
                for a, b in zip(g, w)
            )
        )
        if not close:
            return f"{'line' if exact else 'row'} {i + 1}: got {g!r}, the file has {w!r}"
    return None


def compare(name: str, outputs: dict[str, str]) -> None:
    """Each output against its file, by bytes on the versions that made the
    files, else by values; prints which."""
    made = json.loads(VERSIONS.read_text())
    now = versions()
    exact = made == now
    for file, got in outputs.items():
        problem = first_difference(file, got, (DATA / file).read_text(), exact)
        assert problem is None, f"{file} {problem} (files made on {made}, run on {now})"
    print(f"{name}: compared {'bytes' if exact else 'values'} (files made on {made}, run on {now})")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden_files(name, tmp_path):
    figure = tmp_path / "figure.csv"
    stdout = run(name, figure)
    compare(name, {results_file(name): stdout, name + "_figure.csv": figure.read_text()})


def test_check_matches_golden_file():
    """Every suite's report lines.  The smooth-max derivative tensors of orders
    2 to 4 do not reach them: in the l1 check, order 1 (the softmax weights,
    l1 norm 1 up to rounding) gives both the worst excess and the largest
    ratio.  The closed-form test in ``test_theorycheck.py`` pins those tensors."""
    compare("check", {CHECK_FILE: stdout_of(CHECK)})


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name in RUNS:
        (DATA / results_file(name)).write_text(run(name, DATA / (name + "_figure.csv")))
    (DATA / CHECK_FILE).write_text(stdout_of(CHECK))
    VERSIONS.write_text(json.dumps(versions()) + "\n")
