import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from maxboot import harness, theorycheck
from maxboot.bootstrap import GAUSSIAN, MAMMEN, RADEMACHER, SCHEME_TOKENS, BootstrapPlan, MultiplierKind, mixed_multiplier
from maxboot.cli import _RUN_KEYS, build_config, main
from maxboot.moments import Centering, RateCertificate
from maxboot.stat_core import MaxMode


def run_cli(*argv, stdout=subprocess.PIPE):
    """`maxboot ARGV` in a fresh interpreter, with stderr captured."""
    return subprocess.run(
        [sys.executable, "-m", "maxboot.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_cli_import_loads_no_heavy_scipy_and_no_table():
    # scipy.signal alone would add ~0.7 s and ~50 MB to every run's start-up;
    # the transform table, the BLAS thread lookup and the PCG64 layout check
    # happen on first use, not at import, and the first stream walk imports
    # no module
    code = (
        "import sys, maxboot.cli; from maxboot import _kernels, datagen, rng; "
        "print([m for m in ('scipy.signal', 'scipy.stats', 'scipy.sparse') if m in sys.modules], "
        "datagen._transform_table.cache_info().currsize, "
        "_kernels._blas_threads.cache_info().currsize, "
        "rng._state_write_ok.cache_info().currsize); "
        "before = set(sys.modules); list(rng.SeedSpec(1).child_rngs(2).take(2)); "
        "print(sorted(set(sys.modules) - before))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.stdout.split("\n")[:2] == ["[] 0 0 0", "[]"], out.stderr


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------


def parse_args(*argv):
    from maxboot.cli import _build_parser

    return _build_parser().parse_args(["run", *argv])


def resolved(laws=(GAUSSIAN, MAMMEN, RADEMACHER, None), b_reps=500, **fields):
    """A row's expected config: the full-scale defaults with ``fields`` over
    them, and one plan of ``b_reps`` replicates per law (None: empirical)."""
    defaults = {"experiment": "II", "rho": 0.2, "n": 200, "p": 400, "outer": 500, "truth": 5000,
                "mode": MaxMode.ONE_SIDED}
    return {**defaults, **fields, "schemes": tuple(BootstrapPlan(law, b_reps) for law in laws)}


DESK = {"p": 100, "outer": 100, "truth": 2000, "b_reps": 200}
FILE_PRESET = "preset = desk\ntruth = 44\n"


@pytest.mark.parametrize(
    "text, flags, expected",
    [
        (None, [], resolved()),
        (None, ["--preset", "desk"], resolved(**DESK)),
        (None, ["--preset", "desk", "--outer", "7"], resolved(**{**DESK, "outer": 7})),
        (None, ["--schemes", "mix:0.3,e", "--mode", "abs"],
         resolved((mixed_multiplier(0.3), None), mode=MaxMode.ABSOLUTE)),
        ("\n    # comment line\n    experiment = I\n    rho = 0.8\n    outer = 12\n    schemes = m,e\n",
         ["--rho", "0.5"], resolved((MAMMEN, None), experiment="I", rho=0.5, outer=12)),
        (FILE_PRESET, [], resolved(**{**DESK, "truth": 44})),
        ("\ufeff" + FILE_PRESET, [], resolved(**{**DESK, "truth": 44})),
    ],
    ids=["defaults", "desk", "flag-over-preset", "mixed-and-abs", "flag-over-file", "file-preset", "file-preset-bom"],
)
def test_config_resolves_defaults_then_preset_then_file_then_flags(tmp_path, text, flags, expected):
    if text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        flags = ["--config", str(cfg), *flags]
    config, _ = build_config(parse_args(*flags))
    got = {"experiment": config.experiment, "rho": config.copula.rho, "n": config.n, "p": config.p,
           "outer": config.outer_reps, "truth": config.truth_reps, "mode": config.mode, "schemes": config.schemes}
    assert got == expected


def test_readme_config_keys_match_run_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config file", 1)[1].split("\n#", 1)[0]
    listed = re.search(r"Keys match the long CLI flags: `([^`]*)`, plus `preset`", section)
    assert listed is not None
    assert [key.strip() for key in listed.group(1).split(",")] == list(_RUN_KEYS)


def test_scheme_tokens_are_spelled_once(capsys, monkeypatch):
    # the --schemes help and the unknown-scheme error are built from
    # SCHEME_TOKENS, and every key and law name in it parses to that law
    monkeypatch.setenv("COLUMNS", "200")
    assert main(["run", "--help"]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines() if "--schemes SCHEMES  " in line)
    assert re.split(r"\s{2,}", line.strip())[1] == "comma list: " + ",".join(SCHEME_TOKENS) + "[:p0]"
    assert main(["run", "--schemes", "zzz"]) == 1
    assert f"(use {', '.join(SCHEME_TOKENS)}[:p0])" in capsys.readouterr().err
    for key, law in SCHEME_TOKENS.items():
        for token in (key, law, key.upper(), law.upper()):
            assert BootstrapPlan.parse(token).name == law
        if law != "empirical":
            assert MultiplierKind(law, 0.5 if law == "mixed" else None).name == law
    with pytest.raises(ValueError, match="unknown multiplier law 'empirical'"):
        MultiplierKind("empirical")


def test_mixed_scheme_keeps_breps_error(capsys):
    assert main(["run", "--schemes", "mix", "--breps", "0"]) == 1
    assert capsys.readouterr().err == "error: b_reps must be at least 1\n"


@pytest.fixture
def no_run(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr("maxboot.cli.run_experiment", fail)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("rho", "2", "rho must lie in [0, 1), got 2.0"),
        ("shape", "-1", "shape_alpha must be positive and finite, got -1.0"),
        ("n", "1", "need n >= 2 and p >= 1"),
        ("outer", "0", "outer_reps and truth_reps must be at least 1"),
        ("alpha", "1.5", "alpha_level must lie in (0, 1)"),
        ("breps", "0", "b_reps must be at least 1"),
        ("schemes", "mix:2", "bad scheme 'mix:2' (use mix[:p0] with p0 a number in (0, 1))"),
        ("jobs", "0", "jobs must be at least 1"),
        ("seed", "-1", "seed components must be nonnegative integers"),
        ("out", "", "--out is an empty path"),
        ("truth", "0", "outer_reps and truth_reps must be at least 1"),
        ("p", "0", "need n >= 2 and p >= 1"),
        ("breps", "5000000000", "b_reps must be at most 2**32, got 5000000000"),
        ("shape", "inf", "shape_alpha must be positive and finite, got inf"),
        ("schemes", "zzz", "unknown scheme 'zzz' (use g, m, r, e, mix[:p0])"),
        ("schemes", "g,mix:0.3,mixed:0.4", "scheme names must be unique: mixed appears 2 times, with p0 0.3 and 0.4"),
        ("schemes", "g,e,gaussian,G", "scheme names must be unique: gaussian appears 3 times"),
        ("figure_data", "", "--figure-data is an empty path"),
        ("rho", "1", "rho must lie in [0, 1), got 1.0"),
        ("alpha", "0", "alpha_level must lie in (0, 1)"),
        ("shape", "1e-320",
         "shape_alpha must be at least 2.2250738585072014e-308 (the smallest normal double), got 1e-320"),
    ],
)
def test_config_file_range_error_names_file_and_line(tmp_path, capsys, no_run, key, value, message):
    # each rule of `run`, at its config-file line and as a flag; no_run
    # proves that it fails before any replicate runs or any file is written
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"experiment = I\n{key} = {value}\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: {message}\n"
    # the same value given as a flag keeps its message
    assert main(["run", f"--{key.replace('_', '-')}", value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


SAME_FILE = ("out = same.csv\nfigure_data = same.csv\n", 2,
             "--out 'same.csv' and --figure-data 'same.csv' name the same file")


@pytest.mark.parametrize(
    "text, line, message, flags",
    [
        *[(f"outer = 3\n{bad}\n", 2, message, []) for bad, message in [
            ("bogus = 3", "unknown config key 'bogus'"),
            ("n = abc", "key 'n' expects an integer, got 'abc'"),
            ("rho = abc", "key 'rho' expects a number, got 'abc'"),
            ("format = xml", "key 'format' expects one of csv, json, got 'xml'"),
            ("mode = sideways", "key 'mode' expects one of onesided, abs, got 'sideways'"),
            ("experiment = III", "key 'experiment' expects one of I, II, got 'III'"),
            ("preset = huge", "key 'preset' expects one of desk, paper, got 'huge'"),
            ("outer 3", "expected 'key = value', got 'outer 3'"),
        ]],
        # a later line does not rescue a bad one
        ("rho = 2\nrho = 0.3\n", 1, "rho must lie in [0, 1), got 2.0", []),
        # the range error on line 1, not the type error after it
        ("outer = 0\nn = abc\n", 1, "outer_reps and truth_reps must be at least 1", []),
        # each line passes alone among the defaults; together they name one
        # file, and a flag does not rescue the file, as a later line does not
        (*SAME_FILE, []),
        (*SAME_FILE, ["--figure-data", "other.csv"]),
    ],
    ids=["unknown-key", "not-int", "not-number", "format", "mode", "experiment", "preset", "no-equals",
         "later-duplicate", "first-bad-line", "same-file", "same-file-and-flag"],
)
def test_config_file_error_names_file_and_line(tmp_path, capsys, monkeypatch, no_run, text, line, message, flags):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg), *flags]) == 1
    assert capsys.readouterr() == ("", f"error: {cfg}:{line}: {message}\n")


@pytest.mark.parametrize(
    "make, reason",
    [(lambda path: None, "[Errno 2] No such file or directory"), (Path.mkdir, "[Errno 21] Is a directory")],
    ids=["missing", "directory"],
)
def test_unreadable_config_file_fails_before_the_run(tmp_path, capsys, no_run, make, reason):
    cfg = tmp_path / "run.cfg"
    make(cfg)
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"error: cannot read config file {str(cfg)!r}: {reason}: {str(cfg)!r}\n")


def tree(root: Path) -> dict:
    """Every path under ``root``, with a file's bytes and a link's target."""
    return {
        path: os.readlink(path) if path.is_symlink() else path.read_bytes() if path.is_file() else "directory"
        for path in root.rglob("*")
    }


def bad_output(tmp_path, monkeypatch, case):
    """An output path in ``tmp_path`` that ``case`` makes unusable, and the
    reason that ``run`` gives for refusing it."""
    path = tmp_path / "rows.csv"
    if case == "missing-directory":
        path = tmp_path / "missing" / "rows.csv"
        return path, f"directory {str(path.parent)!r} does not exist"
    if case == "directory":
        path.mkdir()
        return path, "it is a directory"
    if case == "dangling-link":
        path.symlink_to(tmp_path / "missing" / "rows.csv")
        return path, f"directory {str(tmp_path.resolve() / 'missing')!r} does not exist"
    if case == "link-to-directory":
        path.symlink_to(tmp_path)
        return path, "it is a directory"
    if case == "symlink-loop":
        path.symlink_to(path)
        return path, "it is not writable"
    # the tests may run as root, which no file mode stops, so os.access
    # denies writing to the file when it exists and to its directory when not
    exists = case == "unwritable-existing-file"
    if exists:
        path.write_text("old\n")
    denied = str(path) if exists else str(tmp_path)
    access = os.access
    monkeypatch.setattr(os, "access", lambda name, mode, **kw: str(name) != denied and access(name, mode, **kw))
    return path, "it is not writable" if exists else f"directory {denied!r} is not writable"


@pytest.mark.parametrize(
    "case",
    ["missing-directory", "directory", "unwritable-new-file", "unwritable-existing-file", "dangling-link",
     "link-to-directory", "symlink-loop"],
)
@pytest.mark.parametrize("flag, other", [("--out", "--figure-data"), ("--figure-data", "--out")])
def test_bad_output_path_fails_before_the_run(tmp_path, capsys, monkeypatch, no_run, flag, other, case):
    # no_run: no replicate runs; the tree: no file is created or truncated
    path, reason = bad_output(tmp_path, monkeypatch, case)
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    before = tree(tmp_path)
    assert main(["run", flag, str(path), other, str(kept)]) == 1
    assert capsys.readouterr() == ("", f"error: cannot write results to {str(path)!r}: {reason}\n")
    assert tree(tmp_path) == before


@pytest.mark.parametrize("exists", [False, True], ids=["new-file", "existing-file"])
@pytest.mark.parametrize("spelling", ["x.csv", "./x.csv", "absolute", "link.csv"])
def test_out_and_figure_data_naming_one_file_fail_before_the_run(
    tmp_path, capsys, monkeypatch, no_run, spelling, exists
):
    # the figure data would overwrite the results table, however the one
    # file is spelled
    monkeypatch.chdir(tmp_path)
    if exists:
        (tmp_path / "x.csv").write_text("old\n")
    if spelling == "link.csv":
        Path(spelling).symlink_to("x.csv")
    before = tree(tmp_path)
    figure = str(tmp_path / "x.csv") if spelling == "absolute" else spelling
    assert main(["run", "--out", "x.csv", "--figure-data", figure]) == 1
    assert capsys.readouterr() == ("", f"error: --out 'x.csv' and --figure-data {figure!r} name the same file\n")
    assert tree(tmp_path) == before


# ---------------------------------------------------------------------------
# label vocabularies: each option takes the values of the module that owns it
# ---------------------------------------------------------------------------


def owners_values() -> dict:
    return {
        ("run", "experiment"): list(harness.EXPERIMENTS),
        ("run", "mode"): [mode.value for mode in MaxMode],
        ("run", "format"): list(harness.FORMATS),
        ("certify", "center"): [center.value for center in Centering],
    }


def test_label_choices_are_the_owners_values_in_order():
    from maxboot.cli import _build_parser

    (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for (command, key), values in owners_values().items():
        (action,) = [a for a in commands.choices[command]._actions if a.dest == key]
        assert list(action.choices) == values, key
        if command == "run":
            assert list(_RUN_KEYS[key][2]) == values, key  # the config-file check


@pytest.mark.parametrize("key", ["experiment", "mode", "format"])
def test_each_run_label_resolves_to_its_owners_object(tmp_path, key):
    cfg = tmp_path / "run.cfg"
    for label in owners_values()["run", key]:
        cfg.write_text(f"{key} = {label}\n")
        for args in (parse_args(f"--{key}", label), parse_args("--config", str(cfg))):
            config, values = build_config(args)
            assert values[key] == label
            if key == "experiment":
                assert config.copula.structure is harness.EXPERIMENTS[label]
                assert config.experiment == label
            elif key == "mode":
                assert config.mode is MaxMode(label)
            else:
                out = tmp_path / f"rows.{label}"
                harness.emit_results([harness.ResultRow("I", 0.2, 1.0, "x", "KS", 0.5, 0.1, 3)], label, str(out))
                assert out.read_text()


def test_each_centering_is_accepted_and_echoed(tmp_path, capsys):
    path = tmp_path / "matrix.csv"
    np.savetxt(path, np.random.default_rng(3).gamma(2.0, 1.0, (40, 3)), delimiter=",")
    for label in owners_values()["certify", "center"]:
        assert main(["certify", "--input", str(path), "--center", label, "--known-mean", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["centering"] == label


# ---------------------------------------------------------------------------
# subcommands end to end
# ---------------------------------------------------------------------------


def test_run_exit_code_on_bad_config():
    assert main(["run", "--mode", "sideways"]) == 1  # argparse usage error maps to 1
    assert main(["--help"]) == 0


def test_interrupt_writes_chosen_format_and_figure_data(tmp_path, interrupt_block):
    argv = ["run", "--n", "16", "--p", "4", "--truth", "20", "--breps", "8", "--schemes", "m,e"]
    clean, clean_fig = tmp_path / "clean.json", tmp_path / "clean_fig.csv"
    assert main([*argv, "--outer", "2", "--format", "json",
                 "--out", str(clean), "--figure-data", str(clean_fig)]) == 0

    # 16 outer replicates at one job run as eight blocks of two; the second
    # block is interrupted, so the flush holds exactly replicates 0 and 1
    interrupt_block("_outer_block")
    flushed, flushed_fig = tmp_path / "partial.json", tmp_path / "partial_fig.csv"
    with pytest.raises(KeyboardInterrupt):
        main([*argv, "--outer", "16", "--format", "json",
              "--out", str(flushed), "--figure-data", str(flushed_fig)])
    assert flushed.read_bytes() == clean.read_bytes()
    assert flushed_fig.read_bytes() == clean_fig.read_bytes()


def test_out_dash_is_stdout_as_without_out(interrupt_block, capsys):
    argv = ["run", "--n", "16", "--p", "4", "--truth", "20", "--breps", "8", "--schemes", "m,e", "--outer", "16"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main([*argv, "--out", "-"]) == 0
    assert capsys.readouterr().out == plain

    # Ctrl-C in the second outer block: as without --out, stdout gets nothing
    calls = interrupt_block("_outer_block")
    with pytest.raises(KeyboardInterrupt):
        main([*argv, "--out", "-"])
    assert len(calls) == 2
    assert capsys.readouterr().out == ""


def test_unallocatable_size_is_a_config_error(capsys):
    # numpy refuses the (n, p) array of 8e18 bytes before touching memory;
    # Experiment I would first allocate a real (n, 1) column
    argv = ["run", "--experiment", "II", "--n", "1000000000", "--p", "1000000000",
            "--outer", "1", "--truth", "1", "--breps", "2", "--schemes", "g"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: Unable to allocate")


@pytest.mark.parametrize("jobs, truth_step, outer_step", [(1, 4, 2), (2, 2, 1)])
def test_progress_lines_count_each_block(jobs, truth_step, outer_step):
    # each phase runs in blocks of ceil(total / (8 * jobs)) replicates
    proc = run_cli("-v", "run", "--n", "20", "--p", "5", "--outer", "10", "--truth", "30",
                   "--breps", "20", "--schemes", "g,e", "--jobs", str(jobs))
    assert proc.returncode == 0, proc.stderr

    def done(what, step, total):
        return [f"{what} replicates done: {min(k, total)} of {total}" for k in range(step, total + step, step)]

    lines = ["simulating truth law: 30 replicates", *done("truth", truth_step, 30),
             "running 10 outer replicates", *done("outer", outer_step, 10)]
    assert proc.stderr.splitlines() == [f"INFO maxboot.harness: {line}" for line in lines]


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["run", "check", "certify"])
def test_closed_stdout_exits_1_with_nothing_on_stderr(tmp_path, monkeypatch, command, unbuffered):
    # a reader that stops early (`maxboot certify ... | head`) is not an error
    # of the program; the pipe's read end is closed before the child starts.
    # A buffered stdout (the default on a pipe) holds the output until a flush;
    # an unbuffered one (PYTHONUNBUFFERED) fails at the command's first write
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(MATRIX)
    argv = {
        "run": ["--n", "20", "--p", "5", "--outer", "2", "--truth", "20", "--breps", "20"],
        "check": ["--suite", "smoothmax", "--trials", "10"],
        "certify": ["--input", str(matrix)],
    }[command]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_cli(command, *argv, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_interrupt_in_the_truth_phase_writes_nothing(tmp_path, interrupt_block):
    # the truth law at one job runs as eight blocks; the second is interrupted
    calls = interrupt_block("_truth_block")
    out = tmp_path / "rows.csv"
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--n", "16", "--p", "4", "--truth", "40", "--outer", "4",
              "--breps", "8", "--schemes", "m,e", "--out", str(out)])
    assert len(calls) == 2
    assert list(tmp_path.iterdir()) == []


def test_second_interrupt_at_two_jobs_exits_with_the_flush(tmp_path):
    # Ctrl-C reaches the whole process group; a second SIGINT to the main
    # process must neither hang the run on its workers nor lose the flush
    out = tmp_path / "rows.csv"
    # a block is 1/16 of the outer replicates: on a 2-vCPU Xeon the first is
    # done after about 2 s and the run goes on for 11-14 s more, so a reader
    # slowed by a loaded host still interrupts it before its end
    outer = 8000
    argv = ["-v", "run", "--n", "40", "--p", "20", "--truth", "200", "--outer", str(outer),
            "--breps", "50", "--jobs", "2", "--out", str(out)]
    for _ in range(3):
        out.unlink(missing_ok=True)
        proc = subprocess.Popen(
            [sys.executable, "-m", "maxboot.cli", *argv],
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            # interrupt as soon as a block has completed, so there is something to flush
            for line in proc.stderr:
                if "outer replicates done" in line:
                    break
            os.killpg(proc.pid, signal.SIGINT)
            time.sleep(0.05)
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=15) == -signal.SIGINT
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            proc.stderr.close()
        with out.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows and all(0 < int(row["reps"]) < outer for row in rows)


def test_check_rejects_trials_below_one(capsys):
    assert main(["check", "--suite", "smoothmax", "--trials", "0"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "--trials must be at least 1" in out.err


@pytest.mark.parametrize("suite", ["all", "anticonc"])
def test_check_small_reps_fails_before_any_suite(capsys, suite):
    assert main(["check", "--suite", suite, "--reps", "500"]) == 1
    assert capsys.readouterr() == ("", "error: --reps must be at least 10000 for the anticonc suite\n")


def test_check_suite_all_is_every_suite_in_order(capsys):
    flags = ["--trials", "200", "--reps", "10000", "--seed", "11"]
    outputs = {}
    for suite in ("all", "smoothmax", "lindeberg", "anticonc"):
        assert main(["check", "--suite", suite, *flags]) == 0
        outputs[suite] = capsys.readouterr().out
    assert outputs.pop("all") == "".join(outputs.values())


def test_a_failed_check_exits_2_after_every_report(capsys, monkeypatch):
    def failed(trials, seed):
        return theorycheck.CheckReport("softmax_stability", False, 1.0, trials, "")

    monkeypatch.setattr(theorycheck, "check_softmax_stability", failed)
    assert main(["check", "--suite", "smoothmax", "--trials", "3"]) == 2
    out, err = capsys.readouterr()
    assert err == "1 check(s) failed\n"
    assert [json.loads(line)["passed"] for line in out.splitlines()] == [True, True, False]


def test_certify_prints_the_summary_and_both_certificates(tmp_path, capsys):
    path = tmp_path / "matrix.csv"
    np.savetxt(path, np.random.default_rng(8).gamma(2.0, 1.0, (40, 5)), delimiter=",")
    assert main(["certify", "--input", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["n", "p", "centering", "summary", "certificates"]
    assert (payload["n"], payload["p"], payload["centering"]) == (40, 5, "sample")
    summary, certificates = payload["summary"], payload["certificates"]
    assert list(summary) == ["M2", "M4", "M6", "sigma_lower", "Mcal4", "Mcal_m1", "Mcal_m2"]
    assert list(summary["Mcal_m1"]) == ["2", "3", "4", "6"]
    keys = [field.name for field in dataclasses.fields(RateCertificate)]
    assert keys == ["gamma_star", "branch", "tail_value", "moment_value", "kappa_n4", "M", "b_n"]
    assert {scheme: list(cert) for scheme, cert in certificates.items()} == {"empirical": keys, "wild": keys}
    assert {cert["branch"] for cert in certificates.values()} <= {"TailBranch", "MomentBranch"}
    # minimal admissible M differs by exactly the factor two
    assert certificates["empirical"]["M"] == pytest.approx(2.0 * certificates["wild"]["M"], rel=1e-9)


# every certify error that is ours to word: the message in full, and nothing on stdout
CANNOT = "cannot certify input matrix {path}: "
MATRIX = "1,2\n3,5\n4,7\n"
OVERFLOW = CANNOT + "Out of range float values are not JSON compliant: inf"


@pytest.mark.parametrize(
    "text, flags, message",
    [
        (MATRIX, ["--known-mean", "abc"], "--known-mean expects a number or a comma list of numbers, got 'abc'"),
        (MATRIX, ["--known-mean", "1,2,3"], "--known-mean has 3 values but the input has 2 columns"),
        ("1\n2\n4\n", ["--known-mean", "1,2"], "--known-mean has 2 values but the input has 1 column"),
        (MATRIX, ["--known-mean", "1,inf"], "--known-mean entries must be finite, got '1,inf'"),
        (MATRIX, ["--center", "known"], "--center known requires --known-mean"),
        ("1,2\n3,nan\n4,7\n", [], CANNOT + "data entries must be finite"),
        ("1,2\n", [], CANNOT + "need at least two rows"),
        ("1\n2\n4\n", [], CANNOT + "need n >= 2 and p >= 2"),
        ("1,5,2\n3,5,4\n4,5,7\n", [], CANNOT + "column 2 is constant (degenerate summary: sigma_lower must be positive)"),
        # the mean of three 0.1s is not 0.1, so centring alone leaves a spread
        ("0.1,1\n0.1,2\n0.1,4\n", [], CANNOT + "column 1 is constant (degenerate summary: sigma_lower must be positive)"),
        # a certificate value that overflows: columns 1e300 apart in scale
        # (kappa_n4), M = 2 sigma^(1/3) M4^(2/3), and M6 of one column itself
        ("1e-300,1\n2e-300,2\n3e-300,4\n", [], OVERFLOW),
        ("1e308,-1e308\n1.5e308,1e308\n-1e308,1.7e308\n", [], OVERFLOW),
        ("1.7e308,1\n-1.7e308,2\n-1.7e308,4\n", [], OVERFLOW),
    ],
    ids=[
        "known-mean-abc", "known-mean-too-long", "known-mean-too-long-for-one-column", "known-mean-inf",
        "known-without-mean", "non-finite", "one-row", "one-column", "constant-column",
        "constant-column-unrounded-mean", "kappa_n4-overflows", "M-overflows", "M6-overflows",
    ],
)
def test_certify_rejects_bad_input(tmp_path, capsys, text, flags, message):
    path = tmp_path / "matrix.csv"
    path.write_text(text)
    assert main(["certify", "--input", str(path), *flags]) == 1
    assert capsys.readouterr() == ("", f"error: {message.format(path=repr(str(path)))}\n")


@pytest.mark.parametrize(
    "text, reason",
    [
        (None, ""),
        ("", "it holds no rows"),
        ("1,2\n3,4,5\n", "the number of columns changed from 2 to 3"),
        ("1,2\n3,x\n", "could not convert string 'x'"),
    ],
    ids=["missing", "empty", "ragged", "non-numeric"],
)
def test_certify_unreadable_input_names_the_file(tmp_path, capsys, text, reason):
    # numpy words its reasons differently between releases, so only their start
    # is compared; filterwarnings = error: a numpy warning would escape main
    path = tmp_path / "matrix.csv"
    if text is not None:
        path.write_text(text)
    assert main(["certify", "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read input matrix {str(path)!r}: {reason}")
    assert "usecols" not in err and err.count("\n") == 1


def strict_json(text):
    """``text`` parsed as JSON, refusing the Infinity and NaN that json.dumps writes by default."""

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("scale", [1e60, 1e200, 1e-200])
def test_certify_does_not_depend_on_the_scale_of_the_data(tmp_path, capsys, scale):
    # filterwarnings = error: a power that overflows would escape main as a
    # traceback; a column of 1e-200s has squares that underflow to 0
    path, scaled = tmp_path / "matrix.csv", tmp_path / "scaled.csv"
    values = np.array([[1.0, 2.0], [3.0, 5.0], [4.0, 7.0]])
    np.savetxt(path, values, delimiter=",")
    np.savetxt(scaled, values * scale, delimiter=",")
    assert main(["certify", "--input", str(path)]) == 0
    plain = strict_json(capsys.readouterr().out)
    assert main(["certify", "--input", str(scaled)]) == 0
    payload = strict_json(capsys.readouterr().out)
    sigma_lower = scale * plain["summary"]["sigma_lower"]
    assert payload["summary"]["sigma_lower"] == pytest.approx(sigma_lower, rel=1e-12, abs=0.0)
    for scheme, certificate in payload["certificates"].items():
        assert certificate["gamma_star"] == pytest.approx(plain["certificates"][scheme]["gamma_star"], rel=1e-12)
        assert certificate["kappa_n4"] == pytest.approx(plain["certificates"][scheme]["kappa_n4"], rel=1e-12)


def test_certify_a_column_of_tiny_entries_is_not_constant(tmp_path, capsys):
    path = tmp_path / "matrix.csv"
    path.write_text("1e-200,1\n2e-200,2\n3e-200,4\n")
    assert main(["certify", "--input", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert strict_json(out)["summary"]["sigma_lower"] == pytest.approx(math.sqrt(2 / 3) * 1e-200, rel=1e-12, abs=0.0)


def test_certify_input_with_a_byte_order_mark(tmp_path, capsys):
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(MATRIX)
    bom.write_text(MATRIX, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert main(["certify", "--input", str(plain)]) == 0
    expected = capsys.readouterr().out
    assert main(["certify", "--input", str(bom)]) == 0
    assert capsys.readouterr().out == expected
