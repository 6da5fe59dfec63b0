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

from maxboot import harness
from maxboot.bootstrap import SCHEME_TOKENS, BootstrapPlan, MultiplierKind
from maxboot.cli import _RUN_KEYS, build_config, main
from maxboot.datagen import Dependence
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


def test_defaults_match_full_scale():
    config, values = build_config(parse_args())
    assert (config.n, config.p) == (200, 400)
    assert (config.outer_reps, config.truth_reps) == (500, 5000)
    assert {plan.b_reps for plan in config.schemes} == {500}
    assert config.copula.structure is Dependence.AR1
    assert [p.name for p in config.schemes] == ["gaussian", "mammen", "rademacher", "empirical"]


def test_desk_preset():
    config, _ = build_config(parse_args("--preset", "desk"))
    assert (config.outer_reps, config.truth_reps, config.p) == (100, 2000, 100)
    assert {plan.b_reps for plan in config.schemes} == {200}
    assert config.n == 200


def test_cli_flag_overrides_preset():
    config, _ = build_config(parse_args("--preset", "desk", "--outer", "7"))
    assert config.outer_reps == 7
    assert config.truth_reps == 2000


def test_config_file_and_cli_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        """
        # comment line
        experiment = I
        rho = 0.8
        outer = 12
        schemes = m,e
        """
    )
    config, _ = build_config(parse_args("--config", str(cfg), "--rho", "0.5"))
    assert config.experiment == "I"
    assert config.copula.rho == 0.5  # CLI wins over file
    assert config.outer_reps == 12
    assert [p.name for p in config.schemes] == ["mammen", "empirical"]


def test_config_file_preset_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = desk\ntruth = 44\n")
    config, _ = build_config(parse_args("--config", str(cfg)))
    assert config.outer_reps == 100  # from preset
    assert config.truth_reps == 44  # file overrides preset member


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 3\n")
    with pytest.raises(ValueError):
        build_config(parse_args("--config", str(cfg)))


def test_config_file_bad_value_names_path_line_and_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("outer = 3\nn = abc\n")
    with pytest.raises(ValueError) as err:
        build_config(parse_args("--config", str(cfg)))
    assert str(err.value) == f"{cfg}:2: key 'n' expects an integer, got 'abc'"


@pytest.mark.parametrize(
    "line, key", [("format = xml", "format"), ("mode = sideways", "mode"), ("experiment = III", "experiment")]
)
def test_config_file_bad_choice_fails_before_the_run(tmp_path, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(ValueError) as err:
        build_config(parse_args("--config", str(cfg)))
    assert str(err.value).startswith(f"{cfg}:1: key '{key}' ")


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
        ("schemes", "g:0.3", "bad scheme 'g:0.3' (use mix[:p0] with p0 a number in (0, 1))"),
        ("schemes", "e:0.2", "bad scheme 'e:0.2' (use mix[:p0] with p0 a number in (0, 1))"),
        ("jobs", "0", "jobs must be at least 1"),
        ("seed", "-1", "seed components must be nonnegative integers"),
        ("out", "", "--out is an empty path"),
        ("truth", "0", "outer_reps and truth_reps must be at least 1"),
        ("p", "0", "need n >= 2 and p >= 1"),
        ("breps", "5000000000", "b_reps must be at most 2**32, got 5000000000"),
        ("shape", "inf", "shape_alpha must be positive and finite, got inf"),
        ("schemes", "zzz", "unknown scheme 'zzz' (use g, m, r, e, mix[:p0])"),
        ("schemes", "g,mix:abc", "bad scheme 'mix:abc' (use mix[:p0] with p0 a number in (0, 1))"),
        ("schemes", "g,mix:0", "bad scheme 'mix:0' (use mix[:p0] with p0 a number in (0, 1))"),
        ("schemes", "g,mix:0.3,mixed:0.4", "scheme names must be unique: mixed appears 2 times, with p0 0.3 and 0.4"),
        ("schemes", "g,e,gaussian,G", "scheme names must be unique: gaussian appears 3 times"),
        ("figure_data", "", "--figure-data is an empty path"),
        ("rho", "1", "rho must lie in [0, 1), got 1.0"),
        ("alpha", "0", "alpha_level must lie in (0, 1)"),
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


def test_config_file_bad_line_is_not_rescued_by_a_later_duplicate(tmp_path, capsys, no_run):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rho = 2\nrho = 0.3\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:1: rho must lie in [0, 1), got 2.0\n"


def test_config_file_reports_its_first_bad_line(tmp_path, capsys, no_run):
    # a range error on line 1 is reported, not the type error after it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("outer = 0\nn = abc\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:1: outer_reps and truth_reps must be at least 1\n"


def test_config_file_out_and_figure_data_naming_one_file_fail_at_the_second(tmp_path, capsys, no_run, monkeypatch):
    # each line passes alone among the defaults; together they name one file
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("out = same.csv\nfigure_data = same.csv\n")
    assert main(["run", "--config", str(cfg)]) == 1
    message = "--out 'same.csv' and --figure-data 'same.csv' name the same file"
    assert capsys.readouterr().err == f"error: {cfg}:2: {message}\n"
    # a flag does not rescue the file, as a later line does not rescue a bad one
    assert main(["run", "--config", str(cfg), "--figure-data", "other.csv"]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: {message}\n"


def test_config_file_with_a_byte_order_mark(tmp_path):
    cfg = tmp_path / "bom.cfg"
    cfg.write_text("preset = desk\ntruth = 44\n", encoding="utf-8-sig")
    assert cfg.read_bytes().startswith(b"\xef\xbb\xbf")
    config, _ = build_config(parse_args("--config", str(cfg)))
    assert (config.outer_reps, config.truth_reps) == (100, 44)


@pytest.mark.parametrize("flag, other", [("--out", "--figure-data"), ("--figure-data", "--out")])
def test_missing_output_directory_fails_before_the_run(tmp_path, capsys, no_run, flag, other):
    missing = tmp_path / "missing" / "rows.csv"
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    assert main(["run", flag, str(missing), other, str(kept)]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: cannot write results to {str(missing)!r}: "
        f"directory {str(missing.parent)!r} does not exist\n"
    )
    assert kept.read_text() == "old\n"
    assert not missing.parent.exists()


@pytest.mark.parametrize("flag, other", [("--out", "--figure-data"), ("--figure-data", "--out")])
def test_directory_as_output_path_fails_before_the_run(tmp_path, capsys, no_run, flag, other):
    directory = tmp_path / "results"
    directory.mkdir()
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    assert main(["run", flag, str(directory), other, str(kept)]) == 1
    assert capsys.readouterr().err == f"error: cannot write results to {str(directory)!r}: it is a directory\n"
    assert kept.read_text() == "old\n"
    assert list(directory.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv", "results"]


@pytest.mark.parametrize("exists", [False, True], ids=["new-file", "existing-file"])
@pytest.mark.parametrize("flag, other", [("--out", "--figure-data"), ("--figure-data", "--out")])
def test_unwritable_output_path_fails_before_the_run(
    tmp_path, capsys, monkeypatch, no_run, flag, other, exists
):
    # the tests may run as root, which no file mode stops, so os.access
    # denies writing to the file when it exists and to its directory when not
    target = tmp_path / "rows.csv"
    if exists:
        target.write_text("old\n")
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    denied = str(target) if exists else str(tmp_path)
    access = os.access
    monkeypatch.setattr(
        os, "access", lambda path, mode, **kw: str(path) != denied and access(path, mode, **kw)
    )
    assert main(["run", flag, str(target), other, str(kept)]) == 1
    reason = "it is not writable" if exists else f"directory {denied!r} is not writable"
    assert capsys.readouterr().err == f"error: cannot write results to {str(target)!r}: {reason}\n"
    assert kept.read_text() == "old\n"
    assert target.exists() == exists
    if exists:
        assert target.read_text() == "old\n"


@pytest.mark.parametrize("exists", [False, True], ids=["new-file", "existing-file"])
@pytest.mark.parametrize("spelling", ["x.csv", "./x.csv", "absolute"])
def test_out_and_figure_data_naming_one_file_fail_before_the_run(
    tmp_path, capsys, monkeypatch, no_run, spelling, exists
):
    # the figure data would overwrite the results table, however the one
    # file is spelled
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "x.csv"
    if exists:
        target.write_text("old\n")
    figure = str(target) if spelling == "absolute" else spelling
    assert main(["run", "--out", "x.csv", "--figure-data", figure]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --out 'x.csv' and --figure-data {figure!r} name the same file\n"
    assert [p.name for p in tmp_path.iterdir()] == (["x.csv"] if exists else [])
    if exists:
        assert target.read_text() == "old\n"


def test_mixed_scheme_with_p0():
    config, _ = build_config(parse_args("--schemes", "mix:0.3,e"))
    assert config.schemes[0].multiplier.p0 == 0.3
    assert config.schemes[0].name == "mixed"


def test_mode_parsing():
    config, _ = build_config(parse_args("--mode", "abs"))
    assert config.mode is MaxMode.ABSOLUTE


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


def test_run_writes_csv_and_figure_data(tmp_path):
    out = tmp_path / "rows.csv"
    fig = tmp_path / "fig.csv"
    code = main(
        [
            "run", "--experiment", "II", "--rho", "0.2", "--shape", "1",
            "--n", "16", "--p", "4", "--outer", "5", "--truth", "40",
            "--breps", "12", "--seed", "3", "--schemes", "m,e",
            "--out", str(out), "--figure-data", str(fig),
        ]
    )
    assert code == 0
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4
    with fig.open() as handle:
        fig_rows = list(csv.DictReader(handle))
    assert len(fig_rows) == 10  # 2 schemes x 5 outer reps


def test_run_exit_code_on_bad_config():
    assert main(["run", "--mode", "sideways"]) == 1  # argparse usage error maps to 1
    assert main(["--help"]) == 0


def test_run_json_output(tmp_path):
    out = tmp_path / "rows.json"
    code = main(
        [
            "run", "--n", "16", "--p", "4", "--outer", "3", "--truth", "20",
            "--breps", "8", "--schemes", "e", "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    parsed = json.loads(out.read_text())
    assert {r["metric"] for r in parsed} == {"KS", "Coverage"}


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
    argv = ["-v", "run", "--p", "100", "--truth", "200", "--outer", "320",
            "--breps", "200", "--jobs", "2", "--out", str(out)]
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
        assert rows and all(0 < int(row["reps"]) < 320 for row in rows)


def test_check_rejects_trials_below_one(capsys):
    assert main(["check", "--suite", "smoothmax", "--trials", "0"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "--trials must be at least 1" in out.err


def test_check_subcommand_json_lines(capsys):
    assert main(["check", "--suite", "lindeberg", "--seed", "5"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(lines) == 20  # n in 2..6, p in {1,2}, two test functions
    assert all(line["passed"] for line in lines)


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


def test_check_smoothmax_suite_quick(capsys):
    assert main(["check", "--suite", "smoothmax", "--trials", "300", "--seed", "2"]) == 0
    names = [json.loads(line)["name"] for line in capsys.readouterr().out.splitlines()]
    assert names == ["smoothmax_sandwich", "fbeta_l1_bounds", "softmax_stability"]


def test_certify_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(8)
    path = tmp_path / "matrix.csv"
    np.savetxt(path, rng.gamma(2.0, 1.0, (40, 5)), delimiter=",")
    assert main(["certify", "--input", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 40 and payload["p"] == 5
    assert payload["certificates"]["empirical"]["gamma_star"] > 0
    assert payload["certificates"]["wild"]["gamma_star"] > 0
    # minimal admissible M differs by exactly the factor two
    assert payload["certificates"]["empirical"]["M"] == pytest.approx(
        2.0 * payload["certificates"]["wild"]["M"], rel=1e-9
    )


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


def test_certify_summary_keys_follow_moment_summary_fields(tmp_path, capsys):
    path = tmp_path / "matrix.csv"
    np.savetxt(path, np.random.default_rng(3).gamma(2.0, 1.0, (40, 6)), delimiter=",")
    assert main(["certify", "--input", str(path)]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert list(summary) == ["M2", "M4", "M6", "sigma_lower", "Mcal4", "Mcal_m1", "Mcal_m2"]
    assert list(summary["Mcal_m1"]) == ["2", "3", "4", "6"]


def test_certify_certificate_keys_follow_rate_certificate_fields(tmp_path, capsys):
    path = tmp_path / "matrix.csv"
    np.savetxt(path, np.random.default_rng(3).gamma(2.0, 1.0, (40, 6)), delimiter=",")
    assert main(["certify", "--input", str(path)]) == 0
    certificates = json.loads(capsys.readouterr().out)["certificates"]
    keys = [field.name for field in dataclasses.fields(RateCertificate)]
    assert keys == ["gamma_star", "branch", "tail_value", "moment_value", "kappa_n4", "M", "b_n"]
    assert {scheme: list(cert) for scheme, cert in certificates.items()} == {"empirical": keys, "wild": keys}
    assert {cert["branch"] for cert in certificates.values()} <= {"TailBranch", "MomentBranch"}


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
