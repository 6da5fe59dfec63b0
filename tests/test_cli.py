import contextlib
import csv
import json
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
from maxboot.cli import _RUN_KEYS, build_config, main
from maxboot.datagen import Dependence
from maxboot.stat_core import MaxMode


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "maxboot.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc


def test_cli_import_loads_no_heavy_scipy_and_no_table():
    # scipy.signal alone would add ~0.7 s and ~50 MB to every run's start-up;
    # the transform table is built on first use, not at import
    code = (
        "import sys, maxboot.cli; from maxboot import datagen; "
        "print([m for m in ('scipy.signal', 'scipy.stats', 'scipy.sparse') if m in sys.modules], "
        "datagen._transform_table.cache_info().currsize)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.stdout.strip() == "[] 0", out.stderr


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


def test_mixed_scheme_bad_p0_names_token(capsys):
    assert main(["run", "--schemes", "g,mix:abc"]) == 1
    err = capsys.readouterr().err
    assert "'mix:abc'" in err and "mix[:p0]" in err


@pytest.mark.parametrize("token", ["mix:2", "mix:0"])
def test_mixed_scheme_p0_out_of_range_names_token(capsys, token):
    assert main(["run", "--schemes", f"g,{token}"]) == 1
    err = capsys.readouterr().err
    assert f"'{token}'" in err and "mix[:p0]" in err


def test_mixed_scheme_keeps_breps_error(capsys):
    assert main(["run", "--schemes", "mix", "--breps", "0"]) == 1
    assert "b_reps must be at least 1" in capsys.readouterr().err


def test_mixed_scheme_with_p0():
    config, _ = build_config(parse_args("--schemes", "mix:0.3,e"))
    assert config.schemes[0].multiplier.p0 == 0.3
    assert config.schemes[0].name == "mixed"


def test_mode_parsing():
    config, _ = build_config(parse_args("--mode", "abs"))
    assert config.mode is MaxMode.ABSOLUTE


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
    assert main(["run", "--schemes", "zzz", "--truth", "5"]) == 1
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


def test_interrupt_writes_chosen_format_and_figure_data(tmp_path, monkeypatch):
    # 16 outer replicates at one job run as eight blocks of two; the second
    # block is interrupted, so the flush holds exactly replicates 0 and 1
    block = harness._outer_block
    calls = []

    def interrupted_block(*args):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return block(*args)

    argv = ["run", "--n", "16", "--p", "4", "--truth", "20", "--breps", "8", "--schemes", "m,e"]
    flushed, flushed_fig = tmp_path / "partial.json", tmp_path / "partial_fig.csv"
    monkeypatch.setattr(harness, "_outer_block", interrupted_block)
    with pytest.raises(KeyboardInterrupt):
        main([*argv, "--outer", "16", "--format", "json",
              "--out", str(flushed), "--figure-data", str(flushed_fig)])

    monkeypatch.setattr(harness, "_outer_block", block)
    clean, clean_fig = tmp_path / "clean.json", tmp_path / "clean_fig.csv"
    assert main([*argv, "--outer", "2", "--format", "json",
                 "--out", str(clean), "--figure-data", str(clean_fig)]) == 0
    assert flushed.read_bytes() == clean.read_bytes()
    assert flushed_fig.read_bytes() == clean_fig.read_bytes()


def test_second_interrupt_at_two_jobs_exits_with_the_flush(tmp_path):
    # Ctrl-C reaches the whole process group; a second SIGINT to the main
    # process must neither hang the run on its pool nor lose the flush
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
            for line in proc.stderr:
                if "outer replicates" in line:
                    break
            time.sleep(1.0)
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


def test_run_rejects_jobs_below_one(capsys):
    argv = ["run", "--n", "8", "--p", "2", "--outer", "2", "--truth", "4", "--breps", "4"]
    assert main([*argv, "--jobs", "0"]) == 1
    assert "jobs must be at least 1" in capsys.readouterr().err


def test_check_rejects_trials_below_one(capsys):
    assert main(["check", "--suite", "smoothmax", "--trials", "0"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "--trials must be at least 1" in out.err


def test_check_subcommand_json_lines():
    proc = run_cli("check", "--suite", "lindeberg", "--seed", "5")
    assert proc.returncode == 0
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(lines) == 20  # n in 2..6, p in {1,2}, two test functions
    assert all(line["passed"] for line in lines)


def test_check_smoothmax_suite_quick():
    proc = run_cli("check", "--suite", "smoothmax", "--trials", "300", "--seed", "2")
    assert proc.returncode == 0
    names = [json.loads(line)["name"] for line in proc.stdout.splitlines()]
    assert names == ["smoothmax_sandwich", "fbeta_l1_bounds", "softmax_stability"]


def test_certify_subcommand(tmp_path):
    rng = np.random.default_rng(8)
    path = tmp_path / "matrix.csv"
    np.savetxt(path, rng.gamma(2.0, 1.0, (40, 5)), delimiter=",")
    proc = run_cli("certify", "--input", str(path))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["n"] == 40 and payload["p"] == 5
    assert payload["certificates"]["empirical"]["gamma_star"] > 0
    assert payload["certificates"]["wild"]["gamma_star"] > 0
    # minimal admissible M differs by exactly the factor two
    assert payload["certificates"]["empirical"]["M"] == pytest.approx(
        2.0 * payload["certificates"]["wild"]["M"], rel=1e-9
    )


def test_certify_bad_known_mean_names_flag(tmp_path, capsys):
    path = tmp_path / "matrix.csv"
    np.savetxt(path, np.ones((4, 2)), delimiter=",")
    assert main(["certify", "--input", str(path), "--known-mean", "abc"]) == 1
    err = capsys.readouterr().err
    assert "--known-mean" in err and "'abc'" in err


def test_certify_missing_file():
    proc = run_cli("certify", "--input", "/nonexistent/m.csv")
    assert proc.returncode == 1
    assert "m.csv" in proc.stderr
