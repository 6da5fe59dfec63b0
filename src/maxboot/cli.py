"""Command-line interface.

Subcommands:
  maxboot run      simulate an experiment and emit KS / coverage tables
  maxboot check    run the numerical verification suites, one JSON line each
  maxboot certify  moment summary and rate certificates for a CSV data matrix

Exit codes: 0 success, 1 configuration error, 2 check-suite failure. Exit 1
also means that stdout was closed before the output was written (a reader
such as `| head` stopped early), and then nothing is printed to stderr.
Progress goes to stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import logging
import os
import sys
import warnings

import numpy as np

from maxboot import theorycheck
from maxboot.bootstrap import SCHEME_TOKENS, BootstrapPlan
from maxboot.datagen import CopulaSpec, DataMatrix
from maxboot.harness import (
    EXPERIMENTS,
    FORMATS,
    ExperimentConfig,
    ExperimentResult,
    check_destinations,
    check_jobs,
    emit_figure_data,
    emit_results,
    run_experiment,
)
from maxboot.moments import Centering, _DegenerateSummary, _zero_spread, estimate_moment_summary, rate_certificate
from maxboot.rng import SeedSpec
from maxboot.stat_core import MaxMode

# every `run` key: (type, default, choices, help); the flags are built from
# this table in this order, and config-file values get the same checks
_RUN_KEYS = {
    "experiment": (str, "II", tuple(EXPERIMENTS), None),
    "rho": (float, 0.2, None, None),
    "shape": (float, 1.0, None, "gamma shape parameter"),
    "n": (int, 200, None, None),
    "p": (int, 400, None, None),
    "outer": (int, 500, None, "number of dataset replicates"),
    "truth": (int, 5000, None, "Monte Carlo size of the truth law"),
    "breps": (int, 500, None, "bootstrap replicates per dataset"),
    "alpha": (float, 0.05, None, None),
    "mode": (str, "onesided", tuple(mode.value for mode in MaxMode), None),
    "schemes": (str, "g,m,r,e", None, f"comma list: {','.join(SCHEME_TOKENS)}[:p0]"),
    "seed": (int, 20250808, None, None),
    "jobs": (int, 1, None, "parallel workers over truth and outer replicates"),
    "format": (str, "csv", FORMATS, None),
    "out": (str, None, None, "results path (default stdout)"),
    "figure_data": (str, None, None, "per-replicate KS CSV path"),
}

_PRESETS = {
    "desk": {"outer": 100, "truth": 2000, "breps": 200, "p": 100},
    "paper": {"outer": 500, "truth": 5000, "breps": 500, "n": 200, "p": 400},
}

_DEFAULTS = {key: default for key, (_, default, _, _) in _RUN_KEYS.items()}


def _parse_config_file(path: str) -> dict:
    """Flat key = value file; # starts a comment; keys match the CLI flags.

    Each value is checked as its line is read: its type and choices, and then
    every run rule among the defaults and the file's values read so far. The
    first bad line fails, at its 'FILE:LINE', so a later line (or flag) cannot
    rescue it.
    """
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        try:
            if not sep:
                raise ValueError(f"expected 'key = value', got {raw.rstrip()!r}")
            if key == "preset":
                kind, choices = str, tuple(_PRESETS)
            elif key in _RUN_KEYS:
                kind, _, choices, _ = _RUN_KEYS[key]
            else:
                raise ValueError(f"unknown config key {key!r}")
            try:
                values[key] = kind(value)
            except ValueError:
                expects = "an integer" if kind is int else "a number"
                raise ValueError(f"key {key!r} expects {expects}, got {value!r}") from None
            if choices and values[key] not in choices:
                raise ValueError(f"key {key!r} expects one of {', '.join(choices)}, got {value!r}")
            _resolve({**_DEFAULTS, **values})
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def _resolve(values: dict) -> ExperimentConfig:
    """The run's config from resolved key values; every rule is checked before
    any replicate runs, by the module that owns it."""
    check_jobs(values["jobs"])
    check_destinations(values["out"], values["figure_data"])
    return ExperimentConfig(
        copula=CopulaSpec(EXPERIMENTS[values["experiment"]], values["rho"], values["shape"]),
        n=values["n"],
        p=values["p"],
        schemes=tuple(BootstrapPlan.parse(token, values["breps"]) for token in values["schemes"].split(",")),
        outer_reps=values["outer"],
        truth_reps=values["truth"],
        master_seed=values["seed"],
        alpha_level=values["alpha"],
        mode=MaxMode(values["mode"]),
    )


def build_config(args: argparse.Namespace) -> tuple[ExperimentConfig, dict]:
    """Resolve defaults < preset < config file < explicit CLI flags."""
    file_values = _parse_config_file(args.config) if args.config else {}
    preset = args.preset or file_values.pop("preset", None)
    values = {**_DEFAULTS, **_PRESETS.get(preset, {}), **file_values}
    for key in _RUN_KEYS:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            values[key] = cli_value
    if values["out"] == "-":
        values["out"] = None  # stdout, so Ctrl-C flushes nothing, as without --out
    return _resolve(values), values


def _emit(values: dict, result: ExperimentResult) -> None:
    """Write the rows in --format to --out, and the per-replicate KS values
    to --figure-data when it is set."""
    emit_results(result.rows, values["format"], values["out"])
    if values["figure_data"]:
        emit_figure_data(result.by_scheme("KS"), values["figure_data"])


def _cmd_run(args: argparse.Namespace) -> int:
    config, values = build_config(args)
    emit = functools.partial(_emit, values)
    # Ctrl-C writes the completed replicates to --out; stdout gets nothing
    result = run_experiment(config, jobs=values["jobs"], on_interrupt=emit if values["out"] else None)
    emit(result)
    return 0


def _smoothmax_reports(trials: int, reps: int, base: SeedSpec):
    checks = (theorycheck.check_smoothmax_sandwich, theorycheck.check_l1_bounds, theorycheck.check_softmax_stability)
    return (check(trials, base.child(k)) for k, check in enumerate(checks, 1))


def _lindeberg_reports(trials: int, reps: int, base: SeedSpec):
    cases = itertools.product(range(2, 7), (1, 2), theorycheck.LINDEBERG_TEST_FUNCTIONS)
    return (theorycheck.check_lindeberg_permutation(n, p, f, base.child(4, n, p)) for n, p, f in cases)


def _anticonc_reports(trials: int, reps: int, base: SeedSpec):
    if reps < theorycheck.MIN_MC_REPS:
        raise ValueError(f"--reps must be at least {theorycheck.MIN_MC_REPS} for the anticonc suite")
    cases = itertools.product((1, 10, 100), (0.05, 0.1, 0.2))
    return (theorycheck.check_gaussian_anticoncentration(p, e, reps, base.child(5, p, int(e * 100))) for p, e in cases)


# the check suites in the order that `--suite all` runs them; each checks its
# flags when called and runs its checks only as its reports are taken
_SUITES = {"smoothmax": _smoothmax_reports, "lindeberg": _lindeberg_reports, "anticonc": _anticonc_reports}


def _check_reports(suite: str, trials: int, reps: int, seed: int):
    # every chosen suite is called, so its flags are checked, before any runs
    suites = [_SUITES[name](trials, reps, SeedSpec(seed)) for name in (_SUITES if suite == "all" else [suite])]
    return itertools.chain.from_iterable(suites)


def _cmd_check(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    failed = 0
    for report in _check_reports(args.suite, args.trials, args.reps, args.seed):
        print(json.dumps(dataclasses.asdict(report)))
        if not report.passed:
            failed += 1
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return 2
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    center = Centering(args.center)
    if center is Centering.KNOWN_MEAN and args.known_mean is None:
        raise ValueError("--center known requires --known-mean")
    try:
        with warnings.catch_warnings():
            # numpy warns on a file with no rows; the size test below says so
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(args.input, delimiter=",", ndmin=2, encoding="utf-8-sig")
    except (OSError, ValueError) as exc:
        # a ragged file's message advises `usecols`, which certify does not take
        reason = str(exc).partition("; use `usecols`")[0]
        raise ValueError(f"cannot read input matrix {args.input!r}: {reason}") from exc
    if values.size == 0:
        raise ValueError(f"cannot read input matrix {args.input!r}: it holds no rows")
    known_mean = None
    if args.known_mean is not None:
        try:
            parts = [float(v) for v in args.known_mean.split(",")]
        except ValueError:
            raise ValueError(
                f"--known-mean expects a number or a comma list of numbers, got {args.known_mean!r}"
            ) from None
        p = values.shape[1]
        if len(parts) not in (1, p):
            raise ValueError(f"--known-mean has {len(parts)} values but the input has {p} column{'s' * (p != 1)}")
        if not np.isfinite(parts).all():
            raise ValueError(f"--known-mean entries must be finite, got {args.known_mean!r}")
        known_mean = np.full(p, parts[0]) if len(parts) == 1 else np.array(parts)
    try:
        data = DataMatrix(values=values, known_mean=known_mean)
        summary = estimate_moment_summary(data, center)
        certificates = {
            scheme: dataclasses.asdict(rate_certificate(summary, data.n, data.p, scheme))
            for scheme in ("empirical", "wild")
        }
        payload = {"n": data.n, "p": data.p, "centering": center.value}
        payload.update(summary=dataclasses.asdict(summary), certificates=certificates)
        # a value that overflows fails here rather than printing Infinity
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        reason = str(exc)
        constant = np.flatnonzero(_zero_spread(data, center)) if isinstance(exc, _DegenerateSummary) else ()
        if len(constant):
            reason = f"column {constant[0] + 1} is constant ({reason})"
        raise ValueError(f"cannot certify input matrix {args.input!r}: {reason}") from None
    print(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maxboot")
    parser.add_argument("-v", "--verbose", action="store_true", help="progress logging to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a bootstrap experiment")
    run.add_argument("--config", help="flat key = value config file")
    run.add_argument("--preset", choices=sorted(_PRESETS), help="desk or paper scale")
    for key, (kind, _, choices, doc) in _RUN_KEYS.items():
        flag = "--" + key.replace("_", "-")
        run.add_argument(flag, dest=key, type=kind, choices=choices, help=doc)
    run.set_defaults(func=_cmd_run)

    check = sub.add_parser("check", help="numerical verification suites")
    check.add_argument("--suite", choices=["all", *_SUITES], default="all")
    check.add_argument("--trials", type=int, default=10_000)
    check.add_argument("--reps", type=int, default=100_000, help="MC size for anticoncentration")
    check.add_argument("--seed", type=int, default=20250808)
    check.set_defaults(func=_cmd_check)

    certify = sub.add_parser("certify", help="rate certificates for user data")
    certify.add_argument("--input", required=True, help="CSV matrix, rows = observations")
    certify.add_argument("--center", choices=[center.value for center in Centering], default="sample")
    certify.add_argument("--known-mean", dest="known_mean", help="scalar or comma list")
    certify.set_defaults(func=_cmd_certify)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the CLI contract reserves 2 for
        # failed verification suites and reports configuration errors as 1
        return 0 if exc.code in (0, None) else 1
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        code = args.func(args)
        # a piped stdout holds small output until it is flushed; flush here so
        # that a closed pipe fails inside this try, not at interpreter shutdown
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); fd 1 goes to devnull, so
        # that shutdown does not flush into the pipe and fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
