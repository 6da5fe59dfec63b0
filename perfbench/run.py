"""maxboot benchmark: wall time of `maxboot run` on fixed Monte Carlo cells.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --report [--seed N] [--seconds S]

Run from the root of a source checkout; the program is imported from
./src, nothing is installed.  Every cell runs in a fresh interpreter
(perfbench/cell.py) with one BLAS thread, and the cell's master seed is
--seed, so one seed gives the same inputs and the same output rows.

--trace 0 repeats the workload's cell untraced for about --seconds and
reports the median run time, set-up time and peak memory.  Every cell
process also times a fixed reference task just before and after the cell,
and times are scaled to the speed at which that task takes REFERENCE_S
(README.md says why).  --trace 1 alternates rounds of an untraced cell at
--jobs 1, a traced cell at --jobs 1 and an untraced cell at --jobs 2, and
reports per-layer self times and counts from the traced cells.  Both first run a probe that
records the environment, spot-checks the per-replicate seed contract and
measures the gamma transform's accuracy.

Every cell is one operation; it fails when `maxboot run` exits non-zero,
when its rows break the output schema, or when its rows differ from the
run's other cells (all cells of a run share one seed, so any --jobs and
tracing must give byte-identical rows).  The last stdout line is the
result object; the lines before it give the environment, sample counts,
quartiles, layer shares and the rows' sha256.

--report runs every workload with --trace 0 and --trace 1 and prints every
metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# shared by every cell: rho, gamma shape, rows and max mode
COMMON = {"rho": 0.2, "shape": 1, "n": 200, "mode": "onesided"}
# Workloads pin down which layer dominates; BENCHMARK.json gives the reasons
# and perfbench/README.md the per-layer predictions.
WORKLOADS = {
    # AR(1), truth:outer = 20:1 as in --preset desk: the gamma transform
    # dominates, bootstrap and streams are small
    "desk-ar1": {
        "experiment": "II", "p": 100, "breps": 200, "schemes": "g,m,r,e,mix",
        "truth": 100, "outer": 5, "jobs": 1,
    },
    # equicorrelated paper cell, truth:outer = 1:1: outer replicates dominate
    "paper-boot": {
        "experiment": "I", "p": 400, "breps": 500, "schemes": "g,m,r,e,mix",
        "truth": 6, "outer": 6, "jobs": 1,
    },
    # the same cell through the process pool
    "paper-boot-j2": {
        "experiment": "I", "p": 400, "breps": 500, "schemes": "g,m,r,e,mix",
        "truth": 6, "outer": 6, "jobs": 2,
    },
}
SCHEMES = ("gaussian", "mammen", "rademacher", "empirical", "mixed")
LAYERS = ("cli", "harness", "datagen", "rng", "bootstrap", "stat_core")
# self times of single spans; together they cover the whole traced cell
SPAN_SELF_TIMES = (
    "cli.self_s", "harness.self_s", "datagen.gamma_quantile_s", "datagen.sample_self_s",
    "rng.stream_s", *(f"bootstrap.{scheme}.self_s" for scheme in SCHEMES),
    "stat_core.max_statistic_s", "stat_core.two_sample_ks_s", "stat_core.upper_quantile_s",
)
COLUMNS = ["experiment", "rho", "shape_alpha", "scheme", "metric", "mean", "std", "reps"]

MIN_CELLS = 3  # untraced cells per --trace 0 run
MIN_ROUNDS = 2  # rounds per --trace 1 run
CELL_TIMEOUT_S = 60
# Seconds of cell.reference_s() on the machine that defines the scale of run_s
# and setup_s: each cell's wall times are multiplied by REFERENCE_S over the
# mean of the reference runs just before and after it.  On a shared host the
# speed drifts by up to 1.6x over minutes, and this divides most of it out.
REFERENCE_S = 0.35


def cell_argv(cell: dict, seed: int, jobs: int) -> list[str]:
    argv = ["run", "--format", "csv", "--seed", str(seed), "--jobs", str(jobs)]
    for key, value in {**COMMON, **cell}.items():
        if key != "jobs":
            argv += [f"--{key}", str(value)]
    return argv


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(mode: str, argv: list[str]) -> tuple[dict | None, str]:
    """Run perfbench/cell.py in a new interpreter; (payload, error)."""
    cmd = [sys.executable, str(HERE / "cell.py"), str(time.monotonic_ns()), mode, json.dumps(argv)]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CELL_TIMEOUT_S)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)  # the cell and any pool workers
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return None, f"{mode} cell timed out after {CELL_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"{mode} cell exited {proc.returncode}: {err.strip()[-400:]}"
    try:
        return json.loads(out.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, f"{mode} cell printed no result"


def row_problems(text: str, cell: dict) -> list[str]:
    """Schema, row count, reps and value-range checks on `maxboot run` CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != COLUMNS:
        return [f"header is {rows[0] if rows else None}"]
    problems = []
    body = rows[1:]
    nschemes = len(cell["schemes"].split(","))
    if len(body) != 2 * nschemes:
        problems.append(f"{len(body)} rows for {nschemes} schemes")
    seen = set()
    for row in body:
        if len(row) != len(COLUMNS):
            problems.append(f"row {row} has {len(row)} fields")
            continue
        rec = dict(zip(COLUMNS, row))
        seen.add((rec["scheme"], rec["metric"]))
        if rec["experiment"] != cell["experiment"]:
            problems.append(f"experiment {rec['experiment']}")
        if rec["reps"] != str(cell["outer"]):
            problems.append(f"{rec['scheme']} {rec['metric']} reps {rec['reps']}")
        try:
            mean, std = float(rec["mean"]), float(rec["std"])
        except ValueError:
            problems.append(f"non-numeric value in {row}")
            continue
        if not (0.0 <= mean <= 1.0 and 0.0 <= std <= 1.0):
            problems.append(f"{rec['scheme']} {rec['metric']} mean {mean} std {std}")
    schemes = {scheme for scheme, _ in seen}
    if seen != {(s, m) for s in schemes for m in ("KS", "Coverage")} or len(schemes) != nschemes:
        problems.append(f"rows cover {sorted(seen)}")
    return problems


class Run:
    """Operations of one benchmark run: attempts, failures and row digests."""

    def __init__(self, workload: str, seed: int):
        self.cell = WORKLOADS[workload]
        self.seed = seed
        self.attempted = 0
        self.problems: list[str] = []
        self.digest: str | None = None

    def probe(self) -> dict | None:
        self.attempted += 1
        payload, error = spawn("probe", cell_argv(self.cell, self.seed, 1))
        if payload is None:
            self.problems.append(error)
        elif payload["spot_mismatched"]:
            self.problems.append(f"replicate contract broken for {payload['spot_mismatched']}")
        return payload

    def cell_run(self, mode: str, jobs: int) -> dict | None:
        """One `maxboot run` of the workload's cell; None if it failed a check."""
        self.attempted += 1
        payload, error = spawn(mode, cell_argv(self.cell, self.seed, jobs))
        if payload is None:
            self.problems.append(error)
            return None
        problems = row_problems(payload["rows"], self.cell)
        if payload["exit"] != 0:
            problems.append(f"maxboot run returned {payload['exit']}")
        digest = hashlib.sha256(payload["rows"].encode()).hexdigest()
        if self.digest is None and not problems:
            self.digest = digest
        elif self.digest is not None and digest != self.digest:
            problems.append(f"{mode} --jobs {jobs} rows differ from the run's first rows")
        if problems:
            self.problems.append("; ".join(problems))
            return None
        return payload


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values)}


def timed_loop(seconds: float, minimum: int, step) -> None:
    """Call step() until another step would pass `seconds`, at least `minimum` times."""
    start = time.perf_counter()
    done = 0
    while True:
        step()
        done += 1
        elapsed = time.perf_counter() - start
        if done >= minimum and elapsed * (done + 1) / done > seconds:
            return


def speed(payload: dict) -> float:
    """Factor taking a cell's wall seconds to seconds at REFERENCE_S speed."""
    return REFERENCE_S / statistics.fmean(payload["reference_s"])


def layer_metrics(spans: dict, scale: float) -> dict:
    """Per-layer metrics of one traced cell from its span summary, with
    every time multiplied by ``scale``."""

    def get(name: str, key: str) -> float:
        if name not in spans:
            return 0
        return spans[name][key] * scale if key.endswith("_s") else spans[name][key]

    def work(name: str) -> list:
        return spans[name]["work"] if name in spans else [0, 0]

    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name in spans:
        m[f"{name.split('.')[0]}.self_s"] += get(name, "self_s")
    m["harness.truth_s"] = get("harness.run_truth", "total_s")
    m["harness.outer_s"] = get("harness.run_experiment", "total_s") - m["harness.truth_s"]
    m["datagen.gamma_quantile_s"] = get("datagen.gamma_quantile", "total_s")
    m["datagen.sample_self_s"] = get("datagen.sample", "self_s")
    m["datagen.datasets"] = get("datagen.sample", "calls")
    sample_s = get("datagen.sample", "total_s")
    m["datagen.entries_per_s"] = work("datagen.sample")[0] / sample_s if sample_s else 0.0
    m["rng.streams"] = get("rng.stream", "calls")
    m["rng.stream_s"] = get("rng.stream", "total_s")
    m["rng.us_per_stream"] = 1e6 * m["rng.stream_s"] / m["rng.streams"] if m["rng.streams"] else 0.0
    for scheme in SCHEMES:
        name = f"bootstrap.{scheme}"
        replicates, madds = work(name)
        m[f"{name}.self_s"] = get(name, "self_s")
        m[f"{name}.replicates"] = replicates
        m[f"{name}.madds"] = madds  # computed as b_reps * n * p, not counted
        m[f"{name}.bytes"] = 8 * madds  # computed as 8 * b_reps * n * p
    for fn in ("max_statistic", "two_sample_ks", "upper_quantile"):
        m[f"stat_core.{fn}_s"] = get(f"stat_core.{fn}", "total_s")
    m["traced_run_s"] = get("cli.run", "total_s")
    return m


def working_set(cell: dict) -> dict:
    n, p, b = COMMON["n"], cell["p"], cell["breps"]
    return {
        "centered_matrix_kb": 8 * n * p / 1000,
        "multiplier_rows_kb": 8 * b * n / 1000,
        "n": n, "p": p, "b_reps": b, "truth": cell["truth"], "outer": cell["outer"],
    }


def machine() -> dict:
    info = {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            info["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None
            )
    except OSError:
        info["cpu"] = None
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            fields = {k: (index / k).read_text().strip() for k in ("level", "type", "size", "shared_cpu_list")}
        except OSError:
            continue
        caches.append(f"L{fields['level']} {fields['type']} {fields['size']} (cpus {fields['shared_cpu_list']})")
    info["caches_cpu0"] = caches
    return info


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict] | None:
    """One benchmark run; (result object, details) or None if nothing was measured."""
    run = Run(workload, seed)
    probe = run.probe()
    details = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "machine": machine(), "working_set": working_set(run.cell),
        "program": probe["env"] if probe else None,
        "replicate_contract": {k: probe[k] for k in ("spot_checked", "spot_mismatched")} if probe else None,
    }
    if trace:
        samples = trace_samples(run, seconds)
        if probe is not None:
            samples["datagen.gamma_quantile_max_rel_err"] = [probe["gamma_max_rel_err"]]
            details["gamma_probe"] = {k: v for k, v in probe.items() if k.startswith("gamma")}
    else:
        samples = plain_samples(run, seconds)
    if not samples:
        print(f"no successful cell; problems: {run.problems}", file=sys.stderr)
        return None
    stats = {name: quartiles(values) for name, values in samples.items()}
    details.update(digest=run.digest, problems=run.problems, samples=stats)
    units = {m["name"]: m["unit"] for m in metric_specs(trace)}
    missing = sorted(set(units) - set(stats))
    if missing:
        print(f"no samples for {missing}; problems: {run.problems}", file=sys.stderr)
        return None
    if trace:
        details["shares_of_traced_run_s"] = shares(stats, [n for n, u in units.items() if u == "s"])
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": len(run.problems),
        "metrics": {name: {"value": stats[name]["median"], "unit": unit} for name, unit in units.items()},
    }
    return result, details


def plain_samples(run: Run, seconds: float) -> dict:
    samples: dict[str, list[float]] = {}
    jobs = run.cell["jobs"]
    if jobs > 1:
        run.cell_run("run", 1)  # rows at --jobs 1 are the reference the pool must match

    def step() -> None:
        payload = run.cell_run("run", jobs)
        if payload is not None:
            for key in ("run_s", "setup_s"):
                samples.setdefault(key, []).append(payload[key] * speed(payload))
                samples.setdefault(f"wall_{key}", []).append(payload[key])
            samples.setdefault("peak_rss_mb", []).append(payload["peak_rss_mb"])
            samples.setdefault("reference_s", []).extend(payload["reference_s"])

    timed_loop(seconds, MIN_CELLS, step)
    return samples


def trace_samples(run: Run, seconds: float) -> dict:
    samples: dict[str, list[float]] = {}
    plain = {1: [], 2: []}

    def step() -> None:
        for jobs, mode in ((1, "run"), (1, "trace"), (2, "run")):
            payload = run.cell_run(mode, jobs)
            if payload is None:
                continue
            if mode == "run":
                plain[jobs].append(payload["run_s"] * speed(payload))
            else:
                for name, value in layer_metrics(payload["layers"], speed(payload)).items():
                    samples.setdefault(name, []).append(value)

    timed_loop(seconds, MIN_ROUNDS, step)
    if plain[1] and plain[2]:
        j1, j2 = statistics.median(plain[1]), statistics.median(plain[2])
        samples["harness.scaling_eff_j2"] = [j1 / (2.0 * j2)]
        samples["run_s_j1"], samples["run_s_j2"] = plain[1], plain[2]
        if "traced_run_s" in samples:
            samples["trace.overhead_frac"] = [statistics.median(samples["traced_run_s"]) / j1 - 1.0]
    return samples


def shares(stats: dict, names: list[str]) -> dict:
    """Each per-layer time as a share of the traced cell's run time."""
    base = stats["traced_run_s"]["median"]
    return {
        name: {"share": stats[name]["median"] / base, "of": "traced_run_s", "base_s": base}
        for name in names
        if name in stats
    }


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def metric_specs(trace: bool) -> list[dict]:
    return benchmark_spec()["per_layer" if trace else "end_to_end"]


def report(seed: int, seconds: float) -> int:
    """Every metric of every workload, with unit and sample count."""
    status = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            measured = measure(workload, seed, seconds, trace)
            if measured is None:
                print(f"{workload} trace={int(trace)}: no result")
                status = 1
                continue
            result, details = measured
            print(f"\n== {workload}  --trace {int(trace)}  seed {seed}  "
                  f"attempted {result['attempted']} failed {result['failed']}  rows sha256 {details['digest']}")
            for problem in details["problems"]:
                print(f"   FAILED: {problem}")
            for name, metric in result["metrics"].items():
                s = details["samples"][name]
                line = f"   {name:34s} {metric['value']:14.6g} {metric['unit']:6s} n={s['n']}"
                if s["n"] > 1:
                    line += f"  q1={s['q1']:.6g} q3={s['q3']:.6g}"
                share = details.get("shares_of_traced_run_s", {}).get(name)
                if share is not None:
                    line += f"  {100 * share['share']:5.1f}% of traced run_s {share['base_s']:.4g} s"
                print(line)
            if trace:
                print("   " + json.dumps(details.get("gamma_probe", {})))
                value = {name: metric["value"] for name, metric in result["metrics"].items()}
                top = max(SPAN_SELF_TIMES, key=value.get)
                print(f"   largest self time: {top} {value[top]:.4g} s, "
                      f"{100 * value[top] / details['samples']['traced_run_s']['median']:.1f}% of traced run_s")
                print(f"   rng.stream_s + bootstrap.self_s = "
                      f"{value['rng.stream_s'] + value['bootstrap.self_s']:.4g} s; "
                      f"datagen.self_s = {value['datagen.self_s']:.4g} s")
            else:
                print("   " + json.dumps({"machine": details["machine"], "program": details["program"],
                                          "working_set": details["working_set"]}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20250808)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="run every workload, both trace modes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "maxboot" / "cli.py").is_file():
        print(f"no maxboot sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    if args.report:
        return report(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required without --report")
    measured = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if measured is None:
        return 1
    result, details = measured
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
