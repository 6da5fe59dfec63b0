"""Run one maxboot cell in a fresh interpreter and print one JSON line.

Usage: python3 perfbench/cell.py SPAWN_NS MODE ARGV_JSON

SPAWN_NS is the CLOCK_MONOTONIC reading, in nanoseconds, that the parent
took just before it started this interpreter; ARGV_JSON is the `maxboot`
argument list of the cell, e.g. ["run", "--p", "100", ...].  MODE is

  run    time the `maxboot run` command body with tracing off;
  trace  the same, with spans around each layer's public functions;
  probe  record the environment, spot-check the per-replicate seed
         contract on all five schemes, and measure the gamma transform's
         accuracy on a fixed grid.

This file imports nothing from maxboot but `maxboot.cli` before set-up is
timed, so set-up covers exactly what `maxboot run` itself imports.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def main() -> None:
    spawn_ns, mode, argv = int(sys.argv[1]), sys.argv[2], json.loads(sys.argv[3])
    from maxboot import cli

    config, values = cli.build_config(cli._build_parser().parse_args(argv))
    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9
    if mode == "probe":
        print(json.dumps(probe(config, values["breps"])))
        return
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    # the reference task brackets the cell, to gauge the machine's speed
    reference = [reference_s()]
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    run_s = time.perf_counter() - start
    reference.append(reference_s())
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # getrusage reports only the largest reaped pool worker; count it once per worker
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workers = values["jobs"] if values["jobs"] > 1 else 0
    result = {
        "exit": code,
        "reference_s": reference,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": (own + workers * worker) / 1024.0,
        "rows": out.getvalue(),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
    print(json.dumps(result))


def reference_s() -> float:
    """Seconds for a fixed task that touches what a cell touches: seeded
    generator construction, a scipy special function and BLAS matvecs.
    Run just before and after a cell, it gauges the machine's speed, which
    drifts on a shared host."""
    import numpy as np
    from scipy import special

    u = np.linspace(0.001, 0.999, 20_000)
    a = np.linspace(-1.0, 1.0, 200 * 400).reshape(200, 400)
    w = np.linspace(-1.0, 1.0, 200)
    start = time.perf_counter()
    for k in range(6_000):
        np.random.default_rng(np.random.SeedSequence((7, 0, k))).standard_normal(200)
    for _ in range(30):
        special.gammaincinv(1.0, u)
    for _ in range(3_000):
        (w @ a).max()
    return time.perf_counter() - start


class Tracer:
    """In-memory spans around the functions each run-path layer exposes.

    Every span records its parent, so a span's self time is its duration
    minus the durations of its direct children.  Span names are
    ``<layer>.<what>``; the layer is the maxboot module that owns the code.
    """

    def __init__(self) -> None:
        # [name, start, end, parent index, work attributes]
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name, attrs=lambda args: ()):
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            span = [label, 0.0, 0.0, self._open[-1] if self._open else -1, attrs(args)]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()

        return traced

    def install(self) -> None:
        from maxboot import cli, datagen, harness, rng

        cli.main = self.wrap(cli.main, "cli.run")
        cli.run_experiment = self.wrap(cli.run_experiment, "harness.run_experiment")
        cli.emit_results = self.wrap(cli.emit_results, "harness.emit_results")
        harness.run_truth = self.wrap(harness.run_truth, "harness.run_truth")
        # sample_gaussian_copula(spec, n, p, seed): count the entries it makes
        harness.sample_gaussian_copula = self.wrap(
            harness.sample_gaussian_copula, "datagen.sample", lambda a: (a[1] * a[2],)
        )
        datagen.gamma_quantile = self.wrap(datagen.gamma_quantile, "datagen.gamma_quantile")
        rng.SeedSpec.rng = self.wrap(rng.SeedSpec.rng, "rng.stream")
        # bootstrap_distribution(data, plan, mode, seed): one span name per scheme
        harness.bootstrap_distribution = self.wrap(
            harness.bootstrap_distribution,
            lambda a: f"bootstrap.{a[1].name}",
            lambda a: (a[1].b_reps, a[1].b_reps * a[0].n * a[0].p),
        )
        for fn in ("max_statistic", "two_sample_ks", "upper_quantile"):
            setattr(harness, fn, self.wrap(getattr(harness, fn), f"stat_core.{fn}"))

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds, summed attributes."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, attrs) in enumerate(self.spans):
            entry = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": [0] * len(attrs)}
            )
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            for k, value in enumerate(attrs):
                entry["work"][k] += value
        return out


def probe(config, b: int) -> dict:
    import os
    import platform

    import numpy as np
    import scipy
    from scipy import special

    import maxboot
    from maxboot import bootstrap, datagen
    from maxboot.rng import SeedSpec

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "backend": maxboot.backend_name() if hasattr(maxboot, "backend_name") else "n/a",
    }

    # replicate r of a bootstrap law must be reproducible from seed.child(r) alone
    data = datagen.sample_gaussian_copula(
        config.copula, config.n, config.p, SeedSpec(config.master_seed).child(9)
    )
    # all five schemes, whatever the cell runs
    plans = {
        "gaussian": bootstrap.BootstrapPlan.wild(bootstrap.GAUSSIAN, b),
        "mammen": bootstrap.BootstrapPlan.wild(bootstrap.MAMMEN, b),
        "rademacher": bootstrap.BootstrapPlan.wild(bootstrap.RADEMACHER, b),
        "empirical": bootstrap.BootstrapPlan.empirical(b),
        "mixed": bootstrap.BootstrapPlan.mixed_wild(0.5, b),
    }
    mismatched = []
    for s, (scheme, plan) in enumerate(plans.items()):
        seed = SeedSpec(config.master_seed).child(10, s)
        law = bootstrap.bootstrap_distribution(data, plan, config.mode, seed)
        for r in (0, 1, b // 2, b - 1):
            once = bootstrap.bootstrap_stat_once(data, plan, config.mode, seed.child(r))
            if not np.any(law.sample == once):
                mismatched.append(f"{scheme}:r={r}")

    # gamma transform against scipy's inverses; the tail past |y| = 5 is kept
    # on purpose because the max statistic reads it
    a = config.copula.shape_alpha
    y = np.linspace(-8.0, 8.0, 1601)
    exact = np.where(
        y <= 0.0,
        special.gammaincinv(a, special.ndtr(y)),
        special.gammainccinv(a, special.ndtr(-y)),
    )
    rel = np.abs(datagen.gamma_quantile(special.ndtr(y), a) - exact) / exact
    return {
        "env": env,
        "spot_checked": 4 * len(plans),
        "spot_mismatched": mismatched,
        "gamma_max_rel_err": float(rel.max()),
        "gamma_max_rel_err_abs_y_le_5": float(rel[np.abs(y) <= 5.0].max()),
        "gamma_worst_y": float(y[rel.argmax()]),
    }


if __name__ == "__main__":
    main()
