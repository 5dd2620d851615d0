"""One workload in its own process: timed passes of the README pipeline.

A pass builds the config(s), simulates, predicts, exports both results,
reloads them and compares, all through the public diffcomb.harness API,
then checks every output.  Untraced passes give the end-to-end timings;
with --trace 1, untraced and traced serial passes alternate and the
traced ones give the per-layer split.

    python3 perfbench/pipeline.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--smoke]

The last line of standard output is one JSON object holding the metric
values, the operation counts and the run record.  run.py starts this
process with the checkout's src/ on PYTHONPATH and the BLAS thread count
set.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import diffcomb
from diffcomb import harness
from tracing import SIM_ROOT, THEORY_ROOT, Tracer
from workloads import MSD_NAMES, WORKLOADS, build_configs, nproc, workers_for

ROOT = Path(__file__).resolve().parent.parent


class Pass:
    """Timed operations of one pass and the failures among them.

    An operation fails if it raises, returns a non-finite series, or
    fails its check; a raise ends the pass.
    """

    def __init__(self):
        self.times = {}
        self.attempted = 0
        self.errors = {}
        self.facts = {}

    def run(self, name, fn, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.errors[name] = f"raised {exc!r}"
            raise
        self.times[name] = time.perf_counter() - start
        return result

    def check(self, name, ok, why):
        if not ok and name not in self.errors:
            self.errors[name] = why

    @property
    def ran(self) -> bool:
        """Every operation ran, whatever its checks found."""
        return "total" in self.times


def _finite(result) -> bool:
    return all(np.all(np.isfinite(v)) for v in result.series.values())


def _export_both(sim, theory, outdir):
    paths = (outdir / "sim.csv", outdir / "theory.csv")
    harness.export(sim, paths[0])
    harness.export(theory, paths[1])
    return paths


def _export_digest(result, path) -> str:
    harness.export(result, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_both(paths):
    return tuple(harness.load_result(path) for path in paths)


def _lost_on_export(name, values) -> np.ndarray:
    """Instants the dB export stores as nan: nonpositive power values.

    Only the signed cross series (msd_cross, emse_network_cross) can go
    nonpositive; that the export loses them is a known defect, counted
    in harness.export_nan_values rather than hidden.
    """
    if name.startswith(("msd", "emse")):
        return np.asarray(values) <= 0
    return np.zeros(np.shape(values), dtype=bool)


def _round_trip_ok(original, bundle) -> bool:
    """Reloaded series equal the in-memory ones to 1e-9 relative, and are
    nan exactly where the export documents a loss."""
    if set(bundle.series) != set(original.series):
        return False
    for name, values in original.series.items():
        back = bundle.series[name]
        lost = _lost_on_export(name, values)
        if not (np.array_equal(np.isnan(back), lost)
                and np.allclose(back[~lost], values[~lost], rtol=1e-9,
                                atol=0.0)):
            return False
    return True


def _in_fresh_dir(fn):
    """Give each pass its own directory under the run's scratch directory.

    Exports go to new files: on some filesystems truncating a file that
    has reached the disk costs tens of milliseconds, which would be timed
    as export work.  The directory is removed after the pass, untimed.
    """
    @functools.wraps(fn)
    def wrapper(*args, scratch):
        outdir = Path(tempfile.mkdtemp(dir=scratch))
        try:
            return fn(*args, outdir)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
    return wrapper


@_in_fresh_dir
def pipeline_pass(wl, seed, smoke, workers, outdir) -> Pass:
    """One pass of the README pipeline, timed per operation, then checked."""
    p = Pass()
    try:
        start = time.perf_counter()
        sim_cfg, theory_cfg = p.run("config", build_configs, wl, seed, smoke)
        sim = p.run("simulate", harness.run_monte_carlo, sim_cfg,
                    workers=workers)
        theory = p.run("theory", harness.run_theory, theory_cfg)
        paths = p.run("export", _export_both, sim, theory, outdir)
        sim_back, theory_back = p.run("load", _load_both, paths)
        report = p.run("compare", harness.compare, sim_back, theory_back,
                       tol_msd_db=wl.tol_msd_db or 1.0, names=MSD_NAMES)
        p.times["total"] = time.perf_counter() - start
    except Exception:
        return p

    p.check("simulate", _finite(sim), "non-finite simulated series")
    p.check("theory", _finite(theory), "non-finite predicted series")
    sizes = [path.stat().st_size for path in paths]
    p.check("export", min(sizes) > 0, "empty export")
    p.check("load", _round_trip_ok(sim, sim_back)
            and _round_trip_ok(theory, theory_back),
            "reloaded series differ from the exported ones")
    devs = [entry.steady_abs_dev for entry in report.entries]
    p.check("compare", len(devs) == len(MSD_NAMES)
            and all(math.isfinite(d) for d in devs),
            "non-finite steady deviation")
    if wl.tol_msd_db is not None:
        p.check("compare", report.passed,
                f"steady MSD deviation {max(devs):.3f} dB > "
                f"{wl.tol_msd_db} dB")
    p.facts = {
        "theory_dev_db": max(devs),
        "export_bytes": sum(sizes),
        "export_nan_values": sum(
            int(np.count_nonzero(_lost_on_export(name, values)))
            for result in (sim, theory)
            for name, values in result.series.items()),
        "steady_skipped": sum(1 for _, rep in theory.steady if rep is None),
        "sim_sha256": hashlib.sha256(paths[0].read_bytes()).hexdigest(),
        "config_hashes": sorted({sim_cfg.config_hash, theory_cfg.config_hash}),
    }
    return p


@_in_fresh_dir
def pool_identity(wl, seed, smoke, workers, serial_sha, outdir) -> Pass:
    """Simulate at the workload's worker count and compare the CSV export
    with the serial export of the same seed."""
    p = Pass()
    try:
        sim_cfg, _ = p.run("config", build_configs, wl, seed, smoke)
        sim = p.run("simulate_pool", harness.run_monte_carlo, sim_cfg,
                    workers=workers)
        digest = p.run("pool_identity", _export_digest, sim,
                       outdir / "pool.csv")
    except Exception:
        return p
    p.check("simulate_pool", _finite(sim), "non-finite simulated series")
    p.check("pool_identity", digest == serial_sha,
            "pool export differs from the serial export")
    return p


def _median(passes, key):
    values = [p.times[key] for p in passes if key in p.times]
    return statistics.median(values) if values else float("nan")


def _peak_rss_mb(workers) -> float:
    """Peak resident set of this process plus, when a pool ran, workers
    times the largest pool child (an upper bound on their sum)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def _measure(seconds, one):
    """Repeat one() until the window closes, at least once."""
    out = []
    deadline = time.perf_counter() + seconds
    while not out or time.perf_counter() < deadline:
        out.append(one())
    return out


def untraced(wl, seed, smoke, seconds, scratch):
    workers = workers_for(wl)
    warmup = pipeline_pass(wl, seed, smoke, workers, scratch=scratch)
    passes = _measure(seconds, lambda: pipeline_pass(
        wl, seed, smoke, workers, scratch=scratch))
    done = [p for p in passes if p.ran]
    metrics = {
        "sim_s": _median(done, "simulate"),
        "theory_s": _median(done, "theory"),
        "total_s": _median(done, "total"),
        "peak_rss_mb": _peak_rss_mb(workers),
    }
    return metrics, [warmup] + passes, len(done)


def traced(wl, seed, smoke, seconds, scratch):
    workers = workers_for(wl)
    warmup = pipeline_pass(wl, seed, smoke, 1, scratch=scratch)

    def one_round():
        plain = pipeline_pass(wl, seed, smoke, 1, scratch=scratch)
        with Tracer() as tracer:
            spans = pipeline_pass(wl, seed, smoke, 1, scratch=scratch)
        pool = None
        if workers > 1 and spans.ran:
            pool = pool_identity(wl, seed, smoke, workers,
                                 spans.facts["sim_sha256"], scratch=scratch)
        return plain, spans, tracer, pool

    rounds = _measure(seconds, one_round)
    plain = [r[0] for r in rounds if r[0].ran]
    spans = [r for r in rounds if r[1].ran]
    pools = [r[3] for r in rounds if r[3] is not None and not r[3].errors]

    base_total = _median(plain, "total")
    overhead_pct = 100.0 * (_median([r[1] for r in spans], "total")
                            - base_total) / base_total

    # span consistency: self times under each root add up to the outer
    # timing of that call, within the tracing overhead, and none is < 0
    tol = abs(overhead_pct) / 100.0
    for _, p, tracer, _ in spans:
        p.attempted += 1
        for root, key in ((SIM_ROOT, "simulate"), (THEORY_ROOT, "theory")):
            total, least = tracer.subtree_self(root)
            p.check("span_consistency",
                    least >= 0.0 and abs(total - p.times[key])
                    <= tol * p.times[key],
                    f"{root} self times sum to {total:.6f} s against "
                    f"{p.times[key]:.6f} s measured")

    layers = [tracer.layer_metrics() for _, _, tracer, _ in spans]
    metrics = {name: statistics.median_low(m[name] for m in layers)
               for name in layers[0]} if layers else {}
    facts = spans[0][1].facts if spans else {}
    metrics.update({
        "harness.workers": workers,
        "harness.pool_efficiency": (
            _median(plain, "simulate")
            / (workers * _median(pools, "simulate_pool"))
            if workers > 1 else 1.0),
        "harness.export_bytes": facts.get("export_bytes", 0),
        "harness.export_nan_values": facts.get("export_nan_values", 0),
        "harness.theory_dev_db": facts.get("theory_dev_db", float("nan")),
        "theory.steady_skipped": facts.get("steady_skipped", 0),
        "trace.overhead_pct": overhead_pct,
    })
    passes = [warmup] + [p for r in rounds for p in r[:2]] \
        + [r[3] for r in rounds if r[3] is not None]
    return metrics, passes, len(spans)


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    package = Path(diffcomb.__file__).resolve()
    if ROOT / "src" not in package.parents:
        print(f"diffcomb was imported from {package}, not from this "
              f"checkout's src/", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))
    try:
        measure = traced if args.trace else untraced
        metrics, passes, samples = measure(wl, args.seed, args.smoke,
                                           args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    failures = [f"{name}: {why}" for p in passes
                for name, why in p.errors.items()]
    facts = next((p.facts for p in passes if p.facts), {})
    runs = wl.smoke_runs if args.smoke else wl.runs
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "horizon": wl.smoke_horizon if args.smoke else wl.horizon,
        "runs": runs,
        "chunk_runs": harness.CHUNK_RUNS,
        "chunks": math.ceil(runs / harness.CHUNK_RUNS),
        "workers": workers_for(wl),
        "config_hashes": facts.get("config_hashes"),
        "timed_samples": samples,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }
    print(json.dumps({
        "metrics": metrics,
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "failures": failures[:20],
        "record": record,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
