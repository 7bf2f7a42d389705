"""One benchmark run of one workload, in this process.

``run.py`` starts this file in a fresh interpreter with one BLAS/OpenMP
thread; the tests import it and call ``run`` directly. The run sets up the
data and teacher several times, then repeats whole rounds of pruning jobs
until ``seconds`` have passed, checking every job's outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# this checkout's program comes first, before any installed copy
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_ROOT = ROOT / ".bench_out"


def gemm_probe(reps: int = 9, inner: int = 32) -> float:
    """Median ms of a fixed 256x256 GEMM loop; tells machine drift apart
    from a program change. Not a metric."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((256, 256)), rng.standard_normal((256, 256))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            a @ b
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(),
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "python": sys.version.split()[0]}


def _targets(cfg) -> tuple[float, tuple[int, int] | None]:
    """The sparsity target and, for N:M runs, the (n, m) pattern."""
    from ptsparse.sparsity import NMPattern
    if not cfg.nm_pattern:
        return cfg.sparsity, None
    nm = NMPattern.parse(cfg.nm_pattern)
    return nm.sparsity, (nm.n, nm.m)


def check_outputs(cfg, splits, job_dir: Path, baseline_top1: float) -> list[str]:
    """Every independent check of one job's artifacts; [] when all pass."""
    target, nm = _targets(cfg)
    return checks.check_job(job_dir, job_dir / "metrics.csv", splits.eval_x,
                            splits.eval_y, target, nm, cfg.method == "unipts",
                            baseline_top1)


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        out_root: Path | None = None) -> dict:
    """One run; returns the record written to ``out_root`` (``OUT_ROOT`` by
    default), whose ``result`` is the line the benchmark prints, or None when
    no job finished."""
    from ptsparse import harness
    from ptsparse.nn import load_network

    wl = WORKLOADS[workload]
    cfg = wl.config(tiny=tiny)
    out = (out_root or OUT_ROOT) / (workload + ("-tiny" if tiny else ""))
    out.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "tiny": tiny, "config": {k: list(v) if isinstance(v, tuple) else v
                                       for k, v in vars(cfg).items()},
              "env": _environment(), "probe_gemm_ms": {"before": gemm_probe()}}

    tracer = tracing.Tracer()
    setup_s, teacher_hashes = [], []
    job_s, train_s, fingerprints, first_top1 = [], [], {}, {}
    problems, errors = [], []         # failed output checks; jobs that raised
    attempted = failed = 0

    def rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def set_up():
        t0 = time.perf_counter()
        splits = harness.load_dataset(cfg)
        teacher = harness.prepare_teacher(cfg, splits, seed=cfg.data_seed)
        setup_s.append(time.perf_counter() - t0)
        teacher_hashes.append(teacher.param_hash())
        return splits, teacher

    with tracing.Instrumented(tracer, full=trace):
        splits, teacher = set_up()
        peak_rss_mb = {"first_setup": rss_mb()}
        teacher_ckpt = out / "teacher.ckpt"
        harness.save_network(teacher, str(teacher_ckpt))
        baseline = checks.oneshot_top1(teacher_ckpt, splits.eval_x, splits.eval_y,
                                       *_targets(cfg))
        measured, rounds = 0.0, 0
        while rounds == 0 or measured < seconds:
            # the other set-ups go between rounds, so one slow spell of the
            # machine does not hit all of them. Each replaces the live data
            # and teacher (all are equal, see teacher_hashes), so no two are
            # held at once and the process peak is not set by the overlap.
            if rounds and len(setup_s) < wl.setups:
                splits = teacher = None
                splits, teacher = set_up()
            rounds += 1
            round_start = time.perf_counter()
            for calib_seed in wl.job_seeds(seed):
                attempted += 1
                job_dir = out / "jobs" / f"calib{calib_seed}"
                shutil.rmtree(job_dir, ignore_errors=True)
                t0 = time.perf_counter()
                try:
                    row = harness.run_single(cfg, splits, teacher, calib_seed, str(job_dir))
                except Exception:  # a job that raises counts as failed
                    failed += 1
                    errors.append(f"calib{calib_seed}: {traceback.format_exc()}")
                    continue
                job_s.append(time.perf_counter() - t0)
                train_s.append(tracer.durations("harness.run_training")[-1])
                harness.write_metrics([row], str(job_dir / "metrics.csv"))
                fp = {"param_hash": load_network(str(job_dir / "student.ckpt")).param_hash(),
                      "metrics_sha256": _sha256(job_dir / "metrics.csv")}
                bad = check_outputs(cfg, splits, job_dir, baseline)
                if fingerprints.setdefault(str(calib_seed), fp) != fp:
                    bad.append("fingerprint differs from this job's first round")
                if bad:
                    failed += 1
                    problems += [f"calib{calib_seed}: {b}" for b in bad]
                first_top1.setdefault(calib_seed, row.top1)
            measured += time.perf_counter() - round_start
        peak_rss_mb["jobs"] = rss_mb()
        splits = teacher = None
        while len(setup_s) < wl.setups:
            set_up()
    if len(set(teacher_hashes)) != 1:
        problems.append("set-ups trained different teachers")

    peak_rss_mb["end"] = rss_mb()
    record["probe_gemm_ms"]["after"] = gemm_probe()
    record.update(setup_s=setup_s, job_s=job_s, run_training_s=train_s,
                  teacher_param_hash=teacher_hashes[0], oneshot_top1=baseline,
                  top1=first_top1, fingerprints=fingerprints, problems=problems,
                  errors=errors, peak_rss_mb=peak_rss_mb)
    samples = cfg.iterations * cfg.batch_size
    if not job_s:
        # no job finished, so there is no time to report
        metrics = None
    elif trace:
        spans = tracer.spans
        derived = tracing.derive(spans)
        metrics = {name: {"value": derived[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
        coverage = tracing.job_coverage(spans)
        record.update(traced_job_s=statistics.median(job_s),
                      job_coverage_min=min(coverage) if coverage else None)
        if coverage and min(coverage) < 0.95:
            problems.append(f"spans under a job cover only {min(coverage):.3f} of it")
        with open(out / f"trace-seed{seed}.jsonl", "w") as f:
            for span in spans:
                f.write(json.dumps(span) + "\n")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "job_s": {"value": statistics.median(job_s), "unit": "s"},
            "dst_samples_per_s": {"value": statistics.median(samples / t for t in train_s),
                                  "unit": "1/s"},
            "top1": {"value": statistics.median(first_top1.values()), "unit": "fraction"},
            "peak_rss_mb": {"value": peak_rss_mb["end"], "unit": "MB"},
        }
    # a job that raises is as wrong as one that fails a check
    record["result"] = None if metrics is None else {
        "correct": not problems and not errors, "attempted": attempted,
        "failed": failed, "metrics": metrics}
    with open(out / f"run-seed{seed}-trace{int(trace)}.json", "w") as f:
        json.dump(record, f, indent=1)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for p in record["problems"] + record["errors"]:
        print(f"problem: {p}", file=sys.stderr)
    probe = record["probe_gemm_ms"]
    print(f"probe gemm256x32 before={probe['before']:.3f}ms after={probe['after']:.3f}ms")
    for calib_seed, fp in record["fingerprints"].items():
        print(f"fingerprint calib{calib_seed} param_hash={fp['param_hash']} "
              f"metrics_sha256={fp['metrics_sha256']}")
    if record["result"] is None:
        print("no job finished; no result", file=sys.stderr)
        return 1
    for name, m in record["result"]["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
