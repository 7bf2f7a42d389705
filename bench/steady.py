"""Steadiness check: several seeded runs per workload, their spreads and
fingerprints.

    python3 bench/steady.py --runs 10 --label a
    python3 bench/steady.py --runs 10 --label b --compare .bench_out/steady-a.json

Runs seeds 1 to ``--runs`` of every workload in BENCHMARK.json. For every
end-to-end metric it prints the median, the quartiles and the quartile spread
as a share of the median over the runs. It fails when a spread is wider than
the metric's bound in BENCHMARK.json (``setup_s`` is only reported), when a
run fails, when a job's fingerprints differ between two runs of the same
seed, or, with ``--compare``, when a median is worse than the earlier set's
by more than its bound or the share of failed jobs differs. A spread of a
third of the bound or more is marked ``wide`` but does not fail: on a shared
machine the speed can drift for a whole run. ``--traced`` adds traced runs
and reports the tracing overhead on ``job_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"


def one_run(workload, seed, seconds, trace) -> dict:
    started = time.monotonic()
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    with open(OUT / workload / f"run-seed{seed}-trace{trace}.json") as f:
        record = json.load(f)
    record["wall_s"] = time.monotonic() - started
    return record


def spread(values) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    ap.add_argument("--label", default="a")
    ap.add_argument("--compare", help="summary of an earlier set to compare with")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seeds = range(1, args.runs + 1)
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else None
    summary, ok = {}, True
    for wl in names:
        runs = [one_run(wl, s, bench["run_seconds"], 0) for s in seeds]
        res = {"seeds": list(seeds), "metrics": {},
               "attempted": sum(r["result"]["attempted"] for r in runs),
               "failed": sum(r["result"]["failed"] for r in runs),
               "correct": all(r["result"]["correct"] for r in runs),
               "fingerprints": {str(r["seed"]): r["fingerprints"] for r in runs},
               "probe_gemm_ms": [[r["probe_gemm_ms"]["before"], r["probe_gemm_ms"]["after"]]
                                 for r in runs],
               "wall_s": [r["wall_s"] for r in runs], "env": runs[0]["env"]}
        print(f"== {wl}: {len(runs)} runs of {statistics.median(res['wall_s']):.1f} s, "
              f"{res['attempted']} jobs, {res['failed']} failed, correct={res['correct']}")
        ok &= res["correct"] and res["failed"] == 0
        for name, spec in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            res["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                                    "values": values}
            verdict = ("" if name == "setup_s" else "ok" if rel < spec["bound"] / 3
                       else "wide" if rel <= spec["bound"] else "TOO WIDE")
            line = (f"  {name:18s} median {med:12.6g} {spec['unit']:8s} q1 {q1:.6g} "
                    f"q3 {q3:.6g} spread {rel:6.2%} (bound {spec['bound']:.0%}) {verdict}")
            if earlier and wl in earlier:
                old = earlier[wl]["metrics"][name]["median"]
                worse = (med - old) / old if spec["better"] == "lower" else (old - med) / old
                line += f" vs earlier {worse:+.2%} worse"
                if worse > spec["bound"]:
                    ok = False
                    line += " REGRESSED"
            ok &= verdict != "TOO WIDE"
            print(line)
        if earlier and wl in earlier:
            prev = earlier[wl]
            same_share = res["failed"] * prev["attempted"] == prev["failed"] * res["attempted"]
            for seed, fps in res["fingerprints"].items():
                if seed in prev["fingerprints"] and prev["fingerprints"][seed] != fps:
                    print(f"  fingerprints of seed {seed} differ from the earlier set")
                    ok = False
            if not same_share:
                print("  the share of failed jobs differs from the earlier set")
                ok = False
        if args.traced:
            traced = [one_run(wl, s, bench["run_seconds"], 1) for s in seeds[:args.traced]]
            tj = statistics.median(r["traced_job_s"] for r in traced)
            uj = statistics.median(r["result"]["metrics"]["job_s"]["value"] for r in runs)
            res["tracing"] = {"traced_job_s": tj, "untraced_job_s": uj,
                              "wall_s": [r["wall_s"] for r in traced],
                              "overhead": (tj - uj) / uj,
                              "job_coverage_min": min(r["job_coverage_min"] for r in traced),
                              "correct": all(r["result"]["correct"] for r in traced)}
            ok &= res["tracing"]["correct"]
            for r in traced:
                if r["fingerprints"] != res["fingerprints"][str(r["seed"])]:
                    print(f"  traced run of seed {r['seed']} changed the fingerprints")
                    ok = False
            print(f"  traced job_s {tj:.4f} s vs untraced {uj:.4f} s: overhead "
                  f"{(tj - uj) / uj:+.2%}; spans under a job cover >= "
                  f"{res['tracing']['job_coverage_min']:.4f}")
        summary[wl] = res
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{args.label}.json"
    path.write_text(json.dumps(summary, indent=1))
    print(f"summary written to {path.relative_to(ROOT)}; {'STEADY' if ok else 'NOT STEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
