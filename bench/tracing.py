"""Spans around calls into ptsparse's public functions, installed from outside.

A span is ``[name, parent, start, end]``; ``parent`` is the index of the
enclosing span in ``Tracer.spans`` or -1. The program is not edited: the
tracer replaces module attributes and class methods with timing wrappers and
puts the originals back on exit.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

LAYER_KINDS = ("Conv2d", "BatchNorm", "ReLU", "AvgPool", "Flatten", "Dense")
STAGES = ("teacher", "search", "dst")
# The search only runs forward passes, so it has no backward metrics.
LAYER_STAGES = {"forward": STAGES, "backward": ("teacher", "dst")}

# Span names that open a stage; layer spans are charged to the nearest one.
STAGE_OF = {"harness.prepare_teacher": "teacher",
            "harness.select_distribution": "search",
            "harness.run_training": "dst"}

JOB = "harness.run_single"

PER_LAYER = (
    ("data.synthetic_splits_s", "s"),
    ("data.sample_calibration_s", "s"),
    ("harness.prepare_teacher_s", "s"),
    ("harness.select_distribution_s", "s"),
    ("harness.run_training_s", "s"),
    ("harness.eval_s", "s"),
    ("harness.artifacts_s", "s"),
    ("search.fitness_calls", "count"),
    ("search.fitness_ms.p50", "ms"),
    ("search.evals_per_s", "1/s"),
    ("search.copy_ms.p50", "ms"),
    ("search.bn_recalibrate_ms.p50", "ms"),
    ("search.calib_accuracy_ms.p50", "ms"),
    ("search.mask_build_ms.p50", "ms"),
    ("training.steps", "count"),
    ("training.step_ms.p50", "ms"),
    ("training.step_ms.p95", "ms"),
    ("training.teacher_predict_ms.p50", "ms"),
    ("training.student_forward_ms.p50", "ms"),
    ("training.backward_ms.p50", "ms"),
    ("training.objective_ms.p50", "ms"),
    ("training.mask_refresh_ms.p50", "ms"),
    ("training.mask_churn_ms.p50", "ms"),
    ("training.update_ms.p50", "ms"),
    ("training.history_s", "s"),
    ("sparsity.topk_mask_calls", "count"),
    ("sparsity.topk_mask_s", "s"),
    ("sparsity.nm_mask_calls", "count"),
    ("sparsity.nm_mask_s", "s"),
    ("objectives.kl_ms.p50", "ms"),
) + tuple((f"nn.layers.{kind}.{way}_s.{stage}", "s")
          for kind in LAYER_KINDS for way, stages in LAYER_STAGES.items()
          for stage in stages)


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
        return traced

    def durations(self, name) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[0] == name]


class Instrumented:
    """Context manager that installs tracing wrappers on ptsparse.

    ``full=False`` wraps only what the untraced end-to-end run needs
    (``run_training``, to get DST throughput); ``full=True`` wraps every
    boundary the per-layer metrics are derived from.
    """

    def __init__(self, tracer: Tracer, full: bool):
        self.tracer = tracer
        self.full = full
        self._undo: list[tuple] = []

    def __enter__(self):
        from ptsparse import data, harness, objectives, search, sparsity, training
        from ptsparse.nn import layers, network

        functions = [("harness.run_training", training.run_training)]
        if self.full:
            functions += [
                ("data.synthetic_splits", data.synthetic_splits),
                ("data.sample_calibration", data.sample_calibration),
                ("harness.load_dataset", harness.load_dataset),
                ("harness.prepare_teacher", harness.prepare_teacher),
                ("harness.select_distribution", harness.select_distribution),
                (JOB, harness.run_single),
                ("harness.save_network", harness.save_network),
                ("harness.save_masks", harness.save_masks),
                ("search.evolve", search.evolve),
                ("search.fitness", search.fitness),
                ("training.train_step", training.train_step),
                ("training.build_masks", training.build_masks),
                ("training.mask_churn", training.mask_churn),
                ("training.objective", training._objective_grad),
                ("sparsity.topk_mask", sparsity.topk_mask),
                ("sparsity.nm_mask", sparsity.nm_mask),
                ("objectives.kl_loss", objectives.kl_loss),
            ]
        modules = [m for k, m in sys.modules.items()
                   if k == "ptsparse" or k.startswith("ptsparse.")]
        for name, fn in functions:
            wrapped = self.tracer.wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapped)
        if self.full:
            for meth in ("copy", "bn_recalibrate", "accuracy", "predict",
                         "forward", "backward"):
                self._set(network.Network, meth, self.tracer.wrap(
                    f"Network.{meth}", getattr(network.Network, meth)))
            for kind in LAYER_KINDS:
                cls = getattr(layers, kind)
                for meth in ("forward", "backward"):
                    self._set(cls, meth, self.tracer.wrap(
                        f"layer.{kind}.{meth}", vars(cls)[meth]))
        return self.tracer

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p95(values) -> float:
    if len(values) < 20:
        return max(values) if values else 0.0
    return float(statistics.quantiles(values, n=20)[-1])


def derive(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from one run's spans.

    Times are per call (``*_ms.p50``: the median span), per job (a sum over
    one ``run_single``) or per set-up (one ``prepare_teacher``); per-job and
    per-set-up values are the median over the run. A metric whose code never
    ran reads 0.
    """
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child_time = [0.0] * n
    job = [-1] * n
    unit = [-1] * n       # the set-up or job a stage-level sum is charged to
    stage = [""] * n
    by_name: dict[str, list[int]] = {}
    for i, (name, parent, _, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            child_time[parent] += dur[i]
            job[i], unit[i], stage[i] = job[parent], unit[parent], stage[parent]
        if name == JOB:
            job[i] = i
        if name in STAGE_OF:
            stage[i] = STAGE_OF[name]
            unit[i] = i if name == "harness.prepare_teacher" else job[i]
    self_time = [dur[i] - child_time[i] for i in range(n)]
    jobs = by_name.get(JOB, [])
    teachers = by_name.get("harness.prepare_teacher", [])

    def under(name, parent_name=None):
        return [i for i in by_name.get(name, []) if parent_name is None or (
            spans[i][1] >= 0 and spans[spans[i][1]][0] == parent_name)]

    def ms(name, parent_name=None, times=dur):
        return _median([times[i] * 1e3 for i in under(name, parent_name)])

    def per_parent(parents, idxs, value):
        sums = dict.fromkeys(parents, 0.0)
        for i in idxs:
            if spans[i][1] in sums:
                sums[spans[i][1]] += value(i)
        return _median(list(sums.values()))

    def per_job(idxs, value=lambda i: dur[i]):
        sums = dict.fromkeys(jobs, 0.0)
        for i in idxs:
            if job[i] in sums:
                sums[job[i]] += value(i)
        return _median(list(sums.values()))

    def count(i):
        return 1.0

    artifacts = under("harness.save_network", JOB) + under("harness.save_masks", JOB)
    out = {
        "data.synthetic_splits_s": ms("data.synthetic_splits") / 1e3,
        "data.sample_calibration_s": per_job(under("data.sample_calibration")),
        "harness.prepare_teacher_s": ms("harness.prepare_teacher") / 1e3,
        "harness.select_distribution_s": per_job(under("harness.select_distribution")),
        "harness.run_training_s": per_job(under("harness.run_training")),
        "harness.eval_s": per_job(under("Network.accuracy", JOB)),
        "harness.artifacts_s": per_job(artifacts),
        "search.fitness_calls": per_job(under("search.fitness"), count),
        "search.fitness_ms.p50": ms("search.fitness"),
        "search.copy_ms.p50": ms("Network.copy", "search.fitness"),
        "search.bn_recalibrate_ms.p50": ms("Network.bn_recalibrate", "search.fitness"),
        "search.calib_accuracy_ms.p50": ms("Network.accuracy", "search.fitness"),
        "search.mask_build_ms.p50": per_parent(
            under("search.fitness"), under("sparsity.topk_mask", "search.fitness"),
            lambda i: dur[i] * 1e3),
        "training.steps": per_job(under("training.train_step"), count),
        "training.step_ms.p50": ms("training.train_step"),
        "training.step_ms.p95": _p95([dur[i] * 1e3 for i in under("training.train_step")]),
        "training.teacher_predict_ms.p50": ms("Network.predict", "training.train_step"),
        "training.student_forward_ms.p50": ms("Network.forward", "training.train_step"),
        "training.backward_ms.p50": ms("Network.backward", "training.train_step"),
        "training.objective_ms.p50": ms("training.objective", "training.train_step"),
        "training.mask_refresh_ms.p50": ms("training.build_masks", "training.train_step"),
        "training.mask_churn_ms.p50": ms("training.mask_churn", "training.train_step"),
        "training.update_ms.p50": ms("training.train_step", times=self_time),
        "training.history_s": per_job(under("Network.accuracy", "harness.run_training")),
        "sparsity.topk_mask_calls": per_job(under("sparsity.topk_mask"), count),
        "sparsity.topk_mask_s": per_job(under("sparsity.topk_mask")),
        "sparsity.nm_mask_calls": per_job(under("sparsity.nm_mask"), count),
        "sparsity.nm_mask_s": per_job(under("sparsity.nm_mask")),
        "objectives.kl_ms.p50": ms("objectives.kl_loss"),
    }
    evolve_s = per_job(under("search.evolve"))
    out["search.evals_per_s"] = out["search.fitness_calls"] / evolve_s if evolve_s else 0.0

    # layer self times summed per stage unit (set-up or job), median over units
    units = {"teacher": {i: {} for i in teachers},
             "search": {i: {} for i in jobs}, "dst": {i: {} for i in jobs}}
    for kind in LAYER_KINDS:
        for way, stages in LAYER_STAGES.items():
            key = f"layer.{kind}.{way}"
            for i in by_name.get(key, []):
                acc = units.get(stage[i], {}).get(unit[i])
                if acc is not None:
                    acc[key] = acc.get(key, 0.0) + self_time[i]
            for st in stages:
                out[f"nn.layers.{kind}.{way}_s.{st}"] = _median(
                    [acc.get(key, 0.0) for acc in units[st].values()])
    return out


def job_coverage(spans: list[list]) -> list[float]:
    """Share of each job's wall time covered by the spans directly under it."""
    covered = {i: 0.0 for i, s in enumerate(spans) if s[0] == JOB}
    for _, parent, start, end in spans:
        if parent in covered:
            covered[parent] += end - start
    return [covered[i] / (spans[i][3] - spans[i][2]) for i in sorted(covered)]
