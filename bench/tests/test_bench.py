"""The benchmark's own tests: tiny-size runs of every workload through the
full path, the output checks on good and broken artifacts, and the
trace-to-metric derivation.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import checks
import job
import tracing
from workloads import WORKLOADS

BENCH = job.HERE
SPEC = json.loads((job.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.fixture(scope="module")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("bench_out")


@pytest.fixture(scope="module")
def untraced(out_root):
    return {w: job.run(w, seed=1, seconds=0, trace=False, tiny=True, out_root=out_root)
            for w in WORKLOADS}


@pytest.fixture(scope="module")
def traced(out_root):
    return {w: job.run(w, seed=1, seconds=0, trace=True, tiny=True, out_root=out_root)
            for w in WORKLOADS}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    assert SPEC["command"] == ["python3", "bench/run.py"] and SPEC["paths"] == ["bench"]
    setup_bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_is_correct_and_reports_every_metric(untraced, workload):
    rec = untraced[workload]
    res = rec["result"]
    assert rec["problems"] == [] and rec["errors"] == []
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 3
    assert {k: m["unit"] for k, m in res["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert len(rec["fingerprints"]) == 3


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_layer_metric(traced, untraced, workload):
    rec = traced[workload]
    m = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
    assert rec["result"]["correct"] and rec["result"]["failed"] == 0
    assert {k: v["unit"] for k, v in rec["result"]["metrics"].items()} == PER_LAYER
    assert rec["job_coverage_min"] >= 0.95
    # tracing does not change what the program computes
    assert rec["fingerprints"] == untraced[workload]["fingerprints"]
    cfg = WORKLOADS[workload].config(tiny=True)
    assert m["training.steps"] == cfg.iterations
    assert m["harness.prepare_teacher_s"] > 0 and m["harness.run_training_s"] > 0
    assert m["nn.layers.Dense.forward_s.dst"] > 0
    assert m["nn.layers.Dense.backward_s.teacher"] > 0
    conv = m["nn.layers.Conv2d.forward_s.dst"] > 0
    assert conv == (cfg.preset == "convnet-small")
    assert (m["nn.layers.AvgPool.forward_s.search"] > 0) == (conv and cfg.method == "unipts")
    if cfg.nm_pattern:
        assert m["sparsity.topk_mask_calls"] == 0 and m["search.fitness_calls"] == 0
        assert m["sparsity.nm_mask_calls"] == 3 * (cfg.iterations + 1)
    else:
        calls = cfg.population + cfg.generations * (cfg.population - cfg.elites)
        assert m["search.fitness_calls"] == calls and m["search.evals_per_s"] > 0
        assert m["sparsity.nm_mask_calls"] == 0
        assert m["sparsity.topk_mask_calls"] == 3 * (calls + cfg.iterations + 1)


def test_derive_charges_self_time_to_stage_and_job():
    spans = [
        ["harness.prepare_teacher", -1, 0.0, 2.0],
        ["layer.Dense.forward", 0, 0.5, 1.0],
        [tracing.JOB, -1, 3.0, 10.0],
        ["harness.select_distribution", 2, 3.0, 5.0],
        ["search.evolve", 3, 3.0, 5.0],
        ["search.fitness", 4, 3.0, 4.0],
        ["sparsity.topk_mask", 5, 3.0, 3.25],
        ["layer.Dense.forward", 5, 3.5, 3.75],
        ["harness.run_training", 2, 5.0, 9.0],
        ["training.train_step", 8, 5.0, 7.0],
        ["Network.predict", 9, 5.0, 5.5],
        ["layer.Dense.forward", 10, 5.0, 5.25],
        ["Network.accuracy", 8, 8.0, 8.5],
        ["Network.accuracy", 2, 9.0, 9.5],
    ]
    m = tracing.derive(spans)
    assert m["harness.prepare_teacher_s"] == 2.0
    assert m["nn.layers.Dense.forward_s.teacher"] == 0.5
    assert m["nn.layers.Dense.forward_s.search"] == 0.25
    assert m["nn.layers.Dense.forward_s.dst"] == 0.25
    assert m["nn.layers.Dense.backward_s.dst"] == 0.0
    assert m["search.fitness_calls"] == 1 and m["search.evals_per_s"] == 0.5
    assert m["search.mask_build_ms.p50"] == 250.0
    assert m["training.teacher_predict_ms.p50"] == 500.0
    assert m["training.update_ms.p50"] == 1500.0          # 2 s minus the predict
    assert m["training.history_s"] == 0.5 and m["harness.eval_s"] == 0.5
    assert m["sparsity.topk_mask_calls"] == 1 and m["sparsity.nm_mask_s"] == 0.0
    assert set(m) == set(PER_LAYER)
    assert tracing.job_coverage(spans) == [(2.0 + 4.0 + 0.5) / 7.0]


def test_instrumentation_is_removed_on_exit():
    from ptsparse import harness, sparsity, training
    from ptsparse.nn import Dense, Network
    before = (harness.run_training, training.topk_mask, sparsity.topk_mask,
              Network.forward, Dense.backward)
    with tracing.Instrumented(tracing.Tracer(), full=True):
        assert training.topk_mask is not before[1]
        assert harness.run_training is not before[0]
    assert (harness.run_training, training.topk_mask, sparsity.topk_mask,
            Network.forward, Dense.backward) == before


@pytest.mark.parametrize("preset,shape", [("mlp3", (48,)), ("convnet-small", (1, 8, 8))])
def test_reference_forward_matches_the_program(tmp_path, preset, shape):
    from ptsparse.nn import BatchNorm, build_preset, save_network
    rng = np.random.default_rng(0)
    net = build_preset(preset, shape, 5, seed=3)
    for layer in net.layers:
        if isinstance(layer, BatchNorm):
            layer.running_mean = rng.standard_normal(layer.num_features)
            layer.running_var = rng.uniform(0.5, 2.0, layer.num_features)
    save_network(net, tmp_path / "net.ckpt")
    x = rng.standard_normal((40,) + shape)
    specs, params = checks.read_checkpoint(tmp_path / "net.ckpt")
    np.testing.assert_allclose(checks.reference_logits(specs, params, x, batch=16),
                               net.forward(x, mode="eval").logits, rtol=0, atol=1e-10)


def test_magnitude_masks_keep_top_k_and_n_of_m():
    w = np.arange(1.0, 17.0).reshape(2, 8) * np.array([1, -1] * 8).reshape(2, 8)
    top = checks.magnitude_masks({0: w}, 0.75, None)[0]
    assert top.sum() == 4 and set(np.abs(w[top])) == {13.0, 14.0, 15.0, 16.0}
    nm = checks.magnitude_masks({0: w}, None, (2, 4))[0]
    assert (nm.reshape(2, 2, 4).sum(axis=2) == 2).all()
    assert nm[0, 2] and nm[0, 3] and not nm[0, 0]


def _check(out_root, workload, job_dir, baseline=None):
    """Re-run the output checks of one tiny job with the run's own inputs."""
    from ptsparse import harness
    cfg = WORKLOADS[workload].config(tiny=True)
    rec = json.loads((out_root / f"{workload}-tiny" / "run-seed1-trace0.json").read_text())
    return job.check_outputs(cfg, harness.load_dataset(cfg), job_dir,
                             rec["oneshot_top1"] if baseline is None else baseline)


def _copy_job(out_root, workload, tmp_path):
    src = next((out_root / f"{workload}-tiny" / "jobs").iterdir())
    dst = tmp_path / "job"
    shutil.copytree(src, dst)
    return dst


def _rewrite_payload(path, edit):
    """Let ``edit(header, payload)`` change a container's payload in place."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    payload = bytearray(blob[16 + hlen:])
    edit(json.loads(blob[16:16 + hlen]), payload)
    path.write_bytes(blob[:16 + hlen] + bytes(payload))


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_checks_pass_on_the_program_outputs(untraced, out_root, tmp_path, workload):
    assert _check(out_root, workload, _copy_job(out_root, workload, tmp_path)) == []


def test_checks_catch_a_weight_outside_the_mask(untraced, out_root, tmp_path):
    d = _copy_job(out_root, "mlp3-unipts", tmp_path)

    def unmask_one(header, payload):
        rec = next(a for a in header["arrays"] if a["name"] == "weight")
        w = np.frombuffer(payload, "<f8", rec["nbytes"] // 8, rec["offset"]).copy()
        w[np.flatnonzero(w == 0.0)[0]] = 1.0
        payload[rec["offset"]:rec["offset"] + rec["nbytes"]] = w.tobytes()
    _rewrite_payload(d / "student.ckpt", unmask_one)
    problems = _check(out_root, "mlp3-unipts", d)
    assert any("outside the mask" in p for p in problems)
    assert any("realized_sparsity" in p for p in problems)


def test_checks_catch_a_wrong_top1_and_a_bad_container(untraced, out_root, tmp_path):
    d = _copy_job(out_root, "mlp3-nm24-dst", tmp_path)
    assert any("does not beat one-shot" in p
               for p in _check(out_root, "mlp3-nm24-dst", d, baseline=1.0))
    text = (d / "metrics.csv").read_text().splitlines()
    fields = text[1].split(",")
    fields[3] = f"{float(fields[3]) - 0.05:.6f}"
    (d / "metrics.csv").write_text("\n".join([text[0], ",".join(fields)]) + "\n")
    assert any("reference top1" in p for p in _check(out_root, "mlp3-nm24-dst", d))
    (d / "masks.bin").write_bytes(b"garbage!" + (d / "masks.bin").read_bytes()[8:])
    assert any("unreadable" in p for p in _check(out_root, "mlp3-nm24-dst", d))


def test_checks_catch_a_broken_nm_group(untraced, out_root, tmp_path):
    d = _copy_job(out_root, "mlp3-nm24-dst", tmp_path)
    masks = checks.read_masks(d / "masks.bin")

    def keep_a_whole_group(header, payload):
        rec = header["masks"][0]
        m = masks[rec["layer"]].copy()
        m.reshape(m.shape[0], -1)[0, :4] = True          # one group keeps 4 of 4
        packed = np.packbits(m.astype(np.uint8).ravel()).tobytes()
        payload[rec["offset"]:rec["offset"] + rec["nbytes"]] = packed
    _rewrite_payload(d / "masks.bin", keep_a_whole_group)
    assert any("keeps != 2" in p for p in _check(out_root, "mlp3-nm24-dst", d))


def test_checks_catch_bad_search_distribution_and_loss(untraced, out_root, tmp_path):
    d = _copy_job(out_root, "convnet-unipts", tmp_path)
    (d / "search.log").write_text("gen=0 best=0.5000 mean=0.1\ngen=1 best=0.4000 mean=0.1\n")
    dist = json.loads((d / "distribution.json").read_text())
    dist["rates"] = [0.5] * len(dist["rates"])
    (d / "distribution.json").write_text(json.dumps(dist))
    text = (d / "train_metrics.csv").read_text().splitlines()
    header = text[0].split(",")
    row = text[1].split(",")
    row[header.index("loss")] = "nan"
    (d / "train_metrics.csv").write_text("\n".join([text[0], ",".join(row)] + text[2:]) + "\n")
    problems = _check(out_root, "convnet-unipts", d)
    assert any("search best decreased" in p for p in problems)
    assert any("weighted rate" in p for p in problems)
    assert any("non-finite loss" in p for p in problems)


def test_a_job_that_raises_makes_the_run_incorrect(monkeypatch, tmp_path):
    from ptsparse import harness
    real = harness.run_single

    def second_job_raises(cfg, splits, teacher, calib_seed, *rest):
        if calib_seed == 1001:
            raise RuntimeError("boom")
        return real(cfg, splits, teacher, calib_seed, *rest)
    monkeypatch.setattr(harness, "run_single", second_job_raises)
    rec = job.run("mlp3-nm24-dst", seed=1, seconds=0, trace=False, tiny=True,
                  out_root=tmp_path)
    assert rec["result"]["attempted"] == 3 and rec["result"]["failed"] == 1
    assert not rec["result"]["correct"] and "boom" in rec["errors"][0]


def test_a_run_in_which_no_job_finishes_prints_no_result(monkeypatch, tmp_path, capsys):
    from ptsparse import harness

    def raises(*args):
        raise RuntimeError("boom")
    monkeypatch.setattr(harness, "run_single", raises)
    monkeypatch.setattr(job, "OUT_ROOT", tmp_path)
    assert job.main(["--workload", "mlp3-nm24-dst", "--seed", "1", "--seconds", "0"]) != 0
    assert '"metrics"' not in capsys.readouterr().out
    rec = json.loads((tmp_path / "mlp3-nm24-dst" / "run-seed1-trace0.json").read_text())
    assert rec["result"] is None and len(rec["errors"]) == 3


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(job.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "mlp3-unipts",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
