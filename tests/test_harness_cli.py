import hashlib
import os

import numpy as np
import pytest

from ptsparse.cli import main
from ptsparse.config import (OUT_ROOT_ENV, ConfigError, ExperimentConfig,
                             parse_config)
from ptsparse import harness
from ptsparse.harness import (METRICS_HEADER, StageError, load_dataset, prepare_teacher,
                              read_metrics, run_single, write_metrics)
from ptsparse.nn import load_network
from ptsparse.search import SearchConfig
from ptsparse.sparsity import load_masks
from ptsparse.training import TrainConfig

BASE = """
# tiny end-to-end configuration
dataset = synthetic
preset = mlp3
classes = 3
image_size = 8
train_size = 120
eval_size = 60
data_blobs = 6
teacher_epochs = 1
calib_size = 60
sparsity = 0.5
method = uniform+dst
seeds = 0
iterations = 8
batch_size = 16
metrics_every = 4
population = 4
generations = 1
tournament = 2
elites = 1
"""


@pytest.fixture
def cfg_file(tmp_path):
    def make(extra="", name="exp.cfg"):
        path = tmp_path / name
        path.write_text(BASE + extra)
        return str(path)
    return make


def run_cli(*argv):
    return main(list(argv))


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config()
        assert cfg.method == "unipts"
        assert cfg.sparsity == 0.9
        assert cfg.seeds == (0,)

    def test_file_with_comments(self, cfg_file):
        cfg = parse_config(cfg_file())
        assert cfg.preset == "mlp3"
        assert cfg.iterations == 8

    def test_unknown_key(self, cfg_file):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(cfg_file(extra="warp_factor = 9\n"))

    # settings that became constants: teacher lr 0.05, mutation std 0.5,
    # crossover rate 0.5, class-balanced calibration, t in calibration epochs,
    # and the synthetic data's channel count and blob widths
    @pytest.mark.parametrize("key,value", [
        ("channels", "1"), ("data_sigma_min", "0.5"), ("data_sigma_max", "1.0"),
        ("teacher_lr", "0.05"), ("calib_balanced", "true"), ("mutation_std", "0.5"),
        ("crossover_rate", "0.5"), ("schedule_unit", "epoch")])
    @pytest.mark.parametrize("via", ["file", "override"])
    def test_removed_key_is_unknown(self, cfg_file, tmp_path, capsys, key, value, via):
        out = tmp_path / "out"
        if via == "file":
            args = ["-c", cfg_file(extra=f"{key} = {value}\n")]
        else:
            args = ["-c", cfg_file(), "-o", f"{key}={value}"]
        assert run_cli("run", *args, "-o", f"out_dir={out}") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"config error: unknown config key {key!r}"]
        assert not out.exists()

    def test_bad_value(self, cfg_file):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config(cfg_file(extra="iterations = soon\n"))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/exp.cfg")

    def test_override_wins(self, cfg_file):
        cfg = parse_config(cfg_file(), ["iterations=99", "lr=0.5"])
        assert cfg.iterations == 99 and cfg.lr == 0.5

    def test_malformed_override(self, cfg_file):
        with pytest.raises(ConfigError):
            parse_config(cfg_file(), ["iterations"])

    def test_seed_list(self, cfg_file):
        cfg = parse_config(cfg_file(), ["seeds=3,5,8"])
        assert cfg.seeds == (3, 5, 8)

    def test_validation_rules(self, cfg_file):
        for bad in ["method=magic", "sparsity=1.5", "nm_pattern=4:2",
                    "dataset=imagenet", "seeds="]:
            with pytest.raises(ConfigError):
                parse_config(cfg_file(), [bad])

    def test_out_root_env(self, monkeypatch):
        monkeypatch.setenv(OUT_ROOT_ENV, "/tmp/ptsroot")
        assert ExperimentConfig().resolved_out_dir() == "/tmp/ptsroot/runs"
        monkeypatch.delenv(OUT_ROOT_ENV)
        assert ExperimentConfig(out_dir="abc").resolved_out_dir() == "abc"


class TestExitCodes:
    def test_success_is_zero(self, cfg_file, tmp_path):
        assert run_cli("run", "-c", cfg_file(),
                       "-o", f"out_dir={tmp_path}/run0") == 0

    def test_config_error_is_one(self, cfg_file, tmp_path, capsys):
        assert run_cli("run", "-c", cfg_file(), "-o", "method=magic") == 1
        assert "config error" in capsys.readouterr().err

    def test_stage_error_is_two(self, cfg_file, tmp_path, capsys):
        garbage = tmp_path / "teacher.ckpt"
        garbage.write_bytes(b"not a checkpoint at all")
        code = run_cli("run", "-c", cfg_file(),
                       "-o", f"teacher_checkpoint={garbage}",
                       "-o", f"out_dir={tmp_path}/run2")
        assert code == 2
        assert "stage failure" in capsys.readouterr().err


class TestRunArtifacts:
    @pytest.fixture
    def run_dir(self, cfg_file, tmp_path):
        out = tmp_path / "exp"
        assert run_cli("run", "-c", cfg_file(), "-o", f"out_dir={out}",
                       "-o", "seeds=0,1") == 0
        return out

    def test_metrics_csv(self, run_dir):
        rows = read_metrics(run_dir / "metrics.csv")
        assert len(rows) == 2
        assert tuple(rows[0]) == METRICS_HEADER
        for row in rows:
            assert row["method"] == "uniform+dst"
            assert float(row["target_sparsity"]) == 0.5
            assert abs(float(row["realized_sparsity"]) - 0.5) < 0.005
            assert 0.0 <= float(row["top1"]) <= 1.0
            assert float(row["wall_time_s"]) == 0.0

    def test_per_seed_artifacts(self, run_dir):
        for seed in (0, 1):
            d = run_dir / f"seed{seed}"
            for name in ("student.ckpt", "masks.bin", "masks.txt",
                         "distribution.json", "train_metrics.csv",
                         "timing.txt"):
                assert (d / name).exists(), name
        assert (run_dir / "teacher.ckpt").exists()
        assert (run_dir / "config.json").exists()

    def test_metrics_byte_deterministic(self, cfg_file, tmp_path, run_dir):
        again = tmp_path / "exp-again"
        assert run_cli("run", "-c", cfg_file(), "-o", f"out_dir={again}",
                       "-o", "seeds=0,1") == 0
        a = (run_dir / "metrics.csv").read_bytes()
        b = (again / "metrics.csv").read_bytes()
        assert a == b

    def test_eval_round_trip(self, cfg_file, run_dir, capsys):
        # evaluating the exported checkpoint + masks reproduces the CSV top1
        rows = read_metrics(run_dir / "metrics.csv")
        assert run_cli("eval", "-c", cfg_file(),
                       "--checkpoint", str(run_dir / "seed0" / "student.ckpt"),
                       "--masks", str(run_dir / "seed0" / "masks.bin")) == 0
        out = capsys.readouterr().out
        got = float(out.strip().split("top1=")[1])
        assert got == pytest.approx(float(rows[0]["top1"]), abs=1e-9)

    def test_masked_checkpoint_weights_are_sparse(self, run_dir):
        from ptsparse.nn import load_network
        from ptsparse.sparsity import load_masks
        net = load_network(run_dir / "seed0" / "student.ckpt")
        masks = load_masks(run_dir / "seed0" / "masks.bin")
        for i, m in masks.items():
            np.testing.assert_array_equal(net.layers[i].weight[m == 0.0], 0.0)

    def test_report_table(self, cfg_file, tmp_path, run_dir, capsys):
        other = tmp_path / "exp-pot"
        assert run_cli("run", "-c", cfg_file(), "-o", f"out_dir={other}",
                       "-o", "method=oneshot") == 0
        capsys.readouterr()
        csv_out = tmp_path / "report.csv"
        assert run_cli("report", str(run_dir), str(other),
                       "--csv-out", str(csv_out)) == 0
        text = capsys.readouterr().out
        assert "uniform+dst" in text and "oneshot" in text
        assert csv_out.read_text().startswith("method,")

    def test_report_missing_metrics_is_stage_error(self, tmp_path, capsys):
        empty = tmp_path / "no-run"
        empty.mkdir()
        assert run_cli("report", str(empty)) == 2


class TestOtherCommands:
    def test_teacher_command(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "t"
        assert run_cli("teacher", "-c", cfg_file(),
                       "-o", f"out_dir={out}") == 0
        assert (out / "teacher.ckpt").exists()
        assert "teacher saved" in capsys.readouterr().out

    def test_prune_command(self, cfg_file, tmp_path):
        out = tmp_path / "p"
        assert run_cli("prune", "-c", cfg_file(), "-o", f"out_dir={out}") == 0
        assert (out / "student.ckpt").exists()
        assert (out / "masks.bin").exists()

    def test_search_command(self, cfg_file, tmp_path):
        out = tmp_path / "s"
        assert run_cli("search", "-c", cfg_file(), "-o", f"out_dir={out}",
                       "-o", "method=unipts") == 0
        assert (out / "distribution.json").exists()
        assert (out / "search.log").exists()

    def test_search_rejects_nm(self, cfg_file, tmp_path):
        # rejected before the output directory and the teacher
        assert run_cli("search", "-c", cfg_file(),
                       "-o", f"out_dir={tmp_path}/snm",
                       "-o", "nm_pattern=2:4") == 1
        assert not (tmp_path / "snm").exists()

    def test_prune_writes_timing(self, cfg_file, tmp_path):
        # prune is the pipeline's job with zero DST steps: no training history
        out = tmp_path / "p0"
        assert run_cli("prune", "-c", cfg_file(), "-o", f"out_dir={out}") == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "distribution.json", "masks.bin", "masks.txt", "student.ckpt", "timing.txt"]

    def test_oneshot_without_calibration_rows(self, cfg_file, tmp_path):
        # one-shot takes no step, so it needs no calibration row
        out = tmp_path / "os0"
        assert run_cli("run", "-c", cfg_file(), "-o", f"out_dir={out}",
                       "-o", "method=oneshot", "-o", "calib_size=0") == 0
        assert read_metrics(out / "metrics.csv")[0]["method"] == "oneshot"

    def test_train_command(self, cfg_file, tmp_path):
        out = tmp_path / "tr"
        assert run_cli("train", "-c", cfg_file(), "-o", f"out_dir={out}") == 0
        assert (out / "metrics.csv").exists()
        # train is run: the teacher checkpoint and the config come along
        assert (out / "teacher.ckpt").exists() and (out / "config.json").exists()

    def test_nm_run(self, cfg_file, tmp_path):
        out = tmp_path / "nm"
        assert run_cli("run", "-c", cfg_file(), "-o", f"out_dir={out}",
                       "-o", "nm_pattern=2:4") == 0
        rows = read_metrics(out / "metrics.csv")
        assert float(rows[0]["target_sparsity"]) == 0.5

    def test_out_root_env_is_honored(self, cfg_file, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_ROOT_ENV, str(tmp_path / "root"))
        assert run_cli("teacher", "-c", cfg_file(), "-o", "out_dir=sub") == 0
        assert (tmp_path / "root" / "sub" / "teacher.ckpt").exists()


class TestExcludeLayersOnNM:
    """Excluded layers get no N:M mask on any path, as on the unstructured one."""

    NM = ("-o", "nm_pattern=2:4", "-o", "exclude_layers=0")

    def test_dst_run(self, cfg_file, tmp_path):
        out = tmp_path / "nm-dst"
        assert run_cli("run", "-c", cfg_file(), "-o", f"out_dir={out}", *self.NM) == 0
        assert 0 not in load_masks(out / "seed0" / "masks.bin")
        assert not any(line.split()[0] == "0" for line in
                       (out / "seed0" / "masks.txt").read_text().splitlines()[1:])

    def test_oneshot_run(self, cfg_file, tmp_path):
        out = tmp_path / "nm-oneshot"
        assert run_cli("run", "-c", cfg_file(), "-o", f"out_dir={out}",
                       "-o", "method=oneshot", *self.NM) == 0
        masks = load_masks(out / "seed0" / "masks.bin")
        assert masks and 0 not in masks

    def test_prune_command(self, cfg_file, tmp_path):
        out = tmp_path / "nm-prune"
        assert run_cli("prune", "-c", cfg_file(), "-o", f"out_dir={out}", *self.NM) == 0
        masks = load_masks(out / "masks.bin")
        assert masks and 0 not in masks


class TestNonFiniteTeacher:
    @pytest.mark.parametrize("param,message", [("weight", "non-finite"),
                                               ("bias", "DST iteration 1: ")])
    def test_run_single_fails_train_stage(self, cfg_file, tmp_path, param, message):
        cfg = parse_config(cfg_file())
        splits = load_dataset(cfg)
        teacher = prepare_teacher(cfg, splits, seed=cfg.data_seed)
        getattr(teacher.layers[teacher.prunable_indices()[-1]], param).flat[0] = np.nan
        out = tmp_path / "nan"
        with pytest.raises(StageError, match=message) as info:
            run_single(cfg, splits, teacher, 0, str(out))
        assert info.value.stage == "train"
        assert not (out / "metrics.csv").exists()
        assert not (out / "student.ckpt").exists()

    # a NaN first-layer bias reaches the reconstruction loss at once; a NaN
    # head bias first shows in the calibration accuracy of a history row
    @pytest.mark.parametrize("layer,message", [(0, "layer outputs have non-finite"),
                                               (-1, "non-finite logits")])
    def test_pot_baseline_fails_train_stage(self, cfg_file, tmp_path, layer, message):
        cfg = parse_config(cfg_file("method = pot-baseline\n"))
        splits = load_dataset(cfg)
        teacher = prepare_teacher(cfg, splits, seed=cfg.data_seed)
        teacher.layers[teacher.prunable_indices()[layer]].bias[0] = np.nan
        out = tmp_path / "nan-pot"
        with pytest.raises(StageError, match=message) as info:
            run_single(cfg, splits, teacher, 0, str(out))
        assert info.value.stage == "train"
        assert not (out / "metrics.csv").exists()
        assert not (out / "student.ckpt").exists()


class TestEveryLayerExcluded:
    """Excluding every prunable layer of mlp3 is one stage failure, exit 2."""

    @pytest.mark.parametrize("command,extra", [
        ("prune", ()), ("prune", ("-o", "nm_pattern=2:4")), ("search", ()),
        ("run", ()), ("run", ("-o", "method=unipts")),
        ("search", ("-o", "method=unipts"))])
    def test_one_stage_failure_line(self, cfg_file, tmp_path, capsys, command, extra):
        out = tmp_path / command
        code = run_cli(command, "-c", cfg_file(), "-o", f"out_dir={out}",
                       "-o", "exclude_layers=0,3,6", *extra)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("stage failure:")
        assert "no prunable layers left after exclusion" in err[0]
        assert not (out / "student.ckpt").exists()


class TestEvalCorruptInputs:
    @pytest.fixture
    def pruned(self, cfg_file, tmp_path):
        out = tmp_path / "pruned"
        assert run_cli("prune", "-c", cfg_file(), "-o", f"out_dir={out}") == 0
        return out

    @staticmethod
    def corrupt(path, how, rng):
        if how == "random":
            path.write_bytes(rng.bytes(100))
        else:
            raw = path.read_bytes()
            path.write_bytes(raw[:len(raw) - 7])

    def eval_exit(self, cfg_file, pruned, capsys):
        code = run_cli("eval", "-c", cfg_file(), "-o", f"out_dir={pruned}",
                       "--checkpoint", str(pruned / "student.ckpt"),
                       "--masks", str(pruned / "masks.bin"))
        err = capsys.readouterr().err
        return code, err

    @pytest.mark.parametrize("how", ["random", "truncated"])
    @pytest.mark.parametrize("name", ["student.ckpt", "masks.bin"])
    def test_stage_failure_exit_two(self, cfg_file, pruned, capsys, rng, name, how):
        assert self.eval_exit(cfg_file, pruned, capsys)[0] == 0
        self.corrupt(pruned / name, how, rng)
        code, err = self.eval_exit(cfg_file, pruned, capsys)
        assert code == 2
        assert err.startswith("stage failure: [eval] ")
        assert len(err.strip().splitlines()) == 1


class TestStageSettingsAtParseTime:
    """Search and training settings the run would reject are config errors:
    exit 1 before the teacher is trained, with nothing written."""

    @pytest.mark.parametrize("overrides,message", [
        (("method=unipts", "population=1"), "population must be >= 2"),
        (("method=unipts", "population=3", "elites=4"), "elites must be in"),
        (("delta_t=0",), "delta_t must be >= 1"),
        (("alpha=-0.001",), "alpha must be >= 0"),
        (("objective=hinge",), "unknown objective"),
    ])
    @pytest.mark.parametrize("command", ["run", "train"])
    def test_exit_one_and_no_files(self, cfg_file, tmp_path, capsys, command,
                                   overrides, message):
        out = tmp_path / "out"
        args = [arg for ov in overrides for arg in ("-o", ov)]
        assert run_cli(command, "-c", cfg_file(), "-o", f"out_dir={out}", *args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert message in err[0]
        assert not out.exists()

    def test_search_settings_checked_only_when_searching(self, cfg_file):
        # uniform+dst and N:M runs never build the search settings
        assert parse_config(cfg_file(), ["population=1"]).population == 1
        assert parse_config(cfg_file(), ["method=unipts", "nm_pattern=2:4",
                                         "population=1"]).population == 1

    def test_stage_defaults_match_experiment_defaults(self):
        assert ExperimentConfig().train_config(0) == TrainConfig()
        assert ExperimentConfig().search_config(0) == SearchConfig()

    def test_stage_settings_follow_experiment_fields(self, cfg_file):
        cfg = parse_config(cfg_file(), ["method=unipts", "exclude_layers=3",
                                        "momentum=0.5"])
        scfg, tcfg = cfg.search_config(seed=7), cfg.train_config(seed=7)
        assert (scfg.p, scfg.population, scfg.elites, scfg.tournament, scfg.seed,
                scfg.exclude_layers) == (0.5, 4, 1, 2, 7, (3,))
        assert (tcfg.iterations, tcfg.batch_size, tcfg.momentum, tcfg.seed,
                tcfg.metrics_every, tcfg.objective) == (8, 16, 0.5, 7, 4,
                                                         "base_decayed_kl")
        pot = parse_config(cfg_file(), ["method=pot-baseline", "objective=ce"])
        assert pot.train_config(seed=0).objective == "layerwise_mse"


class TestCalibrationSize:
    """A calibration set larger than the train split fails before any
    training: a config error for synthetic data, a stage failure once
    loaded IDX data shows it. An empty one is a config error when the job
    searches or takes DST steps."""

    @pytest.mark.parametrize("size", ["500", "-1"])
    @pytest.mark.parametrize("command", ["run", "search", "prune"])
    def test_synthetic_is_config_error(self, cfg_file, tmp_path, capsys, command, size):
        out = tmp_path / "out"
        assert run_cli(command, "-c", cfg_file(), "-o", f"out_dir={out}",
                       "-o", f"calib_size={size}") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: calib_size")
        assert not out.exists()

    @pytest.mark.parametrize("command,method", [
        ("run", "unipts"), ("search", "unipts"), ("prune", "unipts"),
        ("run", "uniform+dst"), ("train", "pot-baseline")])
    def test_no_rows_for_search_or_steps_is_config_error(self, cfg_file, tmp_path,
                                                         capsys, command, method):
        out = tmp_path / "out"
        assert run_cli(command, "-c", cfg_file(), "-o", f"out_dir={out}",
                       "-o", f"method={method}", "-o", "calib_size=0") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: calib_size 0")
        assert not out.exists()

    @pytest.mark.parametrize("command,method", [("run", "oneshot"),
                                                ("prune", "uniform+dst")])
    def test_no_rows_without_search_or_steps(self, cfg_file, tmp_path, command, method):
        # one-shot magnitude pruning reads no calibration row
        out = tmp_path / "out"
        assert run_cli(command, "-c", cfg_file(), "-o", f"out_dir={out}",
                       "-o", f"method={method}", "-o", "calib_size=0") == 0
        assert any(out.rglob("masks.bin"))

    @pytest.mark.parametrize("command,extra", [("run", ()),
                                               ("search", ("-o", "method=unipts"))])
    def test_idx_is_stage_failure(self, cfg_file, tmp_path, capsys, command, extra):
        from ptsparse.data import save_idx, synthetic_splits
        s = synthetic_splits(classes=3, image_size=8, train_size=30, eval_size=20,
                             blobs_per_class=2, seed=0)
        files = []
        for name, arr in [("tx", s.train_x), ("ty", s.train_y.astype(np.uint8)),
                          ("ex", s.eval_x), ("ey", s.eval_y.astype(np.uint8))]:
            save_idx(tmp_path / f"{name}.idx", arr)
            files.append(tmp_path / f"{name}.idx")
        keys = ("idx_train_images", "idx_train_labels", "idx_eval_images",
                "idx_eval_labels")
        out = tmp_path / "out"
        args = [a for k, f in zip(keys, files) for a in ("-o", f"{k}={f}")]
        code = run_cli(command, "-c", cfg_file(), "-o", f"out_dir={out}",
                       "-o", "dataset=idx", *args, *extra)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert err == ["stage failure: [data] calibration size 60 exceeds train split 30"]
        assert not (out / "seed0").exists()


class TestAtomicArtifacts:
    def test_failed_artifact_write_leaves_old_file_and_no_temporary(
            self, cfg_file, tmp_path, monkeypatch):
        cfg = parse_config(cfg_file())
        splits = load_dataset(cfg)
        teacher = prepare_teacher(cfg, splits, seed=cfg.data_seed)
        out = tmp_path / "job"
        run_single(cfg, splits, teacher, 0, str(out))
        before = sorted(p.name for p in out.iterdir())
        old = (out / "masks.txt").read_bytes()

        def broken(masks):
            raise RuntimeError("disk gone")

        # fails after masks.txt's temporary file is open
        monkeypatch.setattr(harness, "mask_summary", broken)
        with pytest.raises(RuntimeError, match="disk gone"):
            run_single(cfg, splits, teacher, 0, str(out))
        assert sorted(p.name for p in out.iterdir()) == before
        assert (out / "masks.txt").read_bytes() == old
        with pytest.raises(RuntimeError, match="disk gone"):
            run_single(cfg, splits, teacher, 0, str(tmp_path / "fresh"))
        assert not (tmp_path / "fresh" / "masks.txt").exists()
        assert not [p for p in (tmp_path / "fresh").iterdir() if ".tmp" in p.name]


# run_single's outputs on BASE for every method path, recorded before the CLI
# and harness were folded into one pipeline, so a refactor that moves a bit
# fails here. The bits are those of the float library they were recorded with
# (numpy 2.4.6, scipy-openblas 0.3.31, x86-64): another numpy or BLAS may
# round differently, and a mismatch there alone is a platform difference,
# not a bug.
GOLDEN_TEACHER = {
    "mlp3": "c29cae26472f745e5a7d2e6432238de07d3bba2649273fc08b16bc2c89c0bb87",
    "convnet-small": "96f34cc6da9a919bf36e5d6635a5a796ee7d58e7042b2078473867a22e260fc6",
}
GOLDEN = {  # (preset, method[/nm pattern]): (metrics.csv row, masks.bin sha256, student)
    ("mlp3", "unipts"): (
        "unipts,0.5000,0.500020,0.616667,0,0.000",
        "3effe30826a72b50a50f96cb6f33d080d154292f2c6b067e7b2fef17f35bc101",
        "ad7fbd625177b286e5cfc0161ce7b66763e2d9269645fd8c4b329b5e86a3515b"),
    ("mlp3", "uniform+dst"): (
        "uniform+dst,0.5000,0.500000,0.666667,0,0.000",
        "77afd40b86877ece0b3983c9488eaec6d9e0f4edd6547c6c9e0e2ff78f968f36",
        "94a2748acf9aec325a719323a30c535be9a726247a28679b44426e58c331854d"),
    ("mlp3", "erk+dst"): (
        "erk+dst,0.5000,0.500020,0.600000,0,0.000",
        "d70f9d9774525a24f613c7b6e2c8ca465aeeac21825f3a62e331997a5067477b",
        "46c4f860c744e0df07a4c488d83551e03be23436ca096702f541f5a2f8248631"),
    ("mlp3", "pot-baseline"): (
        "pot-baseline,0.5000,0.500000,0.633333,0,0.000",
        "50713515d78fa532a47c4d42387cb81bf1c5011fe4dc5d87d6a7ef6b10b76318",
        "c445a526802bab7d3a89e79dc8dfefee78ec56f2b0992461604f4cbbe60251f4"),
    ("mlp3", "oneshot"): (
        "oneshot,0.5000,0.500000,0.616667,0,0.000",
        "50713515d78fa532a47c4d42387cb81bf1c5011fe4dc5d87d6a7ef6b10b76318",
        "0007db7c81e3dd5058f67667940e3ca9de360394a0b0ac370ac0cf70ecf67711"),
    ("mlp3", "uniform+dst/2:4"): (
        "uniform+dst,0.5000,0.500000,0.466667,0,0.000",
        "071959fadae9e44a8d06681fa912ad4fead6b3d958550b325401f3b6be7e7190",
        "69b5cad0e12b821f33c69afc120a483a50a42fc3bebe6f63ac38bd1e73f6df26"),
    ("convnet-small", "unipts"): (
        "unipts,0.5000,0.501412,0.533333,0,0.000",
        "eb0f878d07d887e36c1da329cb1c8cb6799605cd4a5e132488dd5f65da3eb857",
        "234f15fada922e8fa29ebf760d7b7f80f14a54ef646228f1129a5c7d49247c36"),
    ("convnet-small", "uniform+dst"): (
        "uniform+dst,0.5000,0.500000,0.433333,0,0.000",
        "b200282d6c34732360e65664c1173da5cf91a5a8377d35cf9fa8a0dbe1e99989",
        "1c0025552a9a11d8ac2870673901e58e8142d5fa72ba03c6850c3d825e64245e"),
    ("convnet-small", "erk+dst"): (
        "erk+dst,0.5000,0.500000,0.516667,0,0.000",
        "70d4cb15360b61c9f2475131fb75e7fb555361e63c537b71e96c93f934fc220e",
        "88ab18a9745feac1bb16a2e893a54d985fc5c0ac969aaca2b6b0334d477a562d"),
    ("convnet-small", "pot-baseline"): (
        "pot-baseline,0.5000,0.500000,0.500000,0,0.000",
        "1c71274cf4fd78cafcd986f35a04cc16edcd84e2c821967a2a94fca7982475cb",
        "a2be8a8319db660ce0f6971a1f0cbedc334ede6b2b04a9fdf542b54c5350d3ea"),
    ("convnet-small", "oneshot"): (
        "oneshot,0.5000,0.500000,0.433333,0,0.000",
        "1c71274cf4fd78cafcd986f35a04cc16edcd84e2c821967a2a94fca7982475cb",
        "49b1952bafcf37293545d999eaa90aa6164898452f48a32725d694b2308cefa0"),
    ("convnet-small", "uniform+dst/2:4"): (
        "uniform+dst,0.5000,0.497175,0.266667,0,0.000",
        "76b0527172c4cfcc1de630ca1deaa984a6b3215ee06131022f25a4f22ce66d53",
        "45afb4071417a88d5118fcb040bf3cdc947e054400cea27b46bcc14743e65d6a"),
}


@pytest.fixture(scope="module")
def golden_setup(tmp_path_factory):
    """(config path, splits, teacher) per preset, built once."""
    path = tmp_path_factory.mktemp("golden") / "exp.cfg"
    path.write_text(BASE)
    cache = {}

    def setup(preset):
        if preset not in cache:
            cfg = parse_config(str(path), [f"preset={preset}"])
            splits = load_dataset(cfg)
            cache[preset] = (str(path), splits,
                             prepare_teacher(cfg, splits, seed=cfg.data_seed))
        return cache[preset]
    return setup


class TestGoldenBits:
    @pytest.mark.parametrize("preset,method", list(GOLDEN))
    def test_run_single_bits(self, golden_setup, tmp_path, preset, method):
        path, splits, teacher = golden_setup(preset)
        name, _, nm = method.partition("/")
        cfg = parse_config(path, [f"preset={preset}", f"method={name}"]
                           + ([f"nm_pattern={nm}"] if nm else []))
        row_text, masks_sha256, student_hash = GOLDEN[(preset, method)]
        assert teacher.param_hash() == GOLDEN_TEACHER[preset]
        write_metrics([run_single(cfg, splits, teacher, 0, str(tmp_path))],
                      tmp_path / "metrics.csv")
        assert (tmp_path / "metrics.csv").read_bytes() == (
            "method,target_sparsity,realized_sparsity,top1,seed,wall_time_s\r\n"
            f"{row_text}\r\n").encode()
        assert hashlib.sha256((tmp_path / "masks.bin").read_bytes()).hexdigest() \
            == masks_sha256
        assert load_network(tmp_path / "student.ckpt").param_hash() == student_hash


# `ptsparse prune` on BASE (mlp3), recorded before one-shot pruning became the
# pipeline's job with zero DST steps: (student.ckpt sha256, masks.bin sha256,
# masks.txt, one-shot top-1). Same float-library caveat as GOLDEN.
PRUNE_MASKS_UNIFORM = (
    " layer              shape        nnz     rate\n"
    "     0          (256, 64)       8192   0.5000\n"
    "     3         (128, 256)      16384   0.5000\n"
    "     6           (3, 128)        192   0.5000\n")
GOLDEN_PRUNE = {
    "unipts": (
        "3a672d01f32eecca7d7c88426a0b0eb3370b3afcb00baa742c9aa0656d7c9ed8",
        "0e3f2efb296f00e3f88f184dc0506c816ab5d908d960a20e7515d1c2304e81b9",
        " layer              shape        nnz     rate\n"
        "     0          (256, 64)       8432   0.4854\n"
        "     3         (128, 256)      15951   0.5132\n"
        "     6           (3, 128)        384   0.0000\n", "0.6000"),
    "uniform+dst": (
        "4ccd217ae2a62041dcb294dc079915f8d5de256b59432468e85e4cc70de1a252",
        "50713515d78fa532a47c4d42387cb81bf1c5011fe4dc5d87d6a7ef6b10b76318",
        PRUNE_MASKS_UNIFORM, "0.6167"),
    "uniform+dst/2:4": (
        "b018f76ed16db443de74a295243dcbcbed41d80c56d958026a6281b8039a1a4b",
        "7f7c066c28b722313894e95352ea8d85f76bd94addb0974ec0fc68ecd8ee458a",
        PRUNE_MASKS_UNIFORM, "0.4167"),
}


class TestGoldenPruneBits:
    @pytest.mark.parametrize("method", list(GOLDEN_PRUNE))
    def test_prune_bits(self, cfg_file, tmp_path, capsys, method):
        name, _, nm = method.partition("/")
        out = tmp_path / "prune"
        assert run_cli("prune", "-c", cfg_file(), "-o", f"out_dir={out}",
                       "-o", f"method={name}",
                       *(["-o", f"nm_pattern={nm}"] if nm else [])) == 0
        student, masks, masks_txt, top1 = GOLDEN_PRUNE[method]

        def sha256(name):
            return hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert sha256("student.ckpt") == student
        assert sha256("masks.bin") == masks
        assert (out / "masks.txt").read_text() == masks_txt
        assert capsys.readouterr().out == f"{masks_txt}one-shot top-1: {top1}\n"
