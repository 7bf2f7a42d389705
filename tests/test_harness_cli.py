import hashlib
import os
import re

import numpy as np
import pytest

from ptsparse.cli import main
from ptsparse.config import (OUT_ROOT_ENV, ConfigError, ExperimentConfig,
                             parse_config)
from ptsparse import harness
from ptsparse.harness import (METRICS_HEADER, StageError, load_dataset, prepare_teacher,
                              read_metrics, run_single, write_metrics)
from ptsparse.nn import build_preset, load_masks, load_network, save_network
from ptsparse.search import SearchConfig
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
    # the synthetic data's channel count, blob widths, noise and offset, the
    # DST step's objective (plain KL is gamma = 1), momentum and kept-entry
    # weight decay, and the 0.05 clamp of the KL scale's denominator
    @pytest.mark.parametrize("key,value", [
        ("channels", "1"), ("data_sigma_min", "0.5"), ("data_sigma_max", "1.0"),
        ("teacher_lr", "0.05"), ("calib_balanced", "true"), ("mutation_std", "0.5"),
        ("crossover_rate", "0.5"), ("schedule_unit", "epoch"), ("data_noise", "1.5"),
        ("data_offset", "2.0"), ("objective", "kl"), ("momentum", "0.0"),
        ("weight_decay", "0.0"), ("clamp_min", "0")])
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


class TestUsageErrors:
    """argparse's usage errors exit 1, like a config error; 2 is a stage failure."""

    @pytest.mark.parametrize("argv", [("train",), ("bogus",), ("eval",),
                                      ("run", "--bogus")],
                             ids=["train", "bogus", "eval-without-checkpoint",
                                  "unknown-option"])
    def test_usage_error_is_one(self, capsys, argv):
        assert run_cli(*argv) == 1
        assert "usage: ptsparse" in capsys.readouterr().err

    def test_help_is_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "usage: ptsparse" in capsys.readouterr().out


class TestOutDirThatCannotHoldFiles:
    """An out_dir under a regular file is a config error before any work; a
    write that fails later is one [artifacts] stage failure, exit 2."""

    @pytest.mark.parametrize("command", ["run", "teacher", "search", "prune"])
    def test_file_on_the_path_is_config_error(self, cfg_file, tmp_path, capsys,
                                              command):
        cfg = cfg_file()
        blocker = tmp_path / "file"
        blocker.write_text("x")
        out = f"{blocker}/sub"
        assert run_cli(command, "-c", cfg, "-o", f"out_dir={out}") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"config error: out_dir {out!r}: {str(blocker)!r} "
                       "is not a directory"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "file"]
        assert blocker.read_text() == "x"

    # each blocker stands where the command's first write of that kind goes
    @pytest.mark.parametrize("command,extra,blocker,kind", [
        ("run", (), "seed0", "file"),
        ("run", (), "metrics.csv", "dir"),
        ("run", (), "teacher.ckpt", "dir"),
        ("teacher", (), "teacher.ckpt", "dir"),
        ("search", ("-o", "method=unipts"), "distribution.json", "dir"),
        ("prune", (), "student.ckpt", "dir"),
    ], ids=["run-job", "run-metrics", "run-teacher", "teacher", "search", "prune"])
    def test_late_write_failure_is_stage_failure(self, cfg_file, tmp_path, capsys,
                                                 command, extra, blocker, kind):
        out = tmp_path / "out"
        out.mkdir()
        if kind == "file":
            (out / blocker).write_text("x")
        else:
            (out / blocker).mkdir()
        assert run_cli(command, "-c", cfg_file(), "-o", f"out_dir={out}", *extra) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("stage failure: [artifacts] ")
        assert str(out / blocker) in err[0]
        assert not [p for p in out.rglob("*") if ".tmp" in p.name]

    def test_report_csv_out_failure_is_stage_failure(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "metrics.csv").write_text(
            ",".join(METRICS_HEADER) + "\r\nunipts,0.5000,0.500000,0.5,0,0.000\r\n")
        target = tmp_path / "taken"
        target.mkdir()
        assert run_cli("report", str(run), "--csv-out", str(target)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("stage failure: [artifacts] ")


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

    @pytest.mark.parametrize("text,message", [
        (",".join(METRICS_HEADER) + "\r\n", "no rows"),
        ("method,target_sparsity,seed\r\nunipts,0.5000,0\r\n", "needs method"),
        (",".join(METRICS_HEADER) + "\r\nunipts,0.5000,0.500000,high,0,0.000\r\n",
         "'high' is not a number"),
    ], ids=["header-only", "missing-column", "non-numeric-top1"])
    def test_report_malformed_metrics_is_stage_error(self, tmp_path, capsys, text,
                                                      message):
        bad = tmp_path / "bad-run"
        bad.mkdir()
        (bad / "metrics.csv").write_text(text)
        assert run_cli("report", str(bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith("stage failure: [report]") and message in err


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
    """Excluding every prunable layer of mlp3 is one config error, exit 1,
    before the teacher trains: nothing is written."""

    @pytest.mark.parametrize("command,extra", [
        ("prune", ()), ("prune", ("-o", "nm_pattern=2:4")), ("search", ()),
        ("run", ()), ("run", ("-o", "method=unipts")),
        ("search", ("-o", "method=unipts"))])
    def test_one_config_error_line(self, cfg_file, tmp_path, capsys, command, extra):
        out = tmp_path / command
        code = run_cli(command, "-c", cfg_file(), "-o", f"out_dir={out}",
                       "-o", "exclude_layers=0,3,6", *extra)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert err == ["config error: no prunable layers left after exclusion"]
        assert not out.exists()


class TestExcludeLayersNamesNoPrunableLayer:
    """An exclude_layers index that names no prunable layer of mlp3 (layer 1
    is a BatchNorm, 99 does not exist) is one config error, exit 1, naming
    the index and the prunable layers, before the teacher trains: nothing,
    teacher.ckpt included, is written."""

    @pytest.mark.parametrize("exclude", ["99", "1", "0,1"])
    @pytest.mark.parametrize("command,extra", [
        ("run", ()), ("run", ("-o", "nm_pattern=2:4")), ("prune", ()),
        ("search", ("-o", "method=unipts"))])
    def test_one_config_error_line(self, cfg_file, tmp_path, capsys, command, extra,
                                   exclude):
        out = tmp_path / command
        code = run_cli(command, "-c", cfg_file(), "-o", f"out_dir={out}",
                       "-o", f"exclude_layers={exclude}", *extra)
        err = capsys.readouterr().err.strip().splitlines()
        stray = [int(exclude.split(",")[-1])]
        assert code == 1
        assert err == [f"config error: exclude_layers {stray} name no prunable "
                       "layer (prunable: [0, 3, 6])"]
        assert not (out / "teacher.ckpt").exists()
        assert not out.exists()

    def test_prunable_layers_come_from_the_checkpoint_header(self, cfg_file, tmp_path):
        # a convnet-small teacher under the mlp3 config: its layer 3 is an
        # AvgPool and its layer 4 a Conv2d. The payload is cut short, so a
        # check that read more than the header would fail on it.
        path = tmp_path / "teacher.ckpt"
        save_network(build_preset("convnet-small", (1, 8, 8), 3), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigError, match=re.escape(
                "exclude_layers [3] name no prunable layer (prunable: [0, 4, 9])")):
            parse_config(cfg_file(), [f"teacher_checkpoint={path}", "exclude_layers=3"])
        cfg = parse_config(cfg_file(), [f"teacher_checkpoint={path}", "exclude_layers=4"])
        assert cfg.exclude_layers == (4,)


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
        (("objective=kl",), "unknown config key 'objective'"),
        (("gamma=1.5",), "gamma 1.5 outside (0,1]"),
        (("lr=nan",), "lr must be >= 0 and finite"),
        (("lr=-0.1",), "lr must be >= 0 and finite"),
        (("data_blobs=0",), "data_blobs must be >= 1"),
        (("image_size=0",), "image_size must be >= 1"),
        (("preset=resnet",), "preset 'resnet' not in"),
        (("teacher_epochs=-1",), "teacher_epochs must be >= 0"),
        (("classes=0",), "classes must be >= 1"),
        (("train_size=0",), "train_size must be >= 1"),
        (("eval_size=0",), "eval_size must be >= 1"),
        (("batch_size=0",), "batch_size must be >= 1"),
        (("method=unipts", "batch_size=0"), "batch_size must be >= 1"),
        (("metrics_every=0",), "metrics_every must be >= 1"),
        (("method=unipts", "generations=-1"), "generations must be >= 0"),
        (("method=unipts", "tournament=0"), "tournament must be >= 1"),
    ])
    @pytest.mark.parametrize("command", ["run", "prune"])
    def test_exit_one_and_no_files(self, cfg_file, tmp_path, capsys, command,
                                   overrides, message):
        out = tmp_path / "out"
        args = [arg for ov in overrides for arg in ("-o", ov)]
        assert run_cli(command, "-c", cfg_file(), "-o", f"out_dir={out}", *args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert message in err[0]
        assert not out.exists()

    def test_shape_the_preset_rejects_is_teacher_failure(self, cfg_file, tmp_path,
                                                         capsys):
        # only convnet-small sees that 6 is not divisible by 4
        assert run_cli("run", "-c", cfg_file(), "-o", f"out_dir={tmp_path / 'out'}",
                       "-o", "preset=convnet-small", "-o", "image_size=6") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["stage failure: [teacher] convnet-small needs height/width "
                       "divisible by 4"]

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
                                        "gamma=1.0"])
        scfg, tcfg = cfg.search_config(seed=7), cfg.train_config(seed=7)
        assert (scfg.p, scfg.population, scfg.elites, scfg.tournament, scfg.seed,
                scfg.exclude_layers) == (0.5, 4, 1, 2, 7, (3,))
        assert (tcfg.iterations, tcfg.batch_size, tcfg.gamma, tcfg.seed,
                tcfg.metrics_every, tcfg.objective) == (8, 16, 1.0, 7, 4,
                                                        "base_decayed_kl")
        pot = parse_config(cfg_file(), ["method=pot-baseline"])
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
        ("run", "uniform+dst"), ("run", "pot-baseline")])
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
        from idx_writer import save_idx
        from ptsparse.data import synthetic_splits
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


class TestFailedStageWritesNothing:
    """A job's files appear only once every stage has succeeded, and a
    directory only with its first file: a failed stage leaves no debris."""

    @pytest.mark.parametrize("command,overrides,failed,left", [
        ("run", ("method=unipts",), "train", ["teacher.ckpt"]),
        ("run", (), "search", ["teacher.ckpt"]),
        ("search", ("method=unipts",), "search", None),
        ("run", ("preset=convnet-small", "image_size=6"), "teacher", None),
        ("teacher", ("preset=convnet-small", "image_size=6"), "teacher", None),
    ], ids=["train", "run-search", "search", "run-teacher", "teacher"])
    def test_output_holds_only_finished_stages(self, cfg_file, tmp_path, capsys,
                                               monkeypatch, command, overrides,
                                               failed, left):
        def diverged(*args):
            raise ValueError("loss diverged")

        # uniform+dst (BASE) and unipts build their distributions here
        stubbed = {"train": ["run_training"], "search": ["uniform_distribution", "evolve"]}
        for name in stubbed.get(failed, []):
            monkeypatch.setattr(harness, name, diverged)
        out = tmp_path / "out"
        args = [arg for ov in overrides for arg in ("-o", ov)]
        assert run_cli(command, "-c", cfg_file(), "-o", f"out_dir={out}", *args) == 2
        assert capsys.readouterr().err.startswith(f"stage failure: [{failed}] ")
        assert (sorted(str(p.relative_to(out)) for p in out.rglob("*"))
                if out.exists() else None) == left


# run_single's outputs on BASE for every method path, recorded before the CLI
# and harness were folded into one pipeline, so a refactor that moves a bit
# fails here. The parameter hashes were re-recorded when the Conv2d weight
# gradient and the BatchNorm input gradient changed their order of summation,
# when pot-baseline stopped masking its weight gradient (mlp3 only), when
# BatchNorm became one per-channel affine with einsum moments and when the
# convnet's activations went batch last (convnet-small only); no metrics row
# or mask moved. The bits are those of the float library they
# were recorded with
# (numpy 2.4.6, scipy-openblas 0.3.31, x86-64): another numpy or BLAS may
# round differently, and a mismatch there alone is a platform difference,
# not a bug.
GOLDEN_TEACHER = {
    "mlp3": "93d22855b1ad261e348f256bcdcb0896aebd53d29d06e241ebcdf3a24cf509fb",
    "convnet-small": "9d9bdc15c46231caefd6ea95a4cef90906183cb14b7f418730dba0ec71946b0e",
}
GOLDEN = {  # (preset, method[/nm pattern]): (metrics.csv row, masks.bin sha256, student)
    ("mlp3", "unipts"): (
        "unipts,0.5000,0.500020,0.616667,0,0.000",
        "3effe30826a72b50a50f96cb6f33d080d154292f2c6b067e7b2fef17f35bc101",
        "3095789cca1ef8a9694ac3534d24ca507096b720bf3248dca7aaaae1e1ac66fa"),
    ("mlp3", "uniform+dst"): (
        "uniform+dst,0.5000,0.500000,0.666667,0,0.000",
        "77afd40b86877ece0b3983c9488eaec6d9e0f4edd6547c6c9e0e2ff78f968f36",
        "c659e604114c6f3885d91900dc977955d2fbbcc78798f7c47abb33d7c86d5329"),
    ("mlp3", "erk+dst"): (
        "erk+dst,0.5000,0.500020,0.600000,0,0.000",
        "d70f9d9774525a24f613c7b6e2c8ca465aeeac21825f3a62e331997a5067477b",
        "98e2eddc1d7f6d0a36ca90f00f99fab5e2d5228781c9aa035536a980c96dbd3c"),
    ("mlp3", "pot-baseline"): (
        "pot-baseline,0.5000,0.500000,0.633333,0,0.000",
        "50713515d78fa532a47c4d42387cb81bf1c5011fe4dc5d87d6a7ef6b10b76318",
        "1f090cfae04426cb1e8438a856b359d490cd018fd29c92a51161caa0bab3111d"),
    ("mlp3", "oneshot"): (
        "oneshot,0.5000,0.500000,0.616667,0,0.000",
        "50713515d78fa532a47c4d42387cb81bf1c5011fe4dc5d87d6a7ef6b10b76318",
        "4fdd15f44475e42394a34e56dbc3721f92ed1a582b7a3455de21e4f31f414342"),
    ("mlp3", "uniform+dst/2:4"): (
        "uniform+dst,0.5000,0.500000,0.466667,0,0.000",
        "071959fadae9e44a8d06681fa912ad4fead6b3d958550b325401f3b6be7e7190",
        "691aa24ef4a439bbf99d7c73273cbd4d6c51b4e10a4bbd7b4a65c079b9505661"),
    ("convnet-small", "unipts"): (
        "unipts,0.5000,0.501412,0.533333,0,0.000",
        "eb0f878d07d887e36c1da329cb1c8cb6799605cd4a5e132488dd5f65da3eb857",
        "03f865f4ab20efcdd94d622086d314f31047d1869d49d7413cdffd0b9b93dd81"),
    ("convnet-small", "uniform+dst"): (
        "uniform+dst,0.5000,0.500000,0.433333,0,0.000",
        "b200282d6c34732360e65664c1173da5cf91a5a8377d35cf9fa8a0dbe1e99989",
        "b99fb96e86559852321642d49bfd960b3ed2e6240dfe72788f0eeaa35985f7f9"),
    ("convnet-small", "erk+dst"): (
        "erk+dst,0.5000,0.500000,0.516667,0,0.000",
        "70d4cb15360b61c9f2475131fb75e7fb555361e63c537b71e96c93f934fc220e",
        "5e5be882376e6bd1cbe60ebf0c4757426e21304b0b3faa28355ec2558bb2b009"),
    ("convnet-small", "pot-baseline"): (
        "pot-baseline,0.5000,0.500000,0.500000,0,0.000",
        "1c71274cf4fd78cafcd986f35a04cc16edcd84e2c821967a2a94fca7982475cb",
        "62eb28c5bc3d30776145edfa242bd1f0502a125e6679b6cafcb80712cf508cf0"),
    ("convnet-small", "oneshot"): (
        "oneshot,0.5000,0.500000,0.433333,0,0.000",
        "1c71274cf4fd78cafcd986f35a04cc16edcd84e2c821967a2a94fca7982475cb",
        "1224f44621080bac8fff640355d19485ce7e75904ca8528d6341e2662e0b29bf"),
    ("convnet-small", "uniform+dst/2:4"): (
        "uniform+dst,0.5000,0.497175,0.266667,0,0.000",
        "76b0527172c4cfcc1de630ca1deaa984a6b3215ee06131022f25a4f22ce66d53",
        "3f9a7c9eb0e6464acfb2bc92d33d57cd2bf89c9dc810d17a9de9439fdee49d74"),
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
        write_metrics([run_single(cfg, splits, teacher, 0, str(tmp_path))],
                      tmp_path / "metrics.csv")
        # outputs first, float bits last: a move of the bits alone fails on
        # a hash line
        assert (tmp_path / "metrics.csv").read_bytes() == (
            "method,target_sparsity,realized_sparsity,top1,seed,wall_time_s\r\n"
            f"{row_text}\r\n").encode()
        assert hashlib.sha256((tmp_path / "masks.bin").read_bytes()).hexdigest() \
            == masks_sha256
        assert teacher.param_hash() == GOLDEN_TEACHER[preset]
        assert load_network(tmp_path / "student.ckpt").param_hash() == student_hash


# `ptsparse prune` on BASE (mlp3), recorded before one-shot pruning became the
# pipeline's job with zero DST steps: (student.ckpt sha256, masks.bin sha256,
# masks.txt, one-shot top-1). Same float-library caveat and the same
# re-recorded checkpoint hashes as GOLDEN.
PRUNE_MASKS_UNIFORM = (
    " layer              shape        nnz     rate\n"
    "     0          (256, 64)       8192   0.5000\n"
    "     3         (128, 256)      16384   0.5000\n"
    "     6           (3, 128)        192   0.5000\n")
GOLDEN_PRUNE = {
    "unipts": (
        "ba6475431755b0941dae4891296b7b9b20c0d04ccf7fae806da7d5f12bbd7690",
        "0e3f2efb296f00e3f88f184dc0506c816ab5d908d960a20e7515d1c2304e81b9",
        " layer              shape        nnz     rate\n"
        "     0          (256, 64)       8432   0.4854\n"
        "     3         (128, 256)      15951   0.5132\n"
        "     6           (3, 128)        384   0.0000\n", "0.6000"),
    "uniform+dst": (
        "9c4659ceeaaa62cfeb073e833a2cd65e897ff7b21b1d61bab53d845127b98934",
        "50713515d78fa532a47c4d42387cb81bf1c5011fe4dc5d87d6a7ef6b10b76318",
        PRUNE_MASKS_UNIFORM, "0.6167"),
    "uniform+dst/2:4": (
        "24d48534caee07f5186a0e48e0b5a8292c3fc4854e9b7aac295b3633a030e0d4",
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
        assert sha256("masks.bin") == masks
        assert (out / "masks.txt").read_text() == masks_txt
        assert capsys.readouterr().out == f"{masks_txt}one-shot top-1: {top1}\n"
        assert sha256("student.ckpt") == student
