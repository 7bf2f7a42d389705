import os

import numpy as np
import pytest

from ptsparse.cli import main
from ptsparse.config import (OUT_ROOT_ENV, ConfigError, ExperimentConfig,
                             parse_config)
from ptsparse.harness import (METRICS_HEADER, StageError, load_dataset, prepare_teacher,
                              read_metrics, run_single)
from ptsparse.sparsity import load_masks

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
        assert run_cli("search", "-c", cfg_file(),
                       "-o", f"out_dir={tmp_path}/snm",
                       "-o", "nm_pattern=2:4") == 1

    def test_train_command(self, cfg_file, tmp_path):
        out = tmp_path / "tr"
        assert run_cli("train", "-c", cfg_file(), "-o", f"out_dir={out}") == 0
        assert (out / "metrics.csv").exists()

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
        ("run", ())])
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
