import csv
import hashlib
import json
import re

import numpy as np
import pytest

from idx_writer import save_idx
from ptsparse.cli import main
from ptsparse.config import ExperimentConfig, parse_config
from ptsparse.data import synthetic_splits
from ptsparse import harness
from ptsparse.harness import (METRICS_HEADER, StageError, load_dataset, prepare_teacher,
                              read_metrics, run_single, write_metrics)
from ptsparse.nn import build_preset, load_masks, load_network, save_network
from ptsparse.nn.checkpoint import MAGIC, MASK_MAGIC, read_container, write_container

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


def conv_checkpoint(tmp_path, **spec):
    """A convnet-small checkpoint for BASE's 8x8 images and 3 classes, its
    layer 0, a Conv2d, given the spec values."""
    path = tmp_path / "conv.ckpt"
    save_network(build_preset("convnet-small", (1, 8, 8), 3), path)
    header, payload = read_container(path, MAGIC)
    header["layers"][0].update(spec)
    write_container(path, MAGIC, header, [payload])
    return path


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

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_file_is_one(self, tmp_path, capsys, kind):
        path = tmp_path / "exp.cfg"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"preset = mlp3 # \xe9t\xe9\n")
        out = tmp_path / "out"
        assert run_cli("run", "-c", str(path), "-o", f"out_dir={out}") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: config file {path} ")
        assert not out.exists()


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

    def test_file_on_the_path_is_config_error(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file()
        blocker = tmp_path / "file"
        blocker.write_text("x")
        out = f"{blocker}/sub"
        assert run_cli("run", "-c", cfg, "-o", f"out_dir={out}") == 1
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
        # the directory it wrote to
        assert json.loads((run_dir / "config.json").read_text())["out_dir"] == str(run_dir)

    def test_recorded_wall_time_is_the_jobs(self, cfg_file, tmp_path):
        # metrics.csv and timing.txt format the same elapsed time
        out = tmp_path / "timed"
        assert run_cli("run", "-c", cfg_file(), "-o", f"out_dir={out}",
                       "-o", "record_timing=true") == 0
        (row,) = read_metrics(out / "metrics.csv")
        timing = (out / "seed0" / "timing.txt").read_text()
        assert float(row["wall_time_s"]) >= 0.001
        assert timing == f"wall_time_s={row['wall_time_s']}\n"

    def test_config_json_stores_tuples_as_arrays(self, run_dir):
        stored = json.loads((run_dir / "config.json").read_text())
        assert (stored["seeds"], stored["exclude_layers"]) == ([0, 1], [])

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

    def test_search_command(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "s"
        assert run_cli("search", "-c", cfg_file(), "-o", f"out_dir={out}",
                       "-o", "method=unipts") == 0
        assert (out / "distribution.json").exists()
        assert (out / "search.log").exists()
        # the table of masks.txt, for the searched distribution's masks
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[0] == f"{'layer':>6} {'shape':>18} {'nnz':>10} {'rate':>8}"
        assert [line.split()[0] for line in stdout[1:4]] == ["0", "3", "6"]

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

    @pytest.mark.parametrize("method,written", [
        ("unipts", ["distribution.json", "search.log", "train_metrics.csv"]),
        ("uniform+dst", ["distribution.json", "train_metrics.csv"]),
        ("uniform+dst/2:4", ["train_metrics.csv"]),
        ("pot-baseline", ["distribution.json", "train_metrics.csv"]),
        ("oneshot", ["distribution.json"])])
    def test_run_job_writes_exactly(self, cfg_file, tmp_path, method, written):
        # a file a method starts or stops writing shows here; metrics_every
        # is past the last step, so a history is only the last step's row
        name, _, nm = method.partition("/")
        out = tmp_path / "job"
        assert run_cli("run", "-c", cfg_file(), "-o", f"out_dir={out}", "-o", f"method={name}",
                       "-o", "metrics_every=200",
                       *(["-o", f"nm_pattern={nm}"] if nm else [])) == 0
        job = written + ["masks.bin", "masks.txt", "student.ckpt", "timing.txt"]
        assert sorted(str(p.relative_to(out)) for p in out.rglob("*")) == sorted(
            ["config.json", "metrics.csv", "seed0", "teacher.ckpt"]
            + [f"seed0/{f}" for f in job])
        header, _ = read_container(out / "seed0" / "masks.bin", MASK_MAGIC)
        assert {tuple(sorted(rec)) for rec in header["masks"]} == {
            ("layer", "nbytes", "nnz", "offset", "shape")}

    def test_pot_baseline_writes_its_last_step(self, cfg_file, tmp_path):
        # mlp3's 3 layers take 20 // 3 = 6 steps each: one row, at step 18
        out = tmp_path / "pot"
        assert run_cli("run", "-c", cfg_file(), "-o", f"out_dir={out}",
                       "-o", "method=pot-baseline", "-o", "iterations=20",
                       "-o", "metrics_every=200") == 0
        with open(out / "seed0" / "train_metrics.csv", newline="") as f:
            assert [row["iter"] for row in csv.DictReader(f)] == ["18"]

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


class TestExcludeLayersAgainstTheTeacher:
    """exclude_layers is checked against the teacher that the teacher stage
    holds: a list that names no prunable layer of it, or leaves none, is one
    [teacher] stage failure, exit 2, before the teacher trains, with nothing
    written."""

    @pytest.mark.parametrize("exclude,message", [
        ("99", "exclude_layers [99] name no prunable layer (prunable: [0, 3, 6])"),
        ("0,3,6", "no prunable layers left after exclusion")])
    def test_one_teacher_failure_line(self, cfg_file, tmp_path, capsys, monkeypatch,
                                      exclude, message):
        def train_teacher(*args):
            raise AssertionError("the teacher was trained")
        monkeypatch.setattr(harness, "train_teacher", train_teacher)
        out = tmp_path / "out"
        code = run_cli("run", "-c", cfg_file(), "-o", f"out_dir={out}",
                       "-o", f"exclude_layers={exclude}")
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert err == [f"stage failure: [teacher] {message}"]
        assert not out.exists()

    def test_prunable_layers_come_from_the_checkpoint(self, cfg_file, tmp_path, capsys,
                                                      monkeypatch):
        # a convnet-small teacher under the mlp3 config: its layer 3 is an
        # AvgPool and its layer 4 a Conv2d; a run reads the checkpoint once
        path = str(tmp_path / "teacher.ckpt")
        save_network(build_preset("convnet-small", (1, 8, 8), 3), path)
        reads = []
        def counted(file, magic):
            reads.append(str(file))
            return read_container(file, magic)
        monkeypatch.setattr("ptsparse.nn.checkpoint.read_container", counted)
        code = run_cli("run", "-c", cfg_file(), "-o", f"out_dir={tmp_path}/bad",
                       "-o", f"teacher_checkpoint={path}", "-o", "exclude_layers=3")
        assert code == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "stage failure: [teacher] exclude_layers [3] name no prunable layer "
            "(prunable: [0, 4, 9])"]
        reads.clear()
        assert run_cli("run", "-c", cfg_file(), "-o", f"out_dir={tmp_path}/good",
                       "-o", f"teacher_checkpoint={path}", "-o", "exclude_layers=4") == 0
        assert reads.count(path) == 1

    def test_checkpoint_that_does_not_load_fails_the_teacher_stage(self, cfg_file, tmp_path,
                                                                   capsys):
        # whatever exclude_layers names: the checkpoint is not read as a teacher
        path = tmp_path / "teacher.ckpt"
        save_network(build_preset("convnet-small", (1, 8, 8), 3), path)
        path.write_bytes(path.read_bytes()[:-8])
        out = tmp_path / "out"
        code = run_cli("run", "-c", cfg_file(), "-o", f"out_dir={out}",
                       "-o", f"teacher_checkpoint={path}", "-o", "exclude_layers=3")
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("stage failure: [teacher] ")
        assert not out.exists()


class TestEvalCorruptInputs:
    """The routes by which a container that does not load reaches exit 2;
    each rule is a row of tests/test_checkpoint.py."""

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

    def test_teacher_checkpoint_is_teacher_failure(self, cfg_file, tmp_path, capsys):
        path = conv_checkpoint(tmp_path, stride=0)
        out = tmp_path / "out"
        assert run_cli("run", "-c", cfg_file(), "-o", f"out_dir={out}",
                       "-o", f"teacher_checkpoint={path}") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["stage failure: [teacher] stride 0 is not an integer >= 1"]
        assert not out.exists()


class TestCheckpointThatDoesNotFit:
    """A checkpoint made for other data, here a 3-class mlp3 on BASE's 8x8
    images, or one whose first forward cannot be allocated, is one stage
    failure, exit 2, before anything is written: the teacher stage's when a
    job loads it as its teacher, eval's in eval."""

    @pytest.fixture
    def loads_ckpt(self, tmp_path):
        """The arguments by which a command loads the checkpoint."""
        path = tmp_path / "mlp3.ckpt"
        save_network(build_preset("mlp3", (64,), 3), path)
        return lambda command: (["--checkpoint", str(path)] if command == "eval"
                                else ["-o", f"teacher_checkpoint={path}"])

    @pytest.mark.parametrize("command,override", [
        ("run", "classes=5"), ("run", "classes=2"), ("run", "image_size=4"),
        ("teacher", "classes=5"), ("prune", "image_size=4"), ("search", "classes=2"),
        ("eval", "classes=5"), ("eval", "image_size=4")])
    def test_stage_failure_writes_nothing(self, cfg_file, tmp_path, capsys, loads_ckpt,
                                          command, override):
        out = tmp_path / "out"
        code = run_cli(command, "-c", cfg_file(), "-o", f"out_dir={out}", "-o", override,
                       *loads_ckpt(command))
        err = capsys.readouterr().err.strip().splitlines()
        stage = "eval" if command == "eval" else "teacher"
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"stage failure: [{stage}] ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "run"])
    def test_allocation_failure_writes_nothing(self, cfg_file, tmp_path, capsys, command):
        # padding 10**7 asks the first forward for a 2.84 PiB input, which no
        # allocator grants
        path = conv_checkpoint(tmp_path, padding=10**7)
        out = tmp_path / "out"
        code = run_cli(command, "-c", cfg_file(), "-o", f"out_dir={out}",
                       *(["--checkpoint", str(path)] if command == "eval"
                         else ["-o", f"teacher_checkpoint={path}"]))
        err = capsys.readouterr().err.strip().splitlines()
        stage = "eval" if command == "eval" else "teacher"
        assert code == 2
        assert len(err) == 1
        assert err[0].startswith(f"stage failure: [{stage}] Unable to allocate 2.84 PiB")
        assert not out.exists()

    # the preset names only a teacher to train: the checkpoint's layer 0 decides
    # how it reads the 8x8 images, whatever the preset
    @pytest.mark.parametrize("command,overrides", [
        ("run", ()), ("eval", ()), ("run", ("preset=convnet-small",))],
        ids=["run", "eval", "run-preset=convnet-small"])
    def test_checkpoint_that_fits_runs(self, cfg_file, tmp_path, loads_ckpt, command,
                                       overrides):
        args = [arg for ov in overrides for arg in ("-o", ov)]
        assert run_cli(command, "-c", cfg_file(), "-o", f"out_dir={tmp_path}/out",
                       *args, *loads_ckpt(command)) == 0


class TestLayoutFollowsTheNetwork:
    """With teacher_checkpoint set, preset is ignored: a teacher of either
    preset runs under either preset value, byte for byte as under its own."""

    OTHER = {"mlp3": "convnet-small", "convnet-small": "mlp3"}

    @staticmethod
    def teacher_ckpt(cfg_file, tmp_path, preset):
        out = tmp_path / f"teacher-{preset}"
        assert run_cli("teacher", "-c", cfg_file(), "-o", f"out_dir={out}",
                       "-o", f"preset={preset}") == 0
        return out / "teacher.ckpt"

    @pytest.mark.parametrize("preset", ["convnet-small", "mlp3"])
    def test_run_under_the_other_preset(self, cfg_file, tmp_path, preset):
        ckpt = self.teacher_ckpt(cfg_file, tmp_path, preset)
        written = []
        for value in (preset, self.OTHER[preset]):
            out = tmp_path / f"run-{value}"
            assert run_cli("run", "-c", cfg_file(), "-o", f"out_dir={out}",
                           "-o", f"preset={value}", "-o", "method=unipts",
                           "-o", f"teacher_checkpoint={ckpt}") == 0
            written.append([(out / name).read_bytes()
                            for name in ("metrics.csv", "seed0/student.ckpt")])
        assert written[0] == written[1]

    @pytest.mark.parametrize("preset", ["convnet-small", "mlp3"])
    def test_eval_under_the_other_preset(self, cfg_file, tmp_path, capsys, preset):
        ckpt = self.teacher_ckpt(cfg_file, tmp_path, preset)
        capsys.readouterr()
        printed = []
        for value in (preset, self.OTHER[preset]):
            assert run_cli("eval", "-c", cfg_file(), "-o", f"out_dir={tmp_path}",
                           "-o", f"preset={value}", "--checkpoint", str(ckpt)) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert re.fullmatch(r"top1=\d\.\d{6}\n", printed[0])


class TestStageSettingsAtParseTime:
    """Each route by which a config error reaches exit 1, before the teacher
    is trained and with nothing written: a rule on the settings, one on the
    search's settings, an unknown key, and a file that a setting names."""

    @pytest.mark.parametrize("overrides,message", [
        (("delta_t=0",), "delta_t must be >= 1"),
        (("method=unipts", "population=1"), "population must be >= 2"),
        (("objective=kl",), "unknown config key 'objective'"),
        (("teacher_checkpoint={tmp}/none.ckpt",),
         "teacher_checkpoint not found: '{tmp}/none.ckpt'"),
    ], ids=["settings", "search-settings", "unknown-key", "file"])
    @pytest.mark.parametrize("command", ["run", "prune"])
    def test_exit_one_and_no_files(self, cfg_file, tmp_path, capsys, command,
                                   overrides, message):
        # each rule is a row of tests/test_config.py
        out = tmp_path / "out"
        args = [arg for ov in overrides for arg in ("-o", ov.format(tmp=tmp_path))]
        assert run_cli(command, "-c", cfg_file(), "-o", f"out_dir={out}", *args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"config error: {message.format(tmp=tmp_path)}"]
        assert not out.exists()

    def test_shape_the_preset_rejects_is_teacher_failure(self, cfg_file, tmp_path,
                                                         capsys):
        # only convnet-small sees that 6 is not divisible by 4
        assert run_cli("run", "-c", cfg_file(), "-o", f"out_dir={tmp_path / 'out'}",
                       "-o", "preset=convnet-small", "-o", "image_size=6") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["stage failure: [teacher] convnet-small needs height/width "
                       "divisible by 4"]


class TestCalibrationSize:
    """An empty calibration set is taken by a job that neither searches nor
    takes DST steps; one larger than the train split is a stage failure once
    loaded IDX data shows it. The config errors for synthetic data and for an
    empty set that a job needs are rows of tests/test_config.py."""

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
        s = synthetic_splits(ExperimentConfig(classes=3, image_size=8, train_size=30,
                                              eval_size=20, data_blobs=2, data_seed=0,
                                              calib_size=30))
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


class TestBadIdxFiles:
    """An IDX file that cannot make a split is a [data] failure before the
    teacher trains: exit 2, one line, nothing written."""

    @pytest.mark.parametrize("fault,message", [
        ("header", "header ends inside its 1 dimensions"),
        ("labels", "train split: 30 images but 31 labels"),
        ("labels2d", "train labels of shape (30, 1): want one label per image"),
        ("eval10x10", "eval images of shape (1, 10, 10) differ from the train images' "
                      "(1, 8, 8)"),
        ("eval0d", "eval images: a single value, no batch axis"),
    ])
    def test_stage_failure_exit_two(self, cfg_file, tmp_path, capsys, fault, message):
        # 3-D (H x W) image files, as MNIST's, which the reader gives one channel
        s = synthetic_splits(ExperimentConfig(classes=3, image_size=8, train_size=30,
                                              eval_size=20, data_blobs=2, data_seed=0,
                                              calib_size=30))
        ty = {"labels": np.append(s.train_y, 0),
              "labels2d": s.train_y[:, None]}.get(fault, s.train_y)
        ex = {"eval10x10": np.zeros((20, 10, 10)),
              "eval0d": np.array(0.5)}.get(fault, s.eval_x[:, 0])
        args = []
        for key, arr in [("idx_train_images", s.train_x[:, 0]),
                         ("idx_train_labels", ty.astype(np.uint8)),
                         ("idx_eval_images", ex),
                         ("idx_eval_labels", s.eval_y.astype(np.uint8))]:
            path = tmp_path / f"{key}.idx"
            save_idx(path, arr)
            args += ["-o", f"{key}={path}"]
        if fault == "header":  # cut inside the label file's dimension word
            path = tmp_path / "idx_train_labels.idx"
            path.write_bytes(path.read_bytes()[:6])
        out = tmp_path / "out"
        assert run_cli("run", "-c", cfg_file(), "-o", f"out_dir={out}", "-o", "dataset=idx",
                       "-o", "calib_size=30", *args) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("stage failure: [data] ")
        assert message in err[0]
        assert not out.exists()


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
# BatchNorm became one per-channel affine with einsum moments, when the
# convnet's activations went batch last and when the Conv2d bias gradient and
# AvgPool summed in that layout's order (convnet-small only); no metrics row
# or mask moved. The masks.bin hashes were re-recorded when its records
# stopped storing a per-layer rate; the mask bits did not move. The bits are
# those of the float library they
# were recorded with
# (numpy 2.4.6, scipy-openblas 0.3.31, x86-64): another numpy or BLAS may
# round differently, and a mismatch there alone is a platform difference,
# not a bug.
GOLDEN_TEACHER = {
    "mlp3": "93d22855b1ad261e348f256bcdcb0896aebd53d29d06e241ebcdf3a24cf509fb",
    "convnet-small": "02bf0d83c02c8c0291ab1e67dcf9c05e08d9b89943ead718e700fd0d8811545b",
}
GOLDEN = {  # (preset, method[/nm pattern]): (metrics.csv row, masks.bin sha256, student)
    ("mlp3", "unipts"): (
        "unipts,0.5000,0.500020,0.616667,0,0.000",
        "b2ed6e97921d49c03f67019ea4ed98ecdf4911dc3da1ba6fcc7ab87c25655086",
        "3095789cca1ef8a9694ac3534d24ca507096b720bf3248dca7aaaae1e1ac66fa"),
    ("mlp3", "uniform+dst"): (
        "uniform+dst,0.5000,0.500000,0.666667,0,0.000",
        "e2d5515f90474707f6d42eab1a4d3f9f3260053ece755f0938a8091bdeb03310",
        "c659e604114c6f3885d91900dc977955d2fbbcc78798f7c47abb33d7c86d5329"),
    ("mlp3", "erk+dst"): (
        "erk+dst,0.5000,0.500020,0.600000,0,0.000",
        "2b239b00151c5f0deeb905f5fa90f744922408dd6a4ba19ad43bdd3232347540",
        "98e2eddc1d7f6d0a36ca90f00f99fab5e2d5228781c9aa035536a980c96dbd3c"),
    ("mlp3", "pot-baseline"): (
        "pot-baseline,0.5000,0.500000,0.633333,0,0.000",
        "dca1734681e06c34750fce35bd691a2b7325cdfa4151763c5132f5241e14a594",
        "1f090cfae04426cb1e8438a856b359d490cd018fd29c92a51161caa0bab3111d"),
    ("mlp3", "oneshot"): (
        "oneshot,0.5000,0.500000,0.616667,0,0.000",
        "dca1734681e06c34750fce35bd691a2b7325cdfa4151763c5132f5241e14a594",
        "4fdd15f44475e42394a34e56dbc3721f92ed1a582b7a3455de21e4f31f414342"),
    ("mlp3", "uniform+dst/2:4"): (
        "uniform+dst,0.5000,0.500000,0.466667,0,0.000",
        "c7cfa8a9c6b02a8744833621ded300b7a02a1b229d0d23c9f89fee0c6fa17e50",
        "691aa24ef4a439bbf99d7c73273cbd4d6c51b4e10a4bbd7b4a65c079b9505661"),
    ("convnet-small", "unipts"): (
        "unipts,0.5000,0.501412,0.533333,0,0.000",
        "4af36934490332b3349efe2f08ccbe255f7e8e5e904128ebfc0f11b0b05ec89a",
        "44fc594e79812c08b79ff3bc71a91612377bf90a93780365ad9ebfe4d2e067f2"),
    ("convnet-small", "uniform+dst"): (
        "uniform+dst,0.5000,0.500000,0.433333,0,0.000",
        "41f157f0f7b36906468cd96b857d25b641edce69396de59cccf17cb3424eab7f",
        "d5a3f52e9029c6097505556a7bcf27a7c1bda541f772d837b957c26f35428eb0"),
    ("convnet-small", "erk+dst"): (
        "erk+dst,0.5000,0.500000,0.516667,0,0.000",
        "a140494e3a7896405445ac86b50e871cea56b288b573e23fe114bf88dbf67dc4",
        "eebc27f56230948242d7c855f14a2abbb881205a06e6a48215a9a14f3a13835a"),
    ("convnet-small", "pot-baseline"): (
        "pot-baseline,0.5000,0.500000,0.500000,0,0.000",
        "a2f3868348203b6ec77c6f2cebed8e711075e41f94da5565975d07bec17dffdf",
        "5cb9de02808037beb88e1a661acba08b8fd86817f46ff27b176c1b23ce776a44"),
    ("convnet-small", "oneshot"): (
        "oneshot,0.5000,0.500000,0.433333,0,0.000",
        "a2f3868348203b6ec77c6f2cebed8e711075e41f94da5565975d07bec17dffdf",
        "66217fe83a16367437ece7620aff0fb08518c032e225a2fddc4df6191a2c75b5"),
    ("convnet-small", "uniform+dst/2:4"): (
        "uniform+dst,0.5000,0.497175,0.266667,0,0.000",
        "33376a6a3b62084fd4f62b7ee7ce196914fef0b1f3c23acc96f137b93fa4acb0",
        "fcc4a16d893b65ab4ca1dbd3c779c29c83a6a5415d8ad213b8642d5379e88f1b"),
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
# re-recorded checkpoint and masks.bin hashes as GOLDEN.
PRUNE_MASKS_UNIFORM = (
    " layer              shape        nnz     rate\n"
    "     0          (256, 64)       8192   0.5000\n"
    "     3         (128, 256)      16384   0.5000\n"
    "     6           (3, 128)        192   0.5000\n")
GOLDEN_PRUNE = {
    "unipts": (
        "ba6475431755b0941dae4891296b7b9b20c0d04ccf7fae806da7d5f12bbd7690",
        "c81cd927389160d6b9993cacae5eb5f892f1ec5d7c08b8c4ebe41f434d78dd79",
        " layer              shape        nnz     rate\n"
        "     0          (256, 64)       8432   0.4854\n"
        "     3         (128, 256)      15951   0.5132\n"
        "     6           (3, 128)        384   0.0000\n", "0.6000"),
    "uniform+dst": (
        "9c4659ceeaaa62cfeb073e833a2cd65e897ff7b21b1d61bab53d845127b98934",
        "dca1734681e06c34750fce35bd691a2b7325cdfa4151763c5132f5241e14a594",
        PRUNE_MASKS_UNIFORM, "0.6167"),
    "uniform+dst/2:4": (
        "24d48534caee07f5186a0e48e0b5a8292c3fc4854e9b7aac295b3633a030e0d4",
        "9ab3c90e783012f0a8d6fe984af67e045b13a49bd23813530907ba62b3f3e7ed",
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
