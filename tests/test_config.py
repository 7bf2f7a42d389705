"""Every rule by which config.py rejects a setting, one row each in RULES:
config-file text (str or bytes) or overrides, and the exact ConfigError
message that parse_config then raises; {tmp} stands for the test's temporary
directory. A rule checked in a loop over keys has one row per key. A new rule
adds a row here; the CLI tests check only the route by which such an error
reaches exit code 1."""

import dataclasses
import re

import pytest

from ptsparse.config import METHODS, ConfigError, ExperimentConfig, parse_config

RULES = [
    # parse_config
    ("iterations\n", "{tmp}/exp.cfg:1: expected key = value"),
    (b"preset = mlp3 # \xe9t\xe9\n", "config file {tmp}/exp.cfg not found or unreadable: "
     "'utf-8' codec can't decode byte 0xe9 in position 16: invalid continuation byte"),
    (("iterations",), "override 'iterations' must be key=value"),
    ("warp_factor = 9\n", "unknown config key 'warp_factor'"),
    (("iterations=soon",),
     "bad value for 'iterations': 'soon' (invalid literal for int() with base 10: 'soon')"),
    (("record_timing=maybe",), "bad value for 'record_timing': 'maybe' (not a boolean: 'maybe')"),
    # ExperimentConfig.__post_init__: the settings alone
    (("method=magic",),
     "method 'magic' not in ('unipts', 'pot-baseline', 'erk+dst', 'uniform+dst', 'oneshot')"),
    (("dataset=imagenet",), "dataset 'imagenet' must be synthetic or idx"),
    (("preset=resnet",), "preset 'resnet' not in ('mlp3', 'convnet-small')"),
    (("nm_pattern=4:2",), "bad nm_pattern '4:2'"),
    (("nm_pattern=4:4",), "bad nm_pattern '4:4' (need n < m)"),
    (("sparsity=1.5",), "sparsity 1.5 outside (0,1)"),
    (("sparsity=1.0",), "sparsity 1.0 outside (0,1)"),
    (("sparsity=0",), "sparsity 0.0 outside (0,1)"),
    (("sparsity=-0.1",), "sparsity -0.1 outside (0,1)"),
    (("teacher_epochs=-1",), "teacher_epochs must be >= 0"),
    (("data_seed=-1",), "data_seed must be >= 0"),
    (("seeds=-1",), "seeds must be >= 0"),
    (("seeds=0,-2",), "seeds must be >= 0"),
    (("iterations=-1",), "iterations must be >= 0"),
    (("batch_size=0",), "batch_size must be >= 1"),
    (("delta_t=0",), "delta_t must be >= 1"),
    (("metrics_every=0",), "metrics_every must be >= 1"),
    (("classes=0",), "classes must be >= 1"),
    (("image_size=0",), "image_size must be >= 1"),
    (("train_size=0",), "train_size must be >= 1"),  # before the calib_size rule
    (("eval_size=0",), "eval_size must be >= 1"),
    (("data_blobs=0",), "data_blobs must be >= 1"),
    (("population=1",), "population must be >= 2"),
    (("generations=-1",), "generations must be >= 0"),
    (("tournament=0",), "tournament must be >= 1"),
    (("alpha=-0.001",), "alpha must be >= 0 and finite, got -0.001"),
    (("alpha=inf",), "alpha must be >= 0 and finite, got inf"),
    (("alpha=nan",), "alpha must be >= 0 and finite, got nan"),
    (("lr=nan",), "lr must be >= 0 and finite, got nan"),
    (("lr=-0.1",), "lr must be >= 0 and finite, got -0.1"),
    (("noise_std=nan",), "noise_std must be >= 0 and finite, got nan"),
    (("noise_std=-1",), "noise_std must be >= 0 and finite, got -1.0"),
    (("noise_std=inf",), "noise_std must be >= 0 and finite, got inf"),
    (("calib_size=5000",), "calib_size 5000 outside 0..4096 (the train split)"),
    (("calib_size=-1",), "calib_size -1 outside 0..4096 (the train split)"),
    (("seeds=",), "at least one seed required"),
    (("seeds=0,0,1",), "seeds (0, 0, 1) repeat a seed"),
    (("population=3", "elites=4"), "elites must be in [1, population]"),
    (("elites=0",), "elites must be in [1, population]"),
    (("gamma=1.5",), "gamma 1.5 outside (0,1]"),
    (("calib_size=0",), "calib_size 0: the search and DST steps need calibration rows"),
    (("method=uniform+dst", "calib_size=0"),
     "calib_size 0: the search and DST steps need calibration rows"),
    # ExperimentConfig.validate: the files the settings name
    (("dataset=idx",), "idx_train_images missing or not found: ''"),
    (("dataset=idx", "idx_train_images={tmp}"), "idx_train_labels missing or not found: ''"),
    (("dataset=idx", "idx_train_images={tmp}", "idx_train_labels={tmp}"),
     "idx_eval_images missing or not found: ''"),
    (("dataset=idx", "idx_train_images={tmp}", "idx_train_labels={tmp}",
      "idx_eval_images={tmp}/none.idx"), "idx_eval_images missing or not found: "
                                         "'{tmp}/none.idx'"),
    (("dataset=idx", "idx_train_images={tmp}", "idx_train_labels={tmp}",
      "idx_eval_images={tmp}"), "idx_eval_labels missing or not found: ''"),
    (("teacher_checkpoint={tmp}/none.ckpt",), "teacher_checkpoint not found: '{tmp}/none.ckpt'"),
    (("out_dir={tmp}/exp.cfg/out",), "out_dir '{tmp}/exp.cfg/out': '{tmp}/exp.cfg' is not "
                                     "a directory"),
]


@pytest.mark.parametrize("source,message", RULES)
def test_rule(tmp_path, source, message):
    text, overrides = (source, ()) if isinstance(source, (str, bytes)) else ("", source)
    path = tmp_path / "exp.cfg"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    tmp = str(tmp_path)
    with pytest.raises(ConfigError, match=re.escape(message.replace("{tmp}", tmp))):
        parse_config(str(path), [ov.replace("{tmp}", tmp) for ov in overrides])


# the value at the edge of each rule, which parses: each integer setting's
# least value, the closed ends of the float ranges and the largest n of an
# N:M pattern; {tmp} stands for the test's temporary directory
EDGES = [
    (("teacher_epochs=0",), {"teacher_epochs": 0}),
    (("data_seed=0",), {"data_seed": 0}),
    (("seeds=0",), {"seeds": (0,)}),
    (("iterations=0",), {"iterations": 0, "steps": 0}),
    (("batch_size=1",), {"batch_size": 1}),
    (("delta_t=1",), {"delta_t": 1}),
    (("metrics_every=1",), {"metrics_every": 1}),
    (("classes=1",), {"classes": 1}),
    (("image_size=1",), {"image_size": 1}),
    (("train_size=1", "calib_size=1"), {"train_size": 1, "calib_size": 1}),
    (("eval_size=1",), {"eval_size": 1}),
    (("data_blobs=1",), {"data_blobs": 1}),
    (("population=2",), {"population": 2, "elites": 2}),
    (("generations=0",), {"generations": 0}),
    (("tournament=1",), {"tournament": 1}),
    (("alpha=0",), {"alpha": 0.0}),
    (("lr=0",), {"lr": 0.0}),
    (("noise_std=0",), {"noise_std": 0.0}),
    (("sparsity=0.001",), {"sparsity": 0.001}),
    (("sparsity=0.999",), {"sparsity": 0.999}),
    (("gamma=1.0",), {"gamma": 1.0}),
    (("nm_pattern=3:4",), {"nm_pattern": "3:4", "searches": False}),
    (("calib_size=4096",), {"calib_size": 4096}),
    (("method=oneshot", "calib_size=0"), {"calib_size": 0, "steps": 0}),
    (("elites=1",), {"elites": 1}),
    (("population=3", "elites=3"), {"elites": 3}),
    (("seeds=2,0,1",), {"seeds": (2, 0, 1)}),
    (("dataset=idx", "idx_train_images={tmp}", "idx_train_labels={tmp}",
      "idx_eval_images={tmp}", "idx_eval_labels={tmp}", "calib_size=5000"),
     {"dataset": "idx", "calib_size": 5000}),
    (("out_dir={tmp}/a/b/c",), {"record_timing": False}),
]


@pytest.mark.parametrize("overrides,values", EDGES)
def test_edge_parses(tmp_path, overrides, values):
    cfg = parse_config(None, [ov.replace("{tmp}", str(tmp_path)) for ov in overrides])
    assert {key: getattr(cfg, key) for key in values} == values


@pytest.mark.parametrize("value,parsed", [("1", True), ("true", True), ("yes", True),
                                          ("on", True), ("TRUE", True), ("0", False),
                                          ("false", False), ("no", False), ("off", False),
                                          ("Off", False)])
def test_boolean_spellings(value, parsed):
    assert parse_config(None, [f"record_timing={value}"]).record_timing is parsed


@pytest.mark.parametrize("key", ["classes", "image_size", "train_size", "eval_size",
                                 "data_blobs"])
def test_data_settings_checked_only_for_synthetic_data(key):
    # IDX files bring their own sizes and classes; RULES rejects each for
    # synthetic data
    assert getattr(ExperimentConfig(dataset="idx", **{key: 0}), key) == 0


def test_defaults():
    cfg = parse_config()
    assert cfg.method == "unipts"
    assert cfg.sparsity == 0.9
    assert cfg.seeds == (0,)


def test_file_with_comments_and_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# tiny\npreset = mlp3\n\niterations = 8  # steps\nlr = 0.1\n")
    cfg = parse_config(str(path))
    assert (cfg.preset, cfg.iterations, cfg.lr) == ("mlp3", 8, 0.1)
    cfg = parse_config(str(path), ["iterations=99", "lr=0.5", "seeds=3,5,8"])
    assert (cfg.iterations, cfg.lr, cfg.seeds) == (99, 0.5, (3, 5, 8))


@pytest.mark.parametrize("setting", ["population=1", "generations=-1", "tournament=0",
                                     "elites=0", "noise_std=-1"])
@pytest.mark.parametrize("job", [("method=uniform+dst",), ("method=unipts", "nm_pattern=2:4")])
def test_search_settings_checked_only_when_searching(job, setting):
    # uniform+dst and N:M runs never build the search settings
    key, value = setting.split("=")
    assert getattr(parse_config(None, [*job, setting]), key) == float(value)


def test_oneshot_takes_no_step_whatever_iterations():
    assert parse_config(None, ["method=oneshot", "iterations=-1"]).steps == 0


def test_a_made_config_cannot_become_invalid():
    cfg = ExperimentConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.batch_size = 0
    with pytest.raises(ConfigError, match="batch_size must be >= 1"):
        dataclasses.replace(cfg, batch_size=0)


def test_method_meanings_are_properties_not_fields():
    # pot-baseline reconstructs layer outputs, oneshot takes no step and
    # unipts searches unless its masks are N:M; none is a settable key nor
    # a config.json entry
    meanings = {m: (cfg.reconstructs, cfg.steps, cfg.searches) for m in METHODS
                for cfg in [ExperimentConfig(method=m, iterations=8)]}
    assert meanings == {"unipts": (False, 8, True), "pot-baseline": (True, 8, False),
                        "erk+dst": (False, 8, False), "uniform+dst": (False, 8, False),
                        "oneshot": (False, 0, False)}
    assert not ExperimentConfig(method="unipts", nm_pattern="2:4").searches
    assert not {"reconstructs", "steps", "searches"} & set(vars(ExperimentConfig()))
    with pytest.raises(ConfigError, match="unknown config key 'steps'"):
        parse_config(None, ["steps=3"])
