"""Everything a user can set, pinned: the config keys, each subcommand's
options and arguments, and no environment variable. A change that adds or
removes a setting edits the lists here, so the diff shows it. The project runs
no linter, so this file also checks that each source and test module uses what
it imports, and imports only at module level, and that config imports no stage
and nothing that builds or reads a network."""

import argparse
import ast
from dataclasses import fields
from pathlib import Path

from ptsparse.cli import build_parser
from ptsparse.config import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ptsparse"
TESTS = ROOT / "tests"
# src and tests/, not bench/, which is kept byte-stable for the benchmark's runs
MODULES = [*sorted(SRC.rglob("*.py")), *sorted(TESTS.glob("*.py"))]

CONFIG_KEYS = [
    "dataset", "classes", "image_size", "train_size", "eval_size", "data_blobs",
    "data_seed", "idx_train_images", "idx_train_labels", "idx_eval_images",
    "idx_eval_labels", "preset", "teacher_checkpoint", "teacher_epochs", "calib_size",
    "sparsity", "nm_pattern", "exclude_layers", "method", "seeds", "out_dir",
    "record_timing", "population", "generations", "elites", "tournament", "noise_std",
    "iterations", "batch_size", "lr", "alpha", "delta_t", "gamma", "metrics_every",
]

JOB_OPTIONS = ["-h", "--help", "--config", "-c", "--override", "-o"]
COMMAND_OPTIONS = {
    "teacher": JOB_OPTIONS,
    "search": JOB_OPTIONS,
    "prune": JOB_OPTIONS,
    "eval": [*JOB_OPTIONS, "--checkpoint", "--masks"],
    "run": JOB_OPTIONS,
    "report": ["-h", "--help", "dirs", "--csv-out"],  # dirs is positional
}


def test_config_keys():
    assert [f.name for f in fields(ExperimentConfig)] == CONFIG_KEYS


def test_command_options():
    def options(parser):  # option strings, or the name of a positional
        return [s for a in parser._actions for s in (a.option_strings or [a.dest])]

    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert options(parser) == ["-h", "--help", "command"]
    assert {name: options(p) for name, p in sub.choices.items()} == COMMAND_OPTIONS


def test_no_environment_variable_is_read():
    readers = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
               if any(word in path.read_text() for word in ("os.environ", "getenv"))]
    assert readers == []


def test_every_imported_name_is_used_or_exported():
    unused = {}
    for path in MODULES:
        tree = ast.parse(path.read_text())
        imported = {(a.asname or a.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {name for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for name in ast.literal_eval(node.value)}
        if left := imported - used - exported:
            unused[str(path.relative_to(ROOT))] = sorted(left)
    assert unused == {}


def test_no_import_inside_a_function():
    # an import cycle between modules then fails when the package is imported,
    # and a module's imports are read in one place
    late = [f"{path.relative_to(ROOT)}:{fn.name}" for path in MODULES
            for fn in ast.walk(ast.parse(path.read_text()))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(fn))]
    assert late == []


def test_config_reads_no_network():
    # config checks the settings and that the files they name exist; the
    # teacher stage checks exclude_layers against the network it holds
    tree = ast.parse((SRC / "config.py").read_text())
    imports = {(node.module, a.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level for a in node.names}
    assert imports == {("nn.presets", "PRESETS"), ("sparsity", "NMPattern")}
