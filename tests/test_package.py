"""The package surface: what the benchmark reads off it, and what README shows of it.

`perfbench/workloads.py` calls the pipeline and its traced replay through
module attributes (`chain.extend_cycle`, `hamilton.hamiltonian_path`, ...),
so a name deleted from a module breaks the benchmark without breaking any
other test. The replay-only helpers stay in their modules for it, but are
not part of the package's exported API.
"""

import ast
import importlib
import re
from pathlib import Path

import kingchain

ROOT = Path(__file__).resolve().parent.parent

BENCHMARK_MODULES = ("analysis", "chain", "cli", "core", "hamilton", "oracle")

# Kept in their modules for the benchmark's traced replay, never exported.
REPLAY_ONLY = (
    ("chain", "build_ladder"),
    ("chain", "extend_cycle"),
    ("chain", "spine_path"),
    ("hamilton", "hamiltonian_path"),
    ("oracle", "brute_is_king_of_induced"),
)


def benchmark_reads():
    """(module, attribute) for every `module.attribute` in the benchmark's source."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in BENCHMARK_MODULES
    }


def test_every_name_the_benchmark_reads_resolves():
    reads = benchmark_reads()
    assert set(REPLAY_ONLY) <= reads
    missing = [
        f"{module}.{name}"
        for module, name in sorted(reads)
        if not hasattr(importlib.import_module(f"kingchain.{module}"), name)
    ]
    assert not missing


def test_replay_only_helpers_are_not_exported():
    for module, name in REPLAY_ONLY:
        assert name not in kingchain.__all__
        assert not hasattr(kingchain, name)
        assert callable(getattr(importlib.import_module(f"kingchain.{module}"), name))
    assert set(kingchain.__all__) <= set(dir(kingchain))


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None
    exec(compile(block.group(1), "README.md quickstart", "exec"), {})
