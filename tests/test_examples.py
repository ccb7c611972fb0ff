"""Smoke tests: every example script runs, every bench module imports.

Examples are part of the public deliverable; a broken example is a
broken library. Each runs in-process via runpy with a trimmed workload
where the script supports it (they all finish in seconds as shipped).

The benchmark modules run only under ``pytest benchmarks/``, and CI
runs just a subset of them, so a bench module that imports a deleted
API would otherwise go unnoticed: each is imported here by file path,
without running a benchmark.
"""

import importlib.util
import runpy
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

EXAMPLES = sorted(path for path in (REPO_ROOT / "examples").glob("*.py"))

BENCH_MODULES = sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    output = capsys.readouterr().out
    assert output.strip(), f"{script.name} produced no output"


def test_all_examples_present():
    names = {path.name for path in EXAMPLES}
    assert {
        "quickstart.py",
        "btc_bch_migration.py",
        "reward_design_attack.py",
        "learning_dynamics_comparison.py",
        "pow_substrate.py",
        "asymmetric_mining.py",
        "manipulation_planner.py",
        "population_dynamics.py",
    } <= names


@pytest.mark.parametrize("module", BENCH_MODULES, ids=lambda p: p.name)
def test_bench_module_imports(module, monkeypatch):
    # Bench modules import their shared helpers as ``benchmarks.conftest``.
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    name = f"benchmarks.{module.stem}"
    spec = importlib.util.spec_from_file_location(name, module)
    loaded = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, loaded)
    spec.loader.exec_module(loaded)
    assert any(attr.startswith("test_") for attr in vars(loaded))
