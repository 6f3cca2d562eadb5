"""Public surface: what ``import qkdplan`` and each module export."""
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qkdplan

MODULES = ("cli", "decoy", "linkbudget", "lp", "netmodel", "router")

# Cross-check helpers that live in tests/oracles.py, not in the package.
TEST_ONLY = (
    "InsufficientKeysError",
    "RelayTrace",
    "SERIES_TERMS",
    "_CSV_SUM_TOL",
    "_parse_number",
    "_photon_arrival",
    "consume",
    "error_rate_n",
    "forward_key_rate",
    "gain_and_qber_series",
    "poisson_pn",
    "relay_chain_demo",
    "solution_from_csv",
    "transmittance",
    "yield_n",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"qkdplan.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", ("qkdplan",) + tuple(f"qkdplan.{m}" for m in MODULES))
def test_test_only_helpers_stay_out_of_the_package(name):
    module = importlib.import_module(name)
    assert [attr for attr in TEST_ONLY if hasattr(module, attr)] == []


def test_package_reexports_come_from_module_exports():
    # the top level is exactly the library modules' exports; cli's are its own
    exported = set()
    for name in MODULES:
        if name != "cli":
            exported.update(importlib.import_module(f"qkdplan.{name}").__all__)
    public = {
        attr for attr in vars(qkdplan)
        if not attr.startswith("_") and attr not in MODULES
    }
    assert public == exported


def test_runtime_package_imports_no_scipy():
    # numpy is the only runtime dependency; scipy (HiGHS) is a test extra.
    code = (
        "import importlib, pkgutil, sys\n"
        "import qkdplan\n"
        "names = [m.name for m in pkgutil.iter_modules(qkdplan.__path__) if m.name != '__main__']\n"
        "for name in names:\n"
        "    importlib.import_module('qkdplan.' + name)\n"
        "print(len(names), 'scipy' in sys.modules)\n"
    )
    src = str(Path(qkdplan.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == f"{len(MODULES)} False\n"


def test_readme_library_example_runs(monkeypatch):
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(root)  # the example loads a scenario by its relative path
    exec(compile(block, "README.md", "exec"), {})
