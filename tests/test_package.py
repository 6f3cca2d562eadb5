"""Public surface: what ``import qkdplan`` and each module export."""
import importlib

import pytest

import qkdplan

MODULES = ("cli", "decoy", "linkbudget", "lp", "netmodel", "router")

# Cross-check helpers that live in tests/oracles.py, not in the package.
TEST_ONLY = (
    "InsufficientKeysError",
    "RelayTrace",
    "SERIES_TERMS",
    "_photon_arrival",
    "consume",
    "error_rate_n",
    "gain_and_qber_series",
    "poisson_pn",
    "relay_chain_demo",
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
    exported = set()
    for name in MODULES:
        exported.update(importlib.import_module(f"qkdplan.{name}").__all__)
    public = {
        attr for attr in vars(qkdplan)
        if not attr.startswith("_") and attr not in MODULES
    }
    assert public - exported == set()
