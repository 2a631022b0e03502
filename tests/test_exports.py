"""Every name a module exports through __all__ must exist."""

from __future__ import annotations

import importlib

import pytest

MODULES = [
    "partspec",
    "partspec.core",
    "partspec.gateway",
    "partspec.metrics",
    "partspec.orchestrator",
    "partspec.retrieval",
    "partspec.synthesis",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
