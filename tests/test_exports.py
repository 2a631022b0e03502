"""Every name a module exports through __all__ must exist."""

from __future__ import annotations

import importlib

import pytest

import partspec

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


@pytest.mark.parametrize("module", sorted(partspec._SOURCES))
def test_package_names_are_their_modules_exports(module):
    exported = importlib.import_module(f"partspec.{module}").__all__
    assert [name for name in partspec._SOURCES[module] if name not in exported] == []


def test_package_names_are_listed_once():
    assert len(partspec.__all__) == len(set(partspec.__all__))


def test_package_lists_every_name_and_refuses_others():
    assert set(partspec.__all__) <= set(dir(partspec))
    with pytest.raises(AttributeError, match="'partspec' has no attribute 'no_such_name'"):
        partspec.no_such_name  # noqa: B018
