"""Every layer the benchmark's tracer wraps still exists under its name."""

import importlib

import pytest

from perfbench.tracing import TARGETS


@pytest.mark.parametrize("module_name, attr, span", [
    pytest.param(module_name, attr, span, id=f"{module_name}.{attr}")
    for module_name, attr, span, _ in TARGETS])
def test_target_resolves(module_name, attr, span):
    # traced_layers looks each one up with getattr; a missing name fails every
    # traced run
    assert callable(getattr(importlib.import_module(module_name), attr, None)), span
