"""The benchmark's tracer wraps package functions by name; a rename must
fail here rather than break ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
import pathlib
import sys

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    if not TRACING.exists():
        pytest.skip("perfbench/ is absent")
    name = "perfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def test_traced_names_resolve(tracing):
    assert tracing.TARGETS
    for module_name, attr, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), attr


def test_traced_functions_are_distinct(tracing):
    # two names bound to one function object would have it wrapped twice,
    # and every call counted twice
    seen = {}
    for module_name, attr, _ in tracing.TARGETS:
        fn = getattr(importlib.import_module(module_name), attr)
        other = seen.setdefault(id(fn), f"{module_name}.{attr}")
        assert other == f"{module_name}.{attr}", f"{module_name}.{attr} is {other}"


def test_stagnation_error_resolves():
    from scsa import exceptions

    assert issubclass(exceptions.StagnationError, Exception)
