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


def test_traced_em_half_steps_are_called(tracing, monkeypatch):
    # a refactor that routes SCSA-EM around a traced name would zero that
    # name's per-layer metrics without failing anything else
    import numpy as np

    from scsa import em_dal
    from scsa.estimators import FitRequest, fit
    from scsa.model import MvarCoefficients, TimeSeriesMatrix, simulate_sources

    names = [attr for module, attr, _ in tracing.TARGETS if module == "scsa.em_dal"]
    assert sorted(names) == ["e_step", "m_step_dal"]
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(em_dal, name)

        def counted(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(em_dal, name, counted)
    h = MvarCoefficients([np.array([[0.5, 0.3], [0.0, 0.4]])])
    s, _ = simulate_sources(h, T=300, seed=1)
    x = TimeSeriesMatrix(np.array([[1.0, 0.4], [0.3, 1.0]]) @ s.data)
    fit(x, FitRequest("SCSA_EM", [1], [1.0]))
    assert all(n >= 1 for n in calls.values()), calls


def test_traced_kernels_are_called_every_iteration(tracing):
    # layer 1 of the trace times grad_csa and grad_scsa by name; a hot path
    # that reached the FIR kernel around them would zero those metrics
    import numpy as np

    from scsa.cost import GroupPenaltySpec
    from scsa.fitting import _fit_csa, _fit_scsa, _scsa_start
    from scsa.model import MvarCoefficients, TimeSeriesMatrix, lag_stack, simulate_sources

    h = MvarCoefficients([np.array([[0.5, 0.3], [0.0, 0.4]])])
    s, _ = simulate_sources(h, T=300, seed=1)
    stack = lag_stack(TimeSeriesMatrix(np.array([[1.0, 0.4], [0.3, 1.0]]) @ s.data), 1)
    tracer = tracing.Tracer()

    def calls(name):
        return sum(span.name == name for span in tracer.spans)

    with tracer.installed():  # wraps each name in every scsa module holding it
        fitted = _fit_csa(stack, 1)
        csa, csa_calls = fitted[1], calls("cost.grad_csa")
        walk = [trace for _, trace in _fit_scsa(
            stack, [GroupPenaltySpec(0.5), GroupPenaltySpec(5.0)],
            _scsa_start(stack, 1, fitted),
        )]
    assert csa.iterations >= 1 and csa_calls >= csa.iterations
    assert all(trace.iterations >= 1 for trace in walk)
    assert calls("cost.grad_scsa") >= sum(trace.iterations for trace in walk)
