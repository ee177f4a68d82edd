"""In-memory span recorder attached to scsa's public functions from outside.

The package itself is not instrumented. Each traced function is replaced by a
wrapper that records a span (name, start, end, parent) around the call. A
``from``-import makes a second binding of the same function object, so the
wrapper is installed on every ``scsa`` namespace that holds the original.
"""

from __future__ import annotations

import contextlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from scsa.exceptions import StagnationError

# (defining module, attribute, span name). Span names are "<layer>.<function>";
# save_dataset and load_dataset share one span name so they sum into one
# I/O figure.
TARGETS = [
    ("scsa.cost", "nll_csa", "cost.nll_csa"),
    ("scsa.cost", "grad_csa", "cost.grad_csa"),
    ("scsa.cost", "cost_scsa", "cost.cost_scsa"),
    ("scsa.cost", "grad_scsa", "cost.grad_scsa"),
    ("scsa.optim", "minimize", "optim.minimize"),
    ("scsa.optim", "minimize_with_group_truncation", "optim.minimize"),
    ("scsa.em_dal", "m_step_dal", "em_dal.m_step_dal"),
    ("scsa.em_dal", "e_step", "em_dal.e_step"),
    ("scsa.estimators", "fit", "estimators.fit"),
    ("scsa.estimators", "select_order_bic", "estimators.select_order_bic"),
    ("scsa.estimators", "select_lambda_cv", "estimators.select_lambda_cv"),
    ("scsa.simulator", "generate", "simulator.generate"),
    ("scsa.simulator", "save_dataset", "simulator.io"),
    ("scsa.simulator", "load_dataset", "simulator.io"),
    ("scsa.model", "simulate_sources", "model.simulate_sources"),
    ("scsa.evaluation", "evaluate", "evaluation.evaluate"),
]

COST_SPANS = ("cost.nll_csa", "cost.grad_csa", "cost.cost_scsa", "cost.grad_scsa")
OPTIM_SPAN = "optim.minimize"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    iterations: int = 0
    stagnated: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Collects spans of one process; nothing is written until ``dump``."""

    spans: List[Span] = field(default_factory=list)
    _stack: List[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as record:
                try:
                    result = fn(*args, **kwargs)
                except StagnationError as err:  # carries the failed run's trace
                    record.stagnated = True
                    if err.trace is not None:
                        record.iterations = err.trace.iterations
                    raise
                if name == OPTIM_SPAN:
                    record.iterations = result[1].iterations
                return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding of each target in loaded scsa modules."""
        undo = []
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "scsa" or n.startswith("scsa."))
        ]
        for module_name, attr, span_name in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
        try:
            yield
        finally:
            for module, key, original in undo:
                setattr(module, key, original)

    def dump(self) -> List[Dict]:
        return [vars(s).copy() for s in self.spans]


def _self_times(spans: List[Span]) -> List[float]:
    """Duration minus the part covered by direct children. Calls run on one
    thread, so children never overlap and their durations simply add."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _has_ancestor(spans: List[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: List[Span], per: int) -> Dict[str, float]:
    """Per-layer metrics from the recorded spans, divided by ``per``
    operations. Root spans must be the benchmark's ``cli`` spans."""
    own = _self_times(spans)
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    total_s: Dict[str, float] = {}
    for s, t in zip(spans, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + t
        total_s[s.name] = total_s.get(s.name, 0.0) + s.duration

    def c(name):
        return calls.get(name, 0) / per

    def st(name):
        return self_s.get(name, 0.0) / per

    def tt(name):
        return total_s.get(name, 0.0) / per

    out: Dict[str, float] = {}
    for name in COST_SPANS:
        out[f"{name}.calls"] = c(name)
        out[f"{name}.self_s"] = st(name)
    n = calls.get("cost.grad_scsa", 0)
    out["cost.grad_scsa.us_per_call"] = 1e6 * self_s.get("cost.grad_scsa", 0.0) / n if n else 0.0

    optim = [i for i, s in enumerate(spans) if s.name == OPTIM_SPAN]
    iterations = sum(spans[i].iterations for i in optim)
    evals = sum(
        1 for i, s in enumerate(spans)
        if s.name in COST_SPANS and _has_ancestor(spans, i, OPTIM_SPAN)
    )
    out["optim.calls"] = c(OPTIM_SPAN)
    out["optim.iterations"] = iterations / per
    out["optim.evals_per_iter"] = evals / iterations if iterations else 0.0
    out["optim.stagnations"] = sum(spans[i].stagnated for i in optim) / per
    out["optim.self_s"] = st(OPTIM_SPAN)

    for name in ("em_dal.m_step_dal", "em_dal.e_step"):
        out[f"{name}.calls"] = c(name)
        out[f"{name}.self_s"] = st(name)

    fit_s = tt("estimators.fit")
    bic_s = tt("estimators.select_order_bic")
    cv_s = tt("estimators.select_lambda_cv")
    out["estimators.select_order_bic.s"] = bic_s
    out["estimators.select_lambda_cv.s"] = cv_s
    out["estimators.select_lambda_cv.calls"] = c("estimators.select_lambda_cv")
    out["estimators.final_fit.s"] = fit_s - bic_s - cv_s
    out["estimators.cv_share"] = cv_s / fit_s if fit_s else 0.0

    out["simulator.generate.s"] = tt("simulator.generate")
    out["model.simulate_sources.s"] = tt("model.simulate_sources")
    out["simulator.io.s"] = tt("simulator.io")
    out["evaluation.evaluate.s"] = tt("evaluation.evaluate")
    out["cli.self_s"] = st("cli")
    return out
