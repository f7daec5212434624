"""Spans around the public functions of each transeig layer.

The tracer replaces a function at every transeig module that binds it by
name: `cumulative_simpson`, for one, is imported into `fdcore` and
`residual`, so wrapping only `quadrature.cumulative_simpson` would miss
their calls. A span records name, start, end and the span that was open
when it started; self time is the span's duration minus that of its direct
children. Spans are kept in memory for one operation and folded into
running totals when it ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from numpy import size as _size


@dataclass(frozen=True)
class Target:
    """One traced function.

    name is the span name, `<layer>.<function>`. binders lists the modules
    whose binding is replaced; None means every transeig module that binds
    the function. counters maps a metric name to a function of the call's
    (args, kwargs, result) whose value is added up over calls.
    """

    name: str
    module: str
    function: str
    binders: tuple[str, ...] | None = None
    counters: dict[str, Callable] = field(default_factory=dict)


TARGETS = (
    Target("quadrature.cumulative_simpson", "quadrature", "cumulative_simpson",
           counters={"quadrature.cumulative_simpson.points":
                     lambda a, k, r: _size(r)}),
    Target("quadrature.weighted_cumulative", "quadrature",
           "weighted_cumulative",
           counters={"quadrature.weighted_cumulative.points":
                     lambda a, k, r: _size(r)}),
    Target("quadrature.interp_uniform", "quadrature", "interp_uniform",
           counters={"quadrature.interp_uniform.points":
                     lambda a, k, r: _size(a[3] if len(a) > 3 else k["x"])}),
    Target("fdcore.fd_solve", "fdcore", "fd_solve",
           counters={"fdcore.steps": lambda a, k, r: r.rank}),
    # adomian serves the solver and the majorant recurrence; the two
    # callers are told apart by the module whose binding they call.
    Target("fdcore.adomian", "fdcore", "adomian",
           binders=("transeig.fdcore",)),
    Target("convergence.adomian", "fdcore", "adomian",
           binders=("transeig.convergence",)),
    Target("residual.residual_by_rank", "residual", "residual_by_rank"),
    Target("residual.residual_report", "residual", "residual_report"),
    Target("residual.count_interior_zeros", "residual",
           "count_interior_zeros"),
    Target("convergence.convergence_report", "convergence",
           "convergence_report"),
    Target("convergence.majorant_sequence", "convergence",
           "majorant_sequence"),
    Target("oracle.find_eigenvalue", "oracle", "find_eigenvalue"),
    Target("oracle.shoot", "oracle", "shoot",
           counters={"oracle.shoot.nfev": lambda a, k, r: r.nfev}),
    Target("model.load_problem", "model", "load_problem"),
    Target("model.l1_norm", "model", "l1_norm"),
    Target("basis.zero_eigenfunction", "basis", "zero_eigenfunction"),
    Target("cli.main", "cli", "main"),
)


class Tracer:
    """Installs span wrappers and accumulates per-span totals.

    totals maps `<span>.calls`, `<span>.s` (inclusive seconds),
    `<span>.self_s` and every counter name to its sum over the operations
    traced so far.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.totals: dict[str, float] = defaultdict(float)
        self._spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn):
        spans, open_spans, totals = self._spans, self._open, self.totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            span = [target.name, perf_counter(), 0.0, parent]
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_spans.pop()
            for counter, count in target.counters.items():
                totals[counter] += count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every traced binding; originals are looked up first."""
        originals = [getattr(importlib.import_module(f"transeig.{t.module}"),
                             t.function) for t in self.targets]
        modules = [(name, module) for name, module in sys.modules.items()
                   if name == "transeig" or name.startswith("transeig.")]
        for target, original in zip(self.targets, originals):
            wrapper = self._wrap(target, original)
            for name, module in modules:
                if target.binders is not None and name not in target.binders:
                    continue
                if getattr(module, target.function, None) is original:
                    self._patches.append((module, target.function, original))
                    setattr(module, target.function, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def end_operation(self) -> None:
        """Fold the finished operation's spans into the totals."""
        inner = [0.0] * len(self._spans)
        for _, start, end, parent in self._spans:
            if parent >= 0:
                inner[parent] += end - start
        for (name, start, end, _), covered in zip(self._spans, inner):
            self.totals[f"{name}.calls"] += 1
            self.totals[f"{name}.s"] += end - start
            self.totals[f"{name}.self_s"] += end - start - covered
        self._spans.clear()
