"""Runtime tracing of the calls into each tame3 module's public functions.

Nothing under ``src/`` knows about this.  ``Tracer.installed()`` replaces
each traced function by a wrapper, in every ``tame3`` module namespace that
bound it by name (``engine`` imports ``find_elementary_reduction`` from
``search``, ``conditions`` imports ``leading_membership_search``, ...), and
replaces ``Poly.__mul__``, ``Poly.__add__``, ``Poly.compose`` and
``BiPoly.value`` on their classes.  Leaving the ``with`` block puts every
original back.

A wrapper records one span (layer, start, end, parent span) per call, but
only while a root span is open: the harness opens one per item (and one
around set-up), so the known-answer checks and digest serialization that
run between items are not counted.  Spans are kept in flat arrays and
summarized at the end; a layer's self time is its spans'
durations minus the parts covered by their child spans, and its call count
is its number of spans.  A few layers also count work (product term pairs,
rows fed to the sparse solver, search outcomes).
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

from tame3 import algebra, cli, conditions, engine, forms, search, univariate


def _poly_mul(stats, args, result):
    stats["term_pairs"] += len(args[0].terms) * len(args[1].terms)


class _CountedRows:
    """Iterates the solver's row source, counting the rows it consumes."""

    __slots__ = ("rows", "stats")

    def __init__(self, rows, stats):
        self.rows = rows
        self.stats = stats

    def __iter__(self):
        for row in self.rows:
            self.stats["rows"] += 1
            yield row


def _solve_before(stats, args):
    return (_CountedRows(args[0], stats),) + tuple(args[1:])


def _solve_after(stats, args, result):
    stats["solved"] += result is not None


def _membership(stats, args, result):
    stats["found"] += result.found is not None
    stats["rounds_used"] += result.rounds_used
    absence = result.absence
    stats["inconclusive"] += absence is not None and absence.reason == "limits-exhausted"


def _elementary(stats, args, result):
    stats["found"] += result.step is not None


def _su(stats, args, result):
    stats["found"] += result.witness is not None


@dataclass(frozen=True)
class Layer:
    """One traced function: its metric prefix, where it lives, and its
    extra work counters (names, then the hooks that fill them)."""

    name: str
    owner: object
    attr: str
    counters: tuple = ()
    before: Optional[Callable] = None
    after: Optional[Callable] = None


LAYERS = (
    Layer("algebra.Poly.mul", algebra.Poly, "__mul__", ("term_pairs",), after=_poly_mul),
    Layer("algebra.Poly.add", algebra.Poly, "__add__"),
    Layer("algebra.Poly.compose", algebra.Poly, "compose"),
    Layer("algebra.solve_sparse_int", algebra, "solve_sparse_int", ("rows", "solved"),
          before=_solve_before, after=_solve_after),
    Layer("search.leading_membership_search", search, "leading_membership_search",
          ("found", "rounds_used", "inconclusive"), after=_membership),
    Layer("search.find_elementary_reduction", search, "find_elementary_reduction",
          ("found",), after=_elementary),
    Layer("search.find_su_reduction", search, "find_su_reduction", ("found",), after=_su),
    Layer("search.exact_membership", search, "exact_membership"),
    Layer("univariate.BiPoly.value", univariate.BiPoly, "value"),
    Layer("univariate.su_inequality_report", univariate, "su_inequality_report"),
    Layer("univariate.aux_multiplicity", univariate, "aux_multiplicity"),
    Layer("forms.wedge", forms, "wedge"),
    Layer("forms.deg_form", forms, "deg_form"),
    Layer("conditions.detect_type", conditions, "detect_type"),
    Layer("conditions.verify_properties", conditions, "verify_properties"),
    Layer("conditions.check_quasi_su", conditions, "check_quasi_su"),
    Layer("conditions.normalize_to_su", conditions, "normalize_to_su"),
    Layer("engine.reduce_step", engine, "reduce_step"),
    Layer("engine.factor_tame", engine, "factor_tame"),
    Layer("engine.triangularize_at_floor", engine, "triangularize_at_floor"),
    Layer("engine.recompose", engine, "recompose"),
    Layer("engine.compose_endo", engine, "compose_endo"),
    Layer("engine.random_tame", engine, "random_tame"),
    Layer("cli.main", cli, "main"),
)


class Tracer:
    def __init__(self, layers=LAYERS):
        self.layers = layers
        # span store: layer index (len(layers) for a root span), parent span
        # id (-1 for a root), start, end
        self._layer = array("H")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.stats = [dict.fromkeys(layer.counters, 0) for layer in layers]
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: list = []

    # -- installation --------------------------------------------------------

    def _wrap(self, index: int, fn, layer: Layer):
        before, after = layer.before, layer.after
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            stats = tracer.stats[index]
            if before is not None:
                args = before(stats, args)
            sid = len(tracer._start)
            tracer._layer.append(index)
            tracer._parent.append(stack[-1])
            tracer._end.append(0.0)
            stack.append(sid)
            tracer._start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end[sid] = perf()
                stack.pop()
            if after is not None:
                after(stats, args, result)
            return result

        self._wrappers.append(traced)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block, then restore."""
        modules = _tame3_modules()
        try:
            for index, layer in enumerate(self.layers):
                original = getattr(layer.owner, layer.attr)
                wrapper = self._wrap(index, original, layer)
                if isinstance(layer.owner, type):
                    self._patch(layer.owner, layer.attr, wrapper)
                    continue
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(self._patched):
                setattr(owner, attr, original)
            self._patched.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- root spans ----------------------------------------------------------

    @contextmanager
    def root(self):
        """Open a root span (one per item, or around set-up)."""
        sid = len(self._start)
        self._layer.append(len(self.layers))
        self._parent.append(-1)
        self._end.append(0.0)
        self._stack.append(sid)
        self._start.append(time.perf_counter())
        try:
            yield
        finally:
            self._end[sid] = time.perf_counter()
            self._stack.pop()

    # -- summaries -----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._start)

    def spans(self):
        """(layer name or "item", parent id, start, end) for every span."""
        names = [layer.name for layer in self.layers] + ["item"]
        return [(names[k], p, s, e) for k, p, s, e in
                zip(self._layer, self._parent, self._start, self._end)]

    def summary(self) -> dict:
        """Per layer: calls, self_s, and its work counters."""
        n_layers = len(self.layers)
        child = [0.0] * len(self._start)
        for sid, parent in enumerate(self._parent):
            if parent >= 0:
                child[parent] += self._end[sid] - self._start[sid]
        calls = [0] * (n_layers + 1)
        self_s = [0.0] * (n_layers + 1)
        for sid, k in enumerate(self._layer):
            calls[k] += 1
            self_s[k] += self._end[sid] - self._start[sid] - child[sid]
        return {layer.name: {"calls": calls[k], "self_s": self_s[k], **self.stats[k]}
                for k, layer in enumerate(self.layers)}

    def restored(self) -> bool:
        """True when no wrapper made by this tracer is reachable any more."""
        owners = _tame3_modules() + [layer.owner for layer in self.layers
                                     if isinstance(layer.owner, type)]
        wrappers = {id(w) for w in self._wrappers}
        return not any(id(value) in wrappers
                       for owner in owners for value in vars(owner).values())


def _tame3_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tame3" or name.startswith("tame3."))]
