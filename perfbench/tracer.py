"""Spans around the public entry points of each kanto module.

The wrappers live here, not in the package: installing them rebinds the
module attributes that callers look up.  Two lookups need care:

* ``analysis._OPERATORS`` captured the ``apply_*`` functions at import, so
  every module-level dict holding an original is patched as well;
* ``CombinationKernel.__call__`` reads the module global ``bspline_eval``
  at call time, so rebinding that global is enough.

Spans are kept in memory.  The two leaf layers (``bspline_eval`` and the
catalog function) run up to a million times per invocation, so they are
not stored one by one: each leaf call adds its time and counts to the
innermost open span.  A span's self time is its duration minus the time of
its children, leaves included.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
from time import perf_counter

import kanto.analysis
import kanto.functions
import kanto.kernel1d
import kanto.kernel2d
import kanto.operators


class Span:
    __slots__ = ("layer", "parent", "start", "end", "child_s", "call",
                 "kernel_s", "kernel_calls", "f_s", "f_calls", "f_evals")

    def __init__(self, layer: str, parent: "Span | None", call=None):
        self.layer = layer
        self.parent = parent
        self.call = call
        self.child_s = 0.0
        self.kernel_s = 0.0
        self.kernel_calls = 0
        self.f_s = 0.0
        self.f_calls = 0
        self.f_evals = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_dict(self) -> dict:
        return {"layer": self.layer, "parent": self.parent and self.parent.layer,
                "start": self.start, "end": self.end, "child_s": self.child_s,
                "kernel_s": self.kernel_s, "kernel_calls": self.kernel_calls,
                "f_s": self.f_s, "f_calls": self.f_calls, "f_evals": self.f_evals}


class Tracer:
    """Collects spans for one traced invocation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def span(self, layer: str, fn, keep_call: bool = False):
        """Wrap ``fn`` so each call records one span of ``layer``."""
        sig = inspect.signature(fn) if keep_call else None
        stack = self._stack

        def wrapped(*args, **kwargs):
            call = None
            if sig is not None:
                call = sig.bind(*args, **kwargs)
                call.apply_defaults()
            s = Span(layer, stack[-1] if stack else None, call)
            stack.append(s)
            s.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                s.end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child_s += s.end - s.start
                self.spans.append(s)

        return wrapped

    def kernel_leaf(self, fn):
        stack = self._stack

        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            top = stack[-1]
            top.kernel_s += dt
            top.kernel_calls += 1
            top.child_s += dt
            return out

        return wrapped

    def function_leaf(self, fn):
        """Counting wrapper; an array call counts one evaluation per element."""
        stack = self._stack

        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            top = stack[-1]
            top.f_s += dt
            top.f_calls += 1
            top.f_evals += getattr(out, "size", 1)
            top.child_s += dt
            return out

        return wrapped


def _kanto_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "kanto" or name.startswith("kanto."))]


def _replace_everywhere(original, replacement, undo: list) -> None:
    """Rebind every module global and module-level dict entry that is ``original``."""
    for mod in _kanto_modules():
        space = vars(mod)
        for name, value in list(space.items()):
            if value is original:
                setattr(mod, name, replacement)
                undo.append((space, name, original))
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement
                        undo.append((value, key, original))


def install(tracer: Tracer, full: bool) -> list:
    """Wrap the operator entry points, and with ``full`` every traced layer.

    Returns the undo list for :func:`uninstall`.
    """
    undo: list = []
    ops = kanto.operators
    for op in ("apply_gw", "apply_sw", "apply_gbs"):
        original = getattr(ops, op)
        _replace_everywhere(original, tracer.span("operators.apply", original, keep_call=True), undo)
    if not full:
        return undo
    _replace_everywhere(kanto.kernel1d.bspline_eval,
                        tracer.kernel_leaf(kanto.kernel1d.bspline_eval), undo)
    _replace_everywhere(ops.read_pgm, tracer.span("operators.read", ops.read_pgm), undo)
    _replace_everywhere(kanto.kernel2d.validate_kernel,
                        tracer.span("kernel2d.validate", kanto.kernel2d.validate_kernel), undo)
    _replace_everywhere(kanto.analysis.convergence_study,
                        tracer.span("analysis", kanto.analysis.convergence_study), undo)

    lookup = kanto.functions.fn_lookup

    def counting_lookup(name):
        f = lookup(name)
        return dataclasses.replace(f, fn=tracer.function_leaf(f.fn))

    _replace_everywhere(lookup, counting_lookup, undo)

    grid_cls = ops.EvalGrid
    regular = grid_cls.__dict__["regular"]
    grid_cls.regular = classmethod(tracer.span("operators.grid", regular.__func__))
    undo.append((None, grid_cls, regular))
    return undo


def uninstall(undo: list) -> None:
    for space, key, original in reversed(undo):
        if space is None:
            key.regular = original
        else:
            space[key] = original
