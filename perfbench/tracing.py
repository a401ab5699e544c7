"""In-memory span tracing around the package's layer boundaries.

The tracer wraps, for the length of a `with` block, every public
function that one `superselect` module imports from another (for example
`superselect.cli.construct_derandomized` or
`superselect.construct.is_superselector`), plus the phase entry points
of the construction and chain layers (`DerandState.__init__`,
`DerandState.run`, `sample_random_matrix`, `MonotoneEncoding.__init__`).
The benchmark wraps its own calls into the package with `wrap`, which
gives each op its top span. Nothing is wrapped outside the block, so an
untraced run pays nothing.

A span is (name, start, end, parent index, op id, note). The layer of a
span is the first component of its name, which is the module the called
function is defined in.
"""

from __future__ import annotations

import inspect
import time
from math import comb

LAYERS = ("sizing", "construct", "core", "decode", "apps", "cli")

# Importing modules whose cross-module imports are wrapped.
_IMPORTERS = ("cli", "construct", "decode", "apps", "sizing")

# Phase entry points inside a layer: (module, class or None, attribute).
_PHASES = (
    ("construct", "DerandState", "__init__"),
    ("construct", "DerandState", "run"),
    ("construct", None, "sample_random_matrix"),
    ("apps", "MonotoneEncoding", "__init__"),
)


def spec_subsets(spec) -> int:
    """Column subsets one exhaustive check of `spec` enumerates."""
    return sum(comb(spec.n, j) for j in spec.levels())


def fill_hypotheses(spec, m: int) -> int:
    """Per-subset evaluations the greedy fill must do: m * sum_j j*C(n,j)."""
    return m * sum(j * comb(spec.n, j) for j in spec.levels())


def fill_visits(spec, m: int) -> int:
    """Subset visits of the current fill: every entry scans every subset."""
    return m * spec.n * spec_subsets(spec)


def _note_verify(args, kwargs, result):
    return {"subsets": spec_subsets(args[1]), "passed": bool(result)}


def _note_fill(args, kwargs, result):
    state = args[0]
    return {"hypotheses": fill_hypotheses(state.spec, state.m),
            "spec": state.spec, "m": state.m}


_NOTES = {
    "core.is_superselector": _note_verify,
    "construct.DerandState.run": _note_fill,
}


class Tracer:
    """Collects spans in memory; `patched()` installs the wrappers."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None
        self.missing = []

    def begin_op(self, op_id):
        self.op = op_id

    def wrap(self, name, fn):
        note = _NOTES.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patched(self):
        return _Patches(self)


class _Patches:
    """Context manager that wraps layer boundaries and restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved = []

    def _set(self, owner, attr, name):
        original = owner.__dict__[attr]
        self.saved.append((owner, attr, original))
        setattr(owner, attr, self.tracer.wrap(name, original))

    def __enter__(self):
        import importlib

        mods = {m: importlib.import_module(f"superselect.{m}") for m in LAYERS}
        for importer in _IMPORTERS:
            mod = mods[importer]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__
                if not home.startswith("superselect.") or home == mod.__name__:
                    continue
                self._set(mod, attr, f"{home.split('.')[1]}.{value.__name__}")
        for layer, cls, attr in _PHASES:
            owner = mods[layer]
            if cls is not None:
                owner = getattr(owner, cls, None)
            if owner is None or attr not in vars(owner):
                self.tracer.missing.append(f"{layer}.{cls}.{attr}")
                continue
            name = f"{layer}.{cls}.{attr}" if cls else f"{layer}.{attr}"
            self._set(owner, attr, name)
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False


def self_times(spans) -> list:
    """Per span: its duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own
