"""Spans around the calls into each module of ``delpezzo``.

The tracer wraps a function where the calling module looks it up (a module
global or a class attribute), so no file of the program changes and the
untraced program runs the original objects.  Each span records its id, name,
input id, parent, start and end.  Spans stay in memory until the run ends.
A span opened inside an input boundary (``INPUT_ROOTS``) shares that
boundary's input id; every other outermost span starts an input of its own.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from time import perf_counter

# (span name, module the caller looks the function up in, attribute path)
TRACE_POINTS = (
    ("cli.main", "delpezzo.cli", "main"),
    ("cli.to_json", "delpezzo.surfaces", "ClassificationReport.to_json"),
    ("catalog.verify_witness", "delpezzo.catalog", "verify_witness"),
    ("catalog.verify_witness", "delpezzo.cli", "verify_witness"),
    ("surfaces.classify_surface", "delpezzo.surfaces", "classify_surface"),
    ("surfaces.classify_surface", "delpezzo.catalog", "classify_surface"),
    ("surfaces.classify_surface", "delpezzo.cli", "classify_surface"),
    ("surfaces.classify_weierstrass", "delpezzo.surfaces", "classify_weierstrass"),
    ("surfaces.classify_weierstrass", "delpezzo.cli", "classify_weierstrass"),
    ("surfaces.moduli_dimension", "delpezzo.surfaces", "moduli_dimension"),
    ("sextic.parse_sextic", "delpezzo.surfaces", "parse_sextic"),
    ("weierstrass.reduce_to_short", "delpezzo.surfaces", "reduce_to_short"),
    ("weierstrass.weierstrass_data", "delpezzo.weierstrass", "weierstrass_data"),
    ("weierstrass.weierstrass_data", "delpezzo.cli", "weierstrass_data"),
    ("forms.form_gcd", "delpezzo.weierstrass", "form_gcd"),
    ("forms.factor_over_rationals", "delpezzo.weierstrass", "factor_over_rationals"),
    ("forms.factor_over_rationals", "delpezzo.kodaira", "factor_over_rationals"),
    ("forms.valuation", "delpezzo.weierstrass", "_valuation_at_irreducible"),
    ("forms.valuation", "delpezzo.kodaira", "_valuation_at_irreducible"),
    ("forms.sympy_factor", "delpezzo.forms", "dup_zz_factor"),
    ("kodaira.classify_fibration", "delpezzo.surfaces", "classify_fibration"),
    ("kodaira.classify_place", "delpezzo.kodaira", "classify_place"),
    ("enumeration.enumerate_isotrivial", "delpezzo.surfaces", "enumerate_isotrivial"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TRACE_POINTS))
INPUT_ROOTS = ("catalog.verify_witness", "surfaces.classify_surface")


def resolve(module_name: str, path: str) -> tuple[object, str]:
    """The object holding a trace point (a module or a class) and the
    attribute name."""
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.spans: list[tuple[int, str, int, int | None, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, int, bool]]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        is_root = name in INPUT_ROOTS
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            if stack:
                parent, input_id, in_root = stack[-1]
                if is_root and not in_root:
                    input_id = span_id
            else:
                parent, input_id, in_root = None, span_id, False
            stack.append((span_id, input_id, in_root or is_root))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, name, input_id, parent, start, end))

        return traced

    def install(self) -> None:
        """Wrap every trace point whose module defines it; points a refactor
        removed are reported on stderr and skipped."""
        for name, module_name, path in TRACE_POINTS:
            owner, attr = resolve(module_name, path)
            if attr not in owner.__dict__:
                print(f"trace point {module_name}.{path} not found, skipped",
                      file=sys.stderr)
                continue
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(name, original))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore the originals and check every attribute is the original."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        stale = [f"{getattr(owner, '__name__', owner)}.{attr}"
                 for owner, attr, original in self._patched
                 if owner.__dict__[attr] is not original]
        self._patched.clear()
        if stale:
            raise RuntimeError(f"wrappers left in place: {stale}")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, _, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _, _, _, start, end in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span_id] = (end - start) - covered
    return out


def layer_metrics(spans, surfaces: int, scale: float = 1.0) -> dict[str, float]:
    """Per surface: '<span>.self_ms' (times ``scale``) and
    '<span>.calls_per_surface' for every span name, zero for a name with no
    span."""
    own = self_times(spans)
    total = dict.fromkeys(SPAN_NAMES, 0.0)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    for span_id, name, *_ in spans:
        total[name] += own[span_id]
        calls[name] += 1
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_ms"] = total[name] * scale * 1000 / surfaces
        metrics[f"{name}.calls_per_surface"] = calls[name] / surfaces
    return metrics
