"""Spans around the calls into qmeasure's public functions, recorded from outside src/.

`instrument` replaces each traced function in every qmeasure module
namespace that holds it (modules import each other's functions by name, so
wrapping only the defining module would miss most calls), and wraps the
`__post_init__` validation of the value classes. Everything is restored on
exit. Spans stay in memory; aggregation and writing happen once, at the end.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from collections import Counter
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

# module -> public functions to trace; None means every function in __all__.
# linalg's tiny helpers (dag, frob, kron) are left out: they are called in
# inner loops and their spans would cost more than their work.
TRACED_FUNCTIONS: dict[str, tuple[str, ...] | None] = {
    "linalg": ("partial_trace", "complete_isometry"),
    "observables": None,
    "instruments": None,
    "schmidt": None,
    "information": None,
    "scenario": None,
    "pipeline": None,
    "cli": ("main",),
}
# module -> classes whose constructor validation (__post_init__) is traced
TRACED_CONSTRUCTORS = {
    "observables": ("Observable", "PureState", "DensityOperator"),
    "instruments": ("StateTransformerSet",),
}
# span name -> computed bytes of one call, from (args, result)
COMPUTED_BYTES: dict[str, Callable] = {
    "linalg.partial_trace": lambda args, result: np.asarray(args[0]).nbytes,
    "observables.embed_observable": lambda args, result: sum(p.nbytes for p in result.projectors),
}

# Per-layer metric -> (kind, span names). "ms": time in the outermost of
# these spans per scenario; "self_ms": span time minus its child spans, per
# scenario; "count": calls per scenario; "bytes": computed bytes per scenario.
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "observables.validate_ms": ("ms", ("observables.validate_observable",)),
    "observables.validate_per_scenario": ("count", ("observables.validate_observable",)),
    "observables.embed_ms": ("ms", ("observables.embed_observable",)),
    "observables.lifted_bytes": ("bytes", ("observables.embed_observable",)),
    "observables.luders_ms": ("ms", ("observables.luders_update",)),
    "observables.density_check_ms": ("ms", ("observables.DensityOperator",)),
    "observables.density_checks_per_scenario": ("count", ("observables.DensityOperator",)),
    "observables.constructions_per_scenario": (
        "count",
        ("observables.Observable", "observables.PureState", "observables.DensityOperator"),
    ),
    "information.incompatibility_ms": ("ms", ("information.incompatibility_entropy",)),
    "information.mutual_information_ms": ("ms", ("information.mutual_information",)),
    "information.verify_ms": (
        "ms",
        ("information.verify_entanglement_as_incompatibility", "information.verify_incompatibility_transfer"),
    ),
    "information.pointer_reading_ms": (
        "ms",
        ("information.read_pointer_tripartite", "information.post_reading_state"),
    ),
    "linalg.partial_trace_ms": ("ms", ("linalg.partial_trace",)),
    "linalg.partial_trace_bytes": ("bytes", ("linalg.partial_trace",)),
    "instruments.evolve_per_scenario": ("count", ("instruments.evolve",)),
    "schmidt.decompose_per_scenario": ("count", ("schmidt.schmidt_decompose",)),
    "instruments.dilate_ms": ("ms", ("instruments.dilate",)),
    "linalg.complete_isometry_ms": ("ms", ("linalg.complete_isometry",)),
    "schmidt.decompose_ms": ("ms", ("schmidt.schmidt_decompose",)),
    "schmidt.definite_values_ms": ("ms", ("schmidt.verify_definite_values",)),
    "pipeline.run_ms": ("ms", ("pipeline.run_pipeline",)),
    "pipeline.self_ms": ("self_ms", ("pipeline.run_pipeline",)),
    "scenario.generate_ms": ("ms", ("scenario.generate_random_instance",)),
    "scenario.parse_ms": (
        "ms",
        ("scenario.load_scenario", "scenario.parse_scenario", "scenario.scenario_from_dict"),
    ),
    "instruments.transformer_check_ms": ("ms", ("instruments.StateTransformerSet",)),
    "pipeline.report_ms": (
        "ms",
        ("pipeline.report_to_dict", "pipeline.report_to_json", "pipeline.report_to_text"),
    ),
    "cli.self_ms": ("self_ms", ("cli.main",)),
}
UNITS = {"ms": "ms", "self_ms": "ms", "count": "count", "bytes": "B"}

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """In-memory span recorder; one span is [name, start, end, parent index, op id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.computed_bytes: Counter[str] = Counter()
        self.op = -1  # id of the operation now running; every span records it
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """fn, recording one span per call, nested under the span open when it is called."""
        count_bytes = COMPUTED_BYTES.get(name)
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, open_spans[-1] if open_spans else -1, self.op])
            open_spans.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][END] = time.perf_counter()
                open_spans.pop()
            if count_bytes is not None:
                self.computed_bytes[name] += count_bytes(args, result)
            return result

        return traced

    def write(self, path: Path, n_ops: int) -> None:
        """Write the spans of the first n_ops operations as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                if op < n_ops:
                    record = {"id": index, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                    handle.write(json.dumps(record) + "\n")


def _traced_targets(package) -> dict[str, Callable]:
    targets = {}
    for module_name, names in TRACED_FUNCTIONS.items():
        module = sys.modules[f"{package.__name__}.{module_name}"]
        for attr in names or module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn):
                targets[f"{module_name}.{attr}"] = fn
    return targets


@contextlib.contextmanager
def instrument(tracer: Tracer, package) -> Iterator[None]:
    """Trace qmeasure's public functions and constructors while the block runs."""
    wrappers = {id(fn): tracer.wrap(name, fn) for name, fn in _traced_targets(package).items()}
    patched = []
    modules = [m for n, m in sorted(sys.modules.items()) if n == package.__name__ or n.startswith(package.__name__ + ".")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and inspect.isfunction(value):
                patched.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
    for module_name, classes in TRACED_CONSTRUCTORS.items():
        module = sys.modules[f"{package.__name__}.{module_name}"]
        for cls_name in classes:
            cls = getattr(module, cls_name)
            patched.append((cls, "__post_init__", cls.__post_init__))
            cls.__post_init__ = tracer.wrap(f"{module_name}.{cls_name}", cls.__post_init__)
    try:
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def nesting_errors(spans: list[list]) -> list[str]:
    """Spans that start before, end after, or belong to another operation than their parent."""
    errors = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        if end < start:
            errors.append(f"span {index} ({name}) ends before it starts")
        if parent < 0:
            continue
        p = spans[parent]
        if not (p[START] <= start and end <= p[END] and p[OP] == op):
            errors.append(f"span {index} ({name}) is not inside its parent {parent} ({p[NAME]})")
    return errors


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Every LAYER_METRICS entry, per scenario over n_ops traced operations."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter[str] = Counter()
    inclusive: dict[tuple[str, ...], float] = Counter()
    self_time: Counter[str] = Counter()
    groups_of: dict[str, list[tuple[str, ...]]] = {}
    for kind, names in LAYER_METRICS.values():
        if kind == "ms":
            for n in names:
                groups_of.setdefault(n, []).append(names)
    for index, (name, start, end, parent, op) in enumerate(spans):
        calls[name] += 1
        self_time[name] += end - start - child_time[index]
        for group in groups_of.get(name, ()):
            if not _inside_group(spans, parent, group):
                inclusive[group] += end - start
    out = {}
    for metric, (kind, names) in LAYER_METRICS.items():
        if kind == "ms":
            value = 1e3 * inclusive[names]
        elif kind == "self_ms":
            value = 1e3 * sum(self_time[n] for n in names)
        elif kind == "count":
            value = sum(calls[n] for n in names)
        else:
            value = sum(tracer.computed_bytes[n] for n in names)
        out[metric] = (value / n_ops, UNITS[kind])
    return out


def _inside_group(spans: list[list], parent: int, group: tuple[str, ...]) -> bool:
    while parent >= 0:
        if spans[parent][NAME] in group:
            return True
        parent = spans[parent][PARENT]
    return False
