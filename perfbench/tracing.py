"""Spans around the public functions of each severi layer, recorded from
the benchmark's own files.

`Tracer.install()` replaces each wrapped function or method with a
wrapper that records a span (name, start, end, parent span, item id)
and accumulates per-layer self time: a span's duration minus the time
its wrapped children took.  Several modules bind the same function by
`from ... import` (for example `models.pinf_positive`,
`cli.combine_local`, `staircase.expand_rational`), so the wrapper is
set in every severi namespace and class dict that holds the original
object; patching only the defining module would lose those spans.
`uninstall()` puts every original back.

A wrapped call made while the innermost open span has the same name
(`LaurentPoly1.__sub__` calling `__add__`, `nh_from_series_local`
calling `nh_from_series_local_raw`) is folded into the outer span, so
`.calls` counts layer operations rather than internal re-entries.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
          "__pow__", "shifted")


def _pinf_counts(counts, args, result):
    counts["braid.letters"] += len(args[0])
    counts["braid.identity_partitions"] += sum(result.counts)


def _letters(counts, args, result):
    counts["braid.letters"] += len(args[0])


def _output_terms(counts, args, result):
    counts["laurent.output_terms"] += len(result.coeffs)


# (module, attribute or "Class.method", span name, counter hook)
WRAPPED = [
    ("severi.cli", "main", "cli.main", None),
    ("severi.braid", "parse_braid", "braid.parse_braid", None),
    ("severi.braid", "pinf_positive", "braid.pinf_positive", _pinf_counts),
    ("severi.braid", "jaeger_homfly", "braid.jaeger_homfly", _letters),
    *[("severi.laurent", f"LaurentPoly2.{m}", "laurent.poly2_arith", None) for m in _ARITH],
    *[("severi.laurent", f"LaurentPoly1.{m}", "laurent.poly1_arith", None) for m in _ARITH],
    ("severi.laurent", "LaurentPoly2.divide_unknot", "laurent.divide_unknot", _output_terms),
    ("severi.laurent", "LaurentPoly2.lowest_a_part", "laurent.lowest_a_part", None),
    ("severi.laurent", "lowest_a_part", "laurent.lowest_a_part", None),
    ("severi.laurent", "expand_rational", "laurent.expand_rational", None),
    ("severi.genus_transform", "nh_from_series_local", "genus_transform.local_transform", None),
    ("severi.genus_transform", "nh_from_series_local_raw", "genus_transform.local_transform",
     None),
    ("severi.genus_transform", "combine_local", "genus_transform.combine_local", None),
    ("severi.staircase", "count_staircases", "staircase.count_staircases", None),
    ("severi.staircase", "model_series", "staircase.model_series", None),
    ("severi.staircase", "ade_nh", "staircase.ade_nh", None),
    ("severi.staircase", "ade_closed_vector", "staircase.ade_closed_vector", None),
    ("severi.dynkin", "independence_counts", "dynkin.independence_counts", None),
    ("severi.dynkin", "dynkin_nh", "dynkin.dynkin_nh", None),
    ("severi.models", "conjecture_check", "models.conjecture_check", None),
    ("severi.models", "catalog", "models.catalog", None),
]

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in WRAPPED))


def _resolve(module: str, path: str):
    """The original object behind `module.path`, or None if the program no
    longer has it (the benchmark then reports that layer as zero)."""
    obj = sys.modules.get(module)
    for part in path.split("."):
        obj = getattr(obj, part, None) if obj is not None else None
    return obj


class Tracer:
    """In-memory span recorder; one per benchmark run."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.item: int | None = None
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [name, 0.0, index]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                parent = -1
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][2]
                tracer.spans[index] = (name, start, end, parent, tracer.item)
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "severi" or n.startswith("severi.")]
        for module, path, name, hook in WRAPPED:
            original = _resolve(module, path)
            if original is None or hasattr(original, "__span_name__"):
                continue    # gone from the program, or bound under an alias already wrapped
            wrapper = self._wrap(name, original, hook)
            wrapper.__span_name__ = name
            owners = [_resolve(module, path.split(".")[0])] if "." in path else modules
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patched.append((owner, key, original))
                        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def dump(self, path) -> None:
        """Write the recorded spans, one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
