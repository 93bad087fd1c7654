"""Span recording for the benchmark.

A `Tracer` records spans (name, start, end, parent) in memory.  The
benchmark opens phase spans around its own calls into the library on every
pass; in a traced pass `instrument()` additionally replaces library
functions, at the module attribute through which their callers look them
up, with wrappers that open a span per call.  Nothing under `src/` changes,
and only public names are wrapped.  A name that no longer exists is noted
as missing; the metrics that need it are then reported as missing instead
of failing the run.
"""

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute where callers look it up, span name, count madds inside)
WRAPPED = (
    ("hbs.compress", "compress_node_bases", "compress.bases", False),
    ("hbs.compress", "compute_discrepancy", "compress.discrepancy", False),
    ("hbs.compress", "lift_to_parent", "compress.lift", False),
    ("hbs.compress", "compute_root", "compress.root", False),
    ("hbs.compress", "nullspace", "linalg.nullspace", False),
    ("hbs.compress", "col", "linalg.col", False),
    ("hbs.compress", "lstsq_right", "linalg.lstsq", False),
    ("hbs.compress", "gaussian_matrix", "linalg.gaussian", False),
    ("hbs.linalg", "gaussian_matrix", "linalg.gaussian", False),
    ("hbs.oracle", "MatVecOracle.apply_batch", "oracle.apply", False),
    ("hbs.oracle", "MatVecOracle.apply_transpose_batch", "oracle.apply", False),
    ("hbs.factorization", "apply_matrix", "factorization.apply", True),
    ("hbs.bench", "build_tree", "tree.build", False),
    ("hbs.serialize", "build_tree", "tree.build", False),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    root: int  # index of the top-level span this one runs under
    madds: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()  # span names whose wrapped function is gone
        self.stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        root = self.stack[0] if self.stack else index
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, root))
        self.stack.append(index)
        return index

    def close(self, index: int, madds: int = 0) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.madds = madds
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def select(self, name: str, under: str | None = None, parent_not: str | None = None):
        """Spans called `name`, optionally only those inside top-level span
        `under` and not directly inside a span called `parent_not`."""
        spans = self.spans
        return [
            s
            for s in spans
            if s.name == name
            and (under is None or spans[s.root].name == under)
            and (parent_not is None or s.parent == -1 or spans[s.parent].name != parent_not)
        ]

    def seconds(self, name: str, **where) -> float:
        return sum(s.end - s.start for s in self.select(name, **where))

    def calls(self, name: str, **where) -> int:
        return len(self.select(name, **where))

    def madds(self, name: str, **where) -> int:
        return sum(s.madds for s in self.select(name, **where))

    def dump(self, path) -> None:
        """Write every span as one JSON object, with self time (duration
        minus the time covered by direct children)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent != -1:
                child_time[span.parent] += span.end - span.start
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            {
                "name": s.name,
                "start": s.start - t0,
                "end": s.end - t0,
                "parent": s.parent,
                "self": s.end - s.start - child_time[i],
                "madds": s.madds,
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"missing": sorted(self.missing), "spans": rows}, fh)


def _wrap(tracer: Tracer, fn, name: str, count: bool):
    if count:
        from hbs.flops import add_madds, count_madds

        def traced(*args, **kwargs):
            index = tracer.open(name)
            madds = 0
            try:
                with count_madds() as counter:
                    result = fn(*args, **kwargs)
                madds = counter.madds
            finally:
                tracer.close(index, madds)
            add_madds(madds)  # keep any enclosing counter complete
            return result

    else:

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

    traced.__wrapped__ = fn
    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every function in WRAPPED for the duration of the block."""
    restore = []
    try:
        for module_name, attr, span_name, count in WRAPPED:
            *path, leaf = attr.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                tracer.missing.add(span_name)
                continue
            setattr(owner, leaf, _wrap(tracer, original, span_name, count))
            restore.append((owner, leaf, original))
        yield
    finally:
        for owner, leaf, original in reversed(restore):
            setattr(owner, leaf, original)
