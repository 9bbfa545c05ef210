"""In-memory span recording for the benchmark's traced runs.

A span covers one call into a layer of the package: its name is
``<layer>.<call>`` (``dynamics.classify_fate``, ``cli.basin``), its parent
is the span that was open when it started, and ``op`` names the workload
operation it belongs to.  Spans stay in memory until :meth:`Tracer.dump`
writes them out at the end of the run.

Untraced runs use :data:`OFF`, whose spans record nothing, so the same
operation code serves both runs.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    op: str
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; ``op`` is set by the caller before each operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = ""
        self._open: list[Span] = []

    def _begin(self, name: str, attrs: dict) -> Span:
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), name, parent, self.op, attrs=attrs)
        self.spans.append(s)
        self._open.append(s)
        s.start = time.perf_counter()
        return s

    def _end(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        s = self._begin(name, attrs)
        try:
            yield s
        except Exception as exc:
            s.attrs["error"] = type(exc).__name__
            raise
        finally:
            self._end(s)

    def traced(self, fn, name: str, describe=None):
        """``fn`` wrapped in a span; ``describe(args, kwargs, result)`` adds attrs."""

        def wrapper(*args, **kwargs):
            s = self._begin(name, {})
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                s.attrs["error"] = type(exc).__name__
                raise
            finally:
                self._end(s)
            if describe is not None:
                s.attrs.update(describe(args, kwargs, result))
            return result

        return wrapper

    @contextmanager
    def instrument(self, targets):
        """Replace ``module.attr`` by a traced wrapper for the ``with`` body.

        ``targets`` holds ``(module, attr, span_name, describe)`` tuples.
        The package looks these names up at call time, so calls made
        inside the package (``basin_scan`` -> ``classify_fate``) are
        recorded as child spans.
        """
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
        try:
            for module, attr, name, describe in targets:
                setattr(module, attr, self.traced(getattr(module, attr), name, describe))
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self, skip_op: str | None = None) -> dict[str, float]:
        """Per layer: span time minus the time its child spans cover.

        Spans of operation ``skip_op`` are left out.
        """
        spans = [s for s in self.spans if s.op != skip_op]
        covered: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                covered[s.parent] += s.seconds
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s.layer] += s.seconds - covered[s.id]
        return dict(out)

    def dump(self, path, meta: dict) -> None:
        """JSON lines: the metadata and field names, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "fields": list(Span.__dataclass_fields__)}) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s.id, s.name, s.parent, s.op, s.start, s.end, s.attrs]) + "\n")


class _Off:
    """A tracer that records nothing."""

    op = ""

    def __init__(self) -> None:
        self._context = nullcontext(Span(-1, "off", None, ""))

    def span(self, name: str, **attrs):
        return self._context


OFF = _Off()
