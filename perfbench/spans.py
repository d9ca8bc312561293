"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end, the span that was open when it began
(its parent) and a run id shared by every span of one traced workflow.
Spans stay in memory until :meth:`Tracer.dump` writes them out as JSON
lines at the end of the benchmark.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans from a single thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.run = ""

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = Span(len(self.spans), name, perf_counter(), 0.0, parent, self.run)
        self.spans.append(rec)
        self._open.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._open.pop()

    def of_run(self, run: str) -> list[Span]:
        return [s for s in self.spans if s.run == run]

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def total(spans: list[Span], name: str) -> float:
    """Summed duration of every span called *name*."""
    return sum(s.duration for s in spans if s.name == name)


def self_time(spans: list[Span], name: str) -> float:
    """Summed self time of the spans called *name*: each span's duration
    minus the part of it that its direct children cover (children of one
    span never overlap, since the tracer is single-threaded)."""
    ids = {s.id for s in spans if s.name == name}
    covered = sum(s.duration for s in spans if s.parent in ids)
    return total(spans, name) - covered


class TimedCamera:
    """Camera proxy that records a ``simulate.render`` span per call.

    Cameras are duck-typed (``render``, ``invalid_pair_separation``,
    ``name``), so the simulator takes the proxy in place of the camera and
    produces the same frames.
    """

    def __init__(self, camera, tracer: Tracer) -> None:
        self._camera = camera
        self._tracer = tracer
        self.name = camera.name

    def render(self, counts, rng):
        with self._tracer.span("simulate.render"):
            return self._camera.render(counts, rng)

    def invalid_pair_separation(self, dy, dx):
        return self._camera.invalid_pair_separation(dy, dx)
