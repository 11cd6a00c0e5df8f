"""Spans and counters recorded from outside the program.

A `Tracer` replaces module attributes with wrappers, so
`pers.training.run_window` and `pers.evalrank.run_window` are recorded
under different names even though they are one function. Three kinds of
wrapper exist:

- span: records (name, start, end, parent) for every call; the parent is
  the innermost open span, and a span's self time is its duration minus
  the time its child spans and aggregated calls cover;
- aggregate: for calls made thousands of times, keeps a count and a total
  time only, charged to the enclosing span as child time;
- count: keeps a call count only and adds no clock reads.

A wrapper can also hand the call's arguments and result to a hook that
updates counters. An attribute that does not exist is recorded as absent
instead of failing, so a refactor that removes a function leaves the
traced run working.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, float]] = []  # name, start, end, parent, child time
        self._open: list[list] = []  # [name, start, child time, own index] per open span
        self.agg_time: dict[tuple[str, str], float] = defaultdict(float)
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def phase(self) -> str:
        """Name of the outermost open span: the benchmark phase."""
        return self._open[0][0] if self._open else "-"

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[(self.phase(), name)] += amount

    def peak(self, name: str, value: float) -> None:
        key = (self.phase(), name)
        self.counters[key] = max(self.counters[key], value)

    def _charge_parent(self, seconds: float) -> None:
        if self._open:
            self._open[-1][2] += seconds

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1][3] if self._open else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, 0.0))  # placeholder keeps indices stable
        frame = [name, time.perf_counter(), 0.0, index]
        self._open.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, frame[1], end, parent, frame[2])
            self._charge_parent(end - frame[1])

    # --- installing wrappers ---------------------------------------------

    def wrap(self, owner, attr: str, name: str, kind: str = "span", hook=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(name)
            return
        tracer = self

        if kind == "span":

            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    result = original(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result

        elif kind == "aggregate":

            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                result = original(*args, **kwargs)
                elapsed = time.perf_counter() - start
                key = (tracer.phase(), name)
                tracer.agg_time[key] += elapsed
                tracer.counters[(key[0], name + "#calls")] += 1
                tracer._charge_parent(elapsed)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result

        elif kind == "count":

            def wrapper(*args, **kwargs):
                tracer.counters[(tracer.phase(), name + "#calls")] += 1
                return original(*args, **kwargs)

        else:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        functools.update_wrapper(wrapper, original)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- reading ---------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], float]:
        """(phase, name) -> summed self time of spans and aggregated calls."""
        out: dict[tuple[str, str], float] = defaultdict(float)
        for name, start, end, parent, child in self.spans:
            out[(self._phase_of(parent, name), name)] += (end - start) - child
        for key, total in self.agg_time.items():
            out[key] += total
        return out

    def phase_runs(self) -> dict[str, int]:
        """phase -> number of times it ran (spans with no parent)."""
        out: dict[str, int] = defaultdict(int)
        for name, _, _, parent, _ in self.spans:
            if parent < 0:
                out[name] += 1
        return out

    def calls(self, name: str) -> dict[str, int]:
        """phase -> number of spans called `name` within it."""
        out: dict[str, int] = defaultdict(int)
        for span_name, _, _, parent, _ in self.spans:
            if span_name == name:
                out[self._phase_of(parent, name)] += 1
        return out

    def _phase_of(self, parent: int, name: str) -> str:
        phase = name
        while parent >= 0:
            phase, parent = self.spans[parent][0], self.spans[parent][3]
        return phase
