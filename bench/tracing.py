"""Spans and counters recorded from outside the library.

`Tracer.install()` swaps module attributes for timed wrappers and puts
them back on exit:

- `harness.build`, `harness.make_assignment`, `harness.dvb1_run` and
  `harness.dvb2_run`, the names `harness.run_trial` calls;
- `analysis.markov_success` and `analysis.sample_success`, which the
  oracle workload calls;
- the `run` name that `dvb1` and `dvb2` import from `engine`.  Its wrapper
  calls the real `engine.run` with a `ScheduleProxy` in place of the
  automaton, which passes every event and reply through unchanged and
  times both sides of each yield.

A span is (name, start, end, parent, item).  Spans stay in memory and are
written once, at the end of a run.  Per-slot figures are counters on the
enclosing `engine.run` span rather than spans of their own, which would
cost more than the slots they time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from beepvote import analysis, dvb1, dvb2, engine, harness

clock = time.perf_counter


class EngineCounters:
    """What one `engine.run` call spent, split at the automaton's yields."""

    __slots__ = (
        "automaton_s", "slot_s", "channel_slots", "ff_slots", "phase_s",
    )

    def __init__(self):
        self.automaton_s = 0.0  # inside the automaton's generator
        self.slot_s = 0.0  # engine side of SlotRequest events
        self.channel_slots = 0
        self.ff_slots = 0
        self.phase_s: list[float] = []  # automaton time between phase increments


class ScheduleProxy:
    """Automaton stand-in that times its wrapped automaton's schedule."""

    def __init__(self, inner, counters: EngineCounters):
        self._inner = inner
        self._counters = counters

    @property
    def status(self):
        return self._inner.status

    def schedule(self):
        inner = self._inner
        c = self._counters
        gen = inner.schedule()
        reply = None
        phases = inner.phases_elapsed()
        phase_start = 0.0
        try:
            while True:
                t0 = clock()
                try:
                    event = gen.send(reply)
                except StopIteration as stop:
                    c.automaton_s += clock() - t0
                    return stop.value
                t1 = clock()
                c.automaton_s += t1 - t0
                if inner.phases_elapsed() != phases:
                    phases = inner.phases_elapsed()
                    c.phase_s.append(c.automaton_s - phase_start)
                    phase_start = c.automaton_s
                reply = yield event
                if isinstance(event, engine.FastForward):
                    c.ff_slots += event.slots
                else:
                    c.slot_s += clock() - t1
                    c.channel_slots += 1
        finally:
            gen.close()


class Tracer:
    """Spans and engine counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self.counters: dict[int, EngineCounters] = {}  # by engine.run span
        self.item: int | None = None
        self.last_run = None  # (graph, assignment, params, result) of the last dvb*_run
        self.wave_slots: list[int] = []  # of standalone termination checks
        self._stack: list[int] = []
        self._real_engine_run = engine.run

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, clock(), None, parent, self.item])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][2] = clock()

    def _timed(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _protocol_run(self, name, fn):
        def traced(graph, assignment, params=None, **kwargs):
            with self.span(name):
                result = fn(graph, assignment, params, **kwargs)
            self.last_run = (graph, assignment, params, result)
            return result

        return traced

    def _engine_run(self, graph, automaton, slot_budget, trace=None):
        with self.span("engine.run") as idx:
            counters = self.counters[idx] = EngineCounters()
            return self._real_engine_run(
                graph, ScheduleProxy(automaton, counters), slot_budget, trace
            )

    @contextmanager
    def install(self):
        patches = [
            (harness, "build", self._timed("topology.build", harness.build)),
            (harness, "make_assignment",
             self._timed("harness.make_assignment", harness.make_assignment)),
            (harness, "dvb1_run", self._protocol_run("dvb1.run", harness.dvb1_run)),
            (harness, "dvb2_run", self._protocol_run("dvb2.run", harness.dvb2_run)),
            (dvb1, "run", self._engine_run),
            (dvb2, "run", self._engine_run),
            (analysis, "markov_success",
             self._timed("analysis.markov_success", analysis.markov_success)),
            (analysis, "sample_success",
             self._timed("analysis.sample_success", analysis.sample_success)),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, wrapper in patches:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "item": item}
                ) + "\n")


def layer_of(name: str) -> str:
    return "harness" if name == "item" else name.split(".", 1)[0]


def self_times(tracer: Tracer) -> dict[str, float]:
    """Seconds of self time per layer inside item spans: each span's
    duration minus its children's, with the automaton's share of an
    `engine.run` span moved to the protocol layer that owns it."""
    spans = tracer.spans
    totals: dict[str, float] = {}
    child_s = [0.0] * len(spans)
    root = list(range(len(spans)))  # a parent is always recorded before its children
    for idx, (name, start, end, parent, _item) in enumerate(spans):
        if parent is not None:
            child_s[parent] += end - start
            root[idx] = root[parent]
    for idx, (name, start, end, parent, _item) in enumerate(spans):
        if spans[root[idx]][0] != "item":
            continue
        layer = layer_of(name)
        own = end - start - child_s[idx]
        counters = tracer.counters.get(idx)
        if counters is not None:
            owner = layer_of(spans[parent][0])
            own -= counters.automaton_s
            totals[owner] = totals.get(owner, 0.0) + counters.automaton_s
        totals[layer] = totals.get(layer, 0.0) + own
    return totals
