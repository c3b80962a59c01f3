"""Spans and counters taken at the boundaries of pdfalearn's public calls.

Nothing here patches the package: the traced run routes its calls through
the proxies below, which delegate to the real objects. The untraced run
uses `NullTracer` and the unwrapped objects, so it pays nothing.
"""

from __future__ import annotations

import csv
import gzip
import time
from collections import defaultdict

from pdfalearn.automata import LanguageModel
from pdfalearn.lmbridge import TokenModel

perf = time.perf_counter


class NullTracer:
    """Tracing off: calls go straight through, counters are dropped."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name, value):
        pass


class Tracer:
    """Spans kept in memory; per-name sums of duration and self time.

    A span's self time is its duration minus the time its child spans
    cover. `add` accumulates counts, and durations measured without a span
    record (used for `Partitioner.label`, which runs about 10^6 times per
    batch), at the same boundaries.
    """

    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self.reset()

    def reset(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.values = defaultdict(int)

    def begin(self, name: str):
        parent = self._stack[-1][0] if self._stack else -1
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append([span_id, parent, name, perf(), 0.0])

    def end(self) -> float:
        end = perf()
        span_id, parent, name, start, child = self._stack.pop()
        duration = end - start
        self.spans[span_id] = (span_id, parent, name, start, end, self.run_id)
        self.total[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][4] += duration
        return duration

    def call(self, name, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def add(self, name, value):
        self.values[name] += value

    def write_spans(self, path):
        """Write every finished span as gzip'd CSV rows."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "parent", "name", "start", "end", "run"))
            out.writerows(s for s in self.spans if s is not None)


class TracedTeacher:
    """Stands in for a Teacher: times `mq`/`eq` and reads the counterexample lengths.

    The learner reads `alphabet` and `mq_count` and calls `mq`/`eq`; every
    other attribute of the real teacher stays on `inner`.
    """

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.alphabet = inner.alphabet

    @property
    def mq_count(self) -> int:
        return self.inner.mq_count

    def mq(self, u):
        return self.tracer.call("teacher.mq", self.inner.mq, u)

    def eq(self, hypothesis, partitioner=None):
        ce = self.tracer.call("teacher.eq", self.inner.eq, hypothesis, partitioner)
        if ce is not None:
            self.tracer.add("learner.rounds", 1)
            self.tracer.add("learner.ce_len_sum", self.inner.last_ce_length)
        return ce


def counting_partitioner(base, tracer: Tracer):
    """Copy of `base` as an instance of a subclass that counts and times `label`."""
    cls = type(base)

    class Counting(cls):
        def label(self, dist):
            start = perf()
            try:
                return cls.label(self, dist)
            finally:
                tracer.add("simplex.label_calls", 1)
                tracer.add("simplex.label_s", perf() - start)

    Counting.__name__ = Counting.__qualname__ = "Counting" + cls.__name__
    clone = object.__new__(Counting)
    clone.__dict__.update(base.__dict__)
    return clone


class TracedLanguageModel(LanguageModel):
    """Times every `next` call that crosses into `inner` under the span `name`."""

    def __init__(self, inner: LanguageModel, tracer: Tracer, name: str):
        self.inner = inner
        self.tracer = tracer
        self.name = name
        self.alphabet = inner.alphabet

    def next(self, u):
        return self.tracer.call(self.name, self.inner.next, u)


class TracedTokenModel(TokenModel):
    """Times calls into a RemoteTokenModel and the share of them that went over HTTP."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.vocab = inner.vocab
        self.bos = inner.bos
        self.eos = inner.eos

    def next_tokens(self, context):
        before = self.inner.request_count
        self.tracer.begin("lmbridge.token")
        try:
            return self.inner.next_tokens(context)
        finally:
            duration = self.tracer.end()
            if self.inner.request_count != before:
                self.tracer.add("lmbridge.request_s", duration)
