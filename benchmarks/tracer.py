"""Per-layer tracing from outside the package.

``install`` replaces the public functions the workloads reach with
wrappers that time each call.  A wrapper records nothing unless an op
span is open, so set-up and correctness checks are never traced.  Spans
are not kept one by one: each is folded, as it ends, into per-(name,
bucket) totals of calls, total time and self time, where self time is
the span's duration minus the time of the spans it caused.  The op
span is the root, so the self times of one op add up to its traced
duration.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Wrapped functions, by layer.  ``laurent.mul`` is HalfLaurent.__mul__.
LAYER_FUNCTIONS = (
    "laurent.mul", "laurent.exact_div",
    "braid3.parse", "braid3.burau", "braid3.phi",
    "sl2z.exponent_mod12", "sl2z.decompose_st",
    "quadforms.enumerate_classes", "quadforms.reduce",
    "birman_menasco.class_excess",
    "counts.check_main_identity", "counts.trace_classes", "counts.class_count",
    "counts.census_table",
    "cli.main",
)
#: Root span of a traced CLI child process; the parent subtracts its
#: total from the span that waited on the child.
CHILD_ROOT = "cli.child"


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # per open span: [child time]
        self.bucket = ""
        # (name, bucket) -> [calls, total_s, self_s]
        self.spans: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)

    def _close(self, name: str, frame: list[float], duration: float) -> None:
        self.stack.pop()
        if self.stack:
            self.stack[-1][0] += duration
        s = self.spans[(name, self.bucket)]
        s[0] += 1
        s[1] += duration
        s[2] += duration - frame[0]

    def op(self, bucket: str, name: str = "op"):
        """The root span of one operation, whose inputs fall in ``bucket``."""
        self.bucket = bucket
        return self.span(name)

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame = [0.0]
        self.stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, perf_counter() - start)

    def wrap(self, name: str, fn, count=None, cached: bool = False):
        """A traced stand-in for fn; count(args, result) yields counter deltas.

        For an lru_cache function (``cached``), hits and misses are
        counted from cache_info() around each call, and count runs on
        misses only, so that it measures work done.
        """
        stack, close, counters = self.stack, self._close, self.counters

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            misses = fn.cache_info().misses if cached else 0
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, frame, perf_counter() - start)
            computed = True
            if cached:
                computed = fn.cache_info().misses > misses
                counters[name + ".misses"] += computed
                counters[name + ".hits"] += not computed
            if count is not None and computed:
                for key, value in count(args, result):
                    counters[key] += value
            return result

        return traced

    def absorb(self, rows: list, counters: dict) -> None:
        """Add the spans and counters a child process recorded, in this op's bucket."""
        for name, _, calls, total, self_time in rows:
            s = self.spans[(name, self.bucket)]
            s[0] += calls
            s[1] += total
            s[2] += self_time
        for key, value in counters.items():
            self.counters[key] += value
        self.stack[-1][0] += sum(row[3] for row in rows if row[0] == CHILD_ROOT)

    def dump(self) -> tuple[list, dict]:
        """Spans as (name, bucket, calls, total_s, self_s) rows, and counters."""
        return [[*key, *value] for key, value in self.spans.items()], dict(self.counters)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer in place."""
    from braidforms import (birman_menasco, braid3, cli, counts, laurent,
                            quadforms, sl2z)

    def letters(name):
        return lambda args, _: ((name, len(args[0])),)

    mul = tracer.wrap("laurent.mul", laurent.HalfLaurent.__mul__)
    laurent.HalfLaurent.__mul__ = laurent.HalfLaurent.__rmul__ = mul
    laurent.HalfLaurent.exact_div = tracer.wrap("laurent.exact_div", laurent.HalfLaurent.exact_div)
    braid3.BraidWord.parse = classmethod(tracer.wrap("braid3.parse", braid3.BraidWord.parse.__func__))
    braid3.burau = tracer.wrap("braid3.burau", braid3.burau, letters("braid3.burau.letters"))
    braid3.phi = tracer.wrap("braid3.phi", braid3.phi, letters("braid3.phi.letters"))
    sl2z.exponent_mod12 = tracer.wrap("sl2z.exponent_mod12", sl2z.exponent_mod12)
    sl2z.decompose_st = tracer.wrap(
        "sl2z.decompose_st", sl2z.decompose_st,
        lambda _, word: (("sl2z.decompose_st.syllables", len(word)),))
    quadforms.enumerate_classes = tracer.wrap(
        "quadforms.enumerate_classes", quadforms.enumerate_classes,
        lambda _, keys: (("quadforms.enumerate_classes.forms",
                          sum(len(k.cycle) if k.cycle else 1 for k in keys)),),
        cached=True)
    quadforms.reduce = tracer.wrap("quadforms.reduce", quadforms.reduce)
    birman_menasco.class_excess = tracer.wrap("birman_menasco.class_excess", birman_menasco.class_excess)
    counts.check_main_identity = tracer.wrap("counts.check_main_identity", counts.check_main_identity)
    counts.trace_classes = tracer.wrap("counts.trace_classes", counts.trace_classes, cached=True)
    counts.class_count = tracer.wrap("counts.class_count", counts.class_count)
    counts.census_table = tracer.wrap("counts.census_table", counts.census_table)
    cli.main = tracer.wrap("cli.main", cli.main)
