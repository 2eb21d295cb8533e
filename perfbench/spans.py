"""In-memory spans around the benchmark's calls into quatu11, and call
counters on the scalar kernels.

A span is [name, start, end, parent, op_id, failed]; spans stay in a list
until the run ends.  The counters wrap Quaternion.__mul__, Mat2H.__matmul__
and Mat2H.chi from outside the package for the duration of a `with` block.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, OP_ID, FAILED = range(6)


def direct(_name, fn, *args):
    """The untraced stand-in for Tracer.call."""
    return fn(*args)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._open: int | None = None

    def call(self, name, fn, *args):
        span = [name, perf_counter(), 0.0, self._open, self.op_id, False]
        index = len(self.spans)
        self.spans.append(span)
        parent, self._open = self._open, index
        try:
            return fn(*args)
        except BaseException:
            span[FAILED] = True
            raise
        finally:
            span[END] = perf_counter()
            self._open = parent

    def calls_and_failures(self) -> tuple[Counter, Counter]:
        calls, failed = Counter(), Counter()
        for span in self.spans:
            calls[span[NAME]] += 1
            failed[span[NAME]] += span[FAILED]
        return calls, failed

    def self_seconds(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child[span[PARENT]] += span[END] - span[START]
        out: dict[str, list[float]] = defaultdict(list)
        for span, inner in zip(self.spans, child):
            out[span[NAME]].append(span[END] - span[START] - inner)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\top_id\tfailed\n")
            for name, start, end, parent, op_id, failed in self.spans:
                handle.write(f"{name}\t{start:.9f}\t{end:.9f}\t"
                             f"{'' if parent is None else parent}\t"
                             f"{op_id}\t{int(failed)}\n")


@contextmanager
def counting(targets):
    """Count calls of each (owner, attribute, key) in `targets` into a Counter."""
    counts: Counter = Counter()
    originals = []
    for owner, attr, key in targets:
        original = owner.__dict__[attr]

        def wrapper(*args, _original=original, _key=key):
            counts[_key] += 1
            return _original(*args)

        originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)
    try:
        yield counts
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
