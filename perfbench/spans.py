"""In-memory spans and counts recorded around the benchmark's calls into sfwg."""

import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
RSS_SAMPLE_S = 0.005


def resident_bytes():
    """The process's resident memory now (Linux)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_BYTES


class PeakResident:
    """Samples resident memory every RSS_SAMPLE_S on a thread while open;
    ``peak_mb`` is the highest sample above the level at entry, in MiB.

    Sampling, unlike tracemalloc, adds no cost to each allocation, so the
    span it wraps keeps its untraced duration.
    """

    def __enter__(self):
        self.base = self.peak = resident_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self):
        while not self._stop.wait(RSS_SAMPLE_S):
            self.peak = max(self.peak, resident_bytes())

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, resident_bytes())
        self.peak_mb = (self.peak - self.base) / 2**20


class Tracer:
    """Spans (name, start, end, parent) and per-name counts.

    Spans stay in memory until ``write``; times are seconds from the
    tracer's creation.
    """

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)
        self._open = []

    @contextmanager
    def span(self, name, **attrs):
        """Time the body as a span; the yielded dict takes its counts."""
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter() - self.t0
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.t0
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def call_with_peak(self, name, fn, *args, **kwargs):
        """As ``call``, also recording the peak resident memory it added."""
        with self.span(name) as record, PeakResident() as memory:
            result = fn(*args, **kwargs)
        record["peak_mb"] = memory.peak_mb
        self.peaks[name] = max(self.peaks[name], memory.peak_mb)
        return result

    def count(self, name, value):
        self.counts[name] += value

    def seconds(self, name):
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "peaks": dict(self.peaks)}, fh, indent=1)
