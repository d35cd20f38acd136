"""Measurement machinery shared by the workloads: spans, operations, gates.

Everything here times the program from outside, around calls to its public
functions and around CLI processes.  One operation runs at a time (a closed
loop with a single client), so the load stays within the machine's cores.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import statistics
import time
from contextlib import contextmanager

# A hard stop for the whole run, counted from process start: no operation is
# allowed to run past it, so a stalled call cannot keep the run from exiting.
RUN_DEADLINE_S = 150.0
DEFAULT_OP_LIMIT_S = 60.0


class OpTimeout(BaseException):
    """Raised inside an operation when its time limit expires.

    A BaseException so that no ``except Exception`` in the program under
    test can swallow it.
    """


class Tracer:
    """Spans kept in memory: name, layer, start, end, parent span, pass id.

    With ``enabled`` false the tracer records nothing; the untraced passes
    use it so their wall times carry no tracing cost.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self.pass_id = None

    @contextmanager
    def span(self, name: str, layer: str):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "pass": self.pass_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, pass_ids) -> dict:
        """Per-layer self time over the given passes: span time not covered by child spans."""
        spans = [s for s in self.spans if s["pass"] in pass_ids]
        child_time = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        out = {}
        for s in spans:
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            out[s["layer"]] = out.get(s["layer"], 0.0) + own
        return out


class Runner:
    """Runs operations one at a time with a time limit and a correctness gate.

    Every call of :meth:`op` or :meth:`check` is one attempted operation.
    An exception, a time-limit hit or a failed gate makes it a failure.
    ``samples[name]`` collects the elapsed seconds of each successful call.
    """

    def __init__(self, tracer: Tracer, started_at: float):
        self.tracer = tracer
        self.started_at = started_at
        self.attempted = 0
        self.failures = []
        self.samples = {}

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started_at)

    def fail(self, name: str, reason: str) -> None:
        self.failures.append(f"{name}: {reason}")

    def op(self, name: str, layer: str, fn, gate=None, limit: float = DEFAULT_OP_LIMIT_S):
        """Run ``fn()`` under a span and a time limit; return its result or None.

        ``gate(result)`` returns an error string (or None when the output is
        correct); it runs outside the timed region.
        """
        self.attempted += 1
        budget = min(limit, self.remaining())
        if budget <= 0:
            self.fail(name, "time limit: run deadline reached before the call")
            return None
        start = time.perf_counter()
        try:
            with self.tracer.span(name, layer), _time_limit(budget):
                result = fn()
        except OpTimeout:
            self.fail(name, f"time limit {budget:.1f} s exceeded")
            return None
        except Exception as exc:  # any program error is a counted failure
            self.fail(name, f"{type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        problem = gate(result) if gate is not None else None
        if problem:
            self.fail(name, problem)
            return None
        self.samples.setdefault(name, []).append(elapsed)
        return result

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """A correctness gate that is not tied to one call (e.g. along rungs)."""
        self.attempted += 1
        if not ok:
            self.fail(name, detail or "gate failed")
        return ok


@contextmanager
def _time_limit(seconds: float):
    """Raise OpTimeout in the main thread once ``seconds`` have passed."""

    def _expire(signum, frame):
        raise OpTimeout()

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python loop; a host-speed reading, never a scale factor."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def machine_facts() -> dict:
    import mpmath
    import numpy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "cpu": cpu,
    }


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set size in MiB (ru_maxrss is in KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def median(values):
    return statistics.median(values) if values else None
