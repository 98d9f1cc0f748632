"""Run one mobiuslab CLI call in this process and record its timeline.

    python3 child.py SIDECAR MODE CLI-ARGS...

MODE is one of
  plain   mark the set-up boundary only (the timed runs)
  probe   stop at the set-up boundary (extra set-up samples)
  spans   record spans and counters (the traced runs)
  memory  spans with tracemalloc peaks; tracemalloc slows allocation-heavy
          loops several times, so times come from `spans` runs instead

The mobiuslab package must come from PYTHONPATH (the checkout's src/).  The
script wraps module functions from outside, so no file of the package
changes, and writes SIDECAR as JSON when the call returns:

- setup_end: CLOCK_MONOTONIC time of the first call into run-phase work (a
  weight sieve, an experiment run, an autocorrelation or a stream read);
  everything before it is interpreter start, imports, parsing and binding.
- end: the time the CLI returned, after its last report byte was written.
- peak_rss_kib: VmHWM of this process's own address space.  wait4's
  ru_maxrss would also count the launching process: the exec'd child
  inherits the high-water mark of the address space it replaced, which
  under vfork is the launcher's.
- spans (spans, memory): [name, start, end, parent index, peak bytes] for
  each call into a traced layer, plus counters gathered at the same
  boundaries.  The peak (memory only) is the tracemalloc peak above the
  span's starting level.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc
import weakref

# cli.BoundSystem.kind -> the stream-builder layer behind it
BUILD_KIND = {"substitution": "subst", "morse": "morse", "rs": "rs", "veech": "veech"}


class SetupDone(Exception):
    """Raised at the set-up boundary of a probe run; not a ValueError, so the CLI lets it through."""


class Tracer:
    """Spans kept in memory, each with its parent; the CLI runs on one thread.

    The `--workers 2` thread pool only sums chunks and calls nothing traced,
    so a single span stack is enough.
    """

    def __init__(self, mode: str):
        self.probe = mode == "probe"
        self.trace = mode in ("spans", "memory")
        self.memory = mode == "memory"
        self.setup_end = None
        self.spans = []
        self.stack = []
        self.counters = {"symbols_built": 0, "positions_read": 0, "group_order": 0}
        self.stream_kind = weakref.WeakKeyDictionary()

    def mark_setup_end(self):
        if self.setup_end is None:
            self.setup_end = time.monotonic()
            if self.probe:
                raise SetupDone

    def _open(self, name):
        now_bytes = 0
        if self.memory:
            now_bytes, peak = tracemalloc.get_traced_memory()
            if self.stack:  # fold the peak so far into the parent before resetting
                parent = self.spans[self.stack[-1]]
                parent[4] = max(parent[4], peak - parent[5])
            tracemalloc.reset_peak()
        index = len(self.spans)
        self.spans.append([name, time.monotonic(), None, self.stack[-1] if self.stack else -1, 0, now_bytes])
        self.stack.append(index)
        return index

    def _close(self, index):
        span = self.spans[index]
        span[2] = time.monotonic()
        if self.memory:
            span[4] = max(span[4], tracemalloc.get_traced_memory()[1] - span[5])
        self.stack.pop()
        if self.memory and self.stack:
            parent = self.spans[self.stack[-1]]
            parent[4] = max(parent[4], span[4] + span[5] - parent[5])

    def call(self, name, fn, *args, **kwargs):
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def wrap(self, owner, attr, name, boundary=False, after=None):
        """Replace owner.attr by a wrapper that records span `name` (None: no span)."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if boundary:
                self.mark_setup_end()
            if name is None or not self.trace:
                return original(*args, **kwargs)
            result = self.call(name, original, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)

    def sidecar(self, end):
        spans = [s[:5] for s in self.spans]
        return {
            "setup_end": self.setup_end,
            "end": end,
            "peak_rss_kib": peak_rss_kib(),
            "spans": spans,
            "counters": self.counters,
        }


def peak_rss_kib():
    """VmHWM from /proc/self/status, or None where there is no such file."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def install(tracer: Tracer, cli, experiment, spectral, streams, subst):
    """Wrap the layer boundaries the CLI calls through.

    cli imports parse_spec and weight_table by name, so those are wrapped in
    cli's namespace; the rest are reached through their module or class at
    call time.  Untraced, only the set-up boundaries are wrapped.
    """
    counters = tracer.counters

    def tag_stream(args, bound):
        tracer.stream_kind[bound.stream] = BUILD_KIND[bound.kind]

    def note_group(args, result):
        counters["group_order"] = max(counters["group_order"], result[0].order)

    def note_evaluate(args, result):
        counters["positions_read"] += len(result) * len(args[0].window)

    boundaries = (
        (cli, "weight_table", "arith.weight_table"),
        (experiment, "run_experiment", "experiment.report"),
        (spectral, "autocorrelation", "spectral.autocorrelation"),
        (streams.SymbolStream, "prefix", None),
        (streams.SymbolStream, "block", None),
    )
    for owner, attr, name in boundaries:
        tracer.wrap(owner, attr, name, boundary=True)
    if not tracer.trace:
        return
    if tracer.memory:
        tracemalloc.start()
    layers = (
        (cli, "parse_spec", "specfile.parse", None),
        (cli, "build_system", "cli.bind", tag_stream),
        (cli, "bind_observable", "cli.bind", None),
        (subst, "closure", "permgrp.closure", note_group),
        (spectral.Observable, "evaluate", "spectral.evaluate", note_evaluate),
        (spectral.Observable, "evaluate_at", "spectral.evaluate_at", note_evaluate),
        (spectral, "periodogram", "spectral.periodogram", None),
        (experiment, "sarnak_series", "experiment.reduce", None),
        (experiment, "kbsz_series", "experiment.reduce", None),
        # corr and spectrum write their reports through the CLI's writer
        (cli, "_emit", "experiment.report", None),
    )
    for owner, attr, name, after in layers:
        tracer.wrap(owner, attr, name, after=after)

    init = streams.SymbolStream.__init__

    def traced_init(stream, build, *args, **kwargs):
        ref = weakref.ref(stream)  # a strong reference here would keep every prefix alive until gc

        def timed_build(n):
            out = tracer.call("streams.build." + tracer.stream_kind.get(ref(), "other"), build, n)
            counters["symbols_built"] += len(out)
            return out

        init(stream, timed_build, *args, **kwargs)

    streams.SymbolStream.__init__ = traced_init


def main(argv) -> int:
    sidecar_path, mode, cli_args = argv[0], argv[1], argv[2:]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    from mobiuslab import cli, experiment, spectral, streams, subst

    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != src:
        print("mobiuslab was imported from %s, not from %s" % (cli.__file__, src), file=sys.stderr)
        return 3
    tracer = Tracer(mode)
    install(tracer, cli, experiment, spectral, streams, subst)
    try:
        code = cli.main(cli_args)
    except SetupDone:
        code = 0
    end = time.monotonic()
    if tracer.memory:
        tracemalloc.stop()
    with open(sidecar_path, "w", encoding="ascii") as fh:
        json.dump(tracer.sidecar(end), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
