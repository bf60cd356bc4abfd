"""In-memory span recorder that wraps seqlate's layer functions from outside.

Each wrapped function is replaced at the module (or class) attribute its
caller looks up, for example ``seqlate.gibbs.step_theta`` (looked up by
``run_chain`` on every sweep) or ``seqlate.cli.run_fit`` (looked up by the
``fit`` subcommand).  No source file of the program changes.  A span holds
its name, start, end, the span that caused it, and the trace id of the CLI
command it belongs to.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Spans and counters of one benchmark run."""

    def __init__(self) -> None:
        # (id, name, start, end, parent id or -1, trace id)
        self.spans: List[Tuple[int, str, float, float, int, str]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._trace_id = ""
        self._patches: List[Tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((sid, name, 0.0, 0.0, parent, self._trace_id))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self._trace_id)

    def command(self, trace_id: str, fn: Callable, *args):
        """Root span of one CLI command; its children share trace_id."""
        self._trace_id = trace_id
        try:
            return self.span("command." + trace_id.rsplit("/", 1)[-1], fn, args, {})
        finally:
            self._trace_id = ""

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable[["Tracer", tuple, dict, object], None]] = None) -> None:
        """Replace owner.attr by a span-recording wrapper until unwrap_all."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            result = self.span(name, orig, args, kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------------
    # aggregation

    def totals(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Summed duration and call count per span name."""
        dur: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for _, name, start, end, _, _ in self.spans:
            dur[name] += end - start
            calls[name] += 1
        return dur, calls

    def self_time(self, name_prefix: str) -> float:
        """Summed self time of spans whose name starts with name_prefix:
        duration minus the part of it that child spans cover."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                # children of one span run one after another in this
                # single-threaded program, so their durations do not overlap
                child_time[parent] += end - start
        return sum(end - start - child_time[sid]
                   for sid, name, start, end, _, _ in self.spans
                   if name.startswith(name_prefix))

    def write(self, path: Path) -> None:
        doc = {
            "fields": ["id", "name", "start", "end", "parent", "trace"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc) + "\n")
