"""In-memory span tracer that wraps the package's public functions.

The benchmark records spans from its own files: it replaces module and
class attributes of `bewitness` with timing wrappers and restores them
afterwards.  Every attribute that holds the original function is
replaced, so a caller that bound the function at import time (`verify`
does `from .optimize import optimal_measurement`, the package root
re-exports `eigh` and `kron`) is traced as well as one that looks it up
on the module.

Spans record their thread.  A span opened on a thread with no open
span of its own (a thread-pool worker) takes as parent the innermost
open span of the thread that created the tracer; the benchmark runs one
job at a time from that thread, so this is the span that caused it.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from types import ModuleType

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self._main = threading.get_ident()
        # per thread: list of spans [name, start, end, parent_ref];
        # parent_ref is (thread id, index) or None
        self._spans: dict[int, list] = defaultdict(list)
        self._stacks: dict[int, list] = defaultdict(list)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> tuple[int, int]:
        tid = threading.get_ident()
        stack = self._stacks[tid]
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks[self._main]
            parent = main[-1] if tid != self._main and main else None
        spans = self._spans[tid]
        ref = (tid, len(spans))
        spans.append([name, _clock(), None, parent])
        stack.append(ref)
        return ref

    def _close(self, ref: tuple[int, int]) -> None:
        tid, idx = ref
        self._spans[tid][idx][2] = _clock()
        self._stacks[tid].pop()

    def span(self, name: str, fn, on_call=None):
        """Return `fn` wrapped so each call records a span `name`.

        `on_call(args, kwargs)` may return a dict of counts to add.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                tracer.counts.update(on_call(args, kwargs))
            ref = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(ref)

        return traced

    def counter(self, name: str, fn):
        """Return `fn` wrapped so each call adds one to count `name`."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, wrapper, only_owner: bool = False) -> None:
        """Replace `owner.attr` and, unless `only_owner`, every package
        attribute bound to the same object."""
        original = getattr(owner, attr)
        wrapped = wrapper(original)
        targets = [(owner, attr)]
        for mod_name, mod in ([] if only_owner else list(sys.modules.items())):
            if not isinstance(mod, ModuleType):
                continue
            if mod_name != "bewitness" and not mod_name.startswith("bewitness."):
                continue
            for key, val in list(vars(mod).items()):
                if val is original and (mod, key) != (owner, attr):
                    targets.append((mod, key))
        for obj, key in targets:
            self._undo.append((obj, key, getattr(obj, key)))
            setattr(obj, key, wrapped)

    def unpatch(self) -> None:
        while self._undo:
            obj, key, val = self._undo.pop()
            setattr(obj, key, val)

    # -- reporting -------------------------------------------------------

    def all_spans(self) -> list[tuple]:
        out = []
        for tid, spans in self._spans.items():
            for idx, (name, start, end, parent) in enumerate(spans):
                out.append(((tid, idx), name, start, end, parent))
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s and self_s.

        calls and busy_s count only spans without an ancestor of the same
        name, so a re-entered layer is not counted twice.  self_s is each
        span's duration minus the union of its children's intervals;
        children on pool threads overlap, so they are merged, not summed.
        """
        spans = {ref: (name, start, end, parent)
                 for ref, name, start, end, parent in self.all_spans()}
        children: dict[tuple, list] = defaultdict(list)
        for ref, (_, start, end, parent) in spans.items():
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for ref, (name, start, end, parent) in spans.items():
            if end is None:
                raise RuntimeError(f"span {name} never closed")
            row = out[name]
            row["self_s"] += (end - start) - _covered(children.get(ref, ()), start, end)
            anc = parent
            nested = False
            while anc is not None:
                if spans[anc][0] == name:
                    nested = True
                    break
                anc = spans[anc][3]
            if not nested:
                row["calls"] += 1
                row["busy_s"] += end - start
        return dict(out)

    def write(self, path) -> int:
        """Write every span as one JSON line, gzip-compressed."""
        rows = self.all_spans()
        t0 = min((r[2] for r in rows), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for (tid, idx), name, start, end, parent in rows:
                fh.write(json.dumps({
                    "id": [tid, idx], "name": name, "thread": tid,
                    "start_s": start - t0, "end_s": end - t0,
                    "parent": list(parent) if parent else None,
                }) + "\n")
        return len(rows)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total
