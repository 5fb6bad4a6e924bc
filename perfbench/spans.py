"""In-memory span recorder that wraps the program's layer entry points.

The benchmark never edits the program: it replaces module or class
attributes (``repro.engine.engine.optimize_plan``, ``Planner.compile``,
``SqlSemantics.run``, ...) with timing wrappers for the duration of a
traced window and puts the originals back afterwards.  Each call becomes
one span ``(name, start_ns, end_ns, parent, op, tag)`` appended to a list;
the parent is tracked per thread and per asyncio task through a
``ContextVar``, so concurrent connections of the service do not nest into
each other.  Nothing is written until :meth:`Tracer.dump` at exit.

A layer's self time is its span minus the time covered by its child spans
(:func:`layer_times`).
"""

from __future__ import annotations

import contextvars
import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns

#: Span fields, in tuple order.
FIELDS = ("name", "start_ns", "end_ns", "parent", "op", "tag")


class Tracer:
    """Records spans and counts around wrapped attributes."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._parent: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_parent", default=None
        )
        self._op = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> Tuple[int, contextvars.Token]:
        index = len(self.spans)
        parent = self._parent.get()
        op = self.spans[parent][4] if parent is not None else None
        self.spans.append([name, _now(), 0, parent, op, None])
        return index, self._parent.set(index)

    def end(self, handle: Tuple[int, contextvars.Token]) -> None:
        index, token = handle
        self.spans[index][2] = _now()
        self._parent.reset(token)

    def begin_op(self, name: str = "op", tag=None):
        """Open a root span that starts a new op id."""
        self._op += 1
        index = len(self.spans)
        self.spans.append([name, _now(), 0, None, self._op, tag])
        return index, self._parent.set(index)

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper.

        ``after(result)`` may return a dict of counts to add (e.g. rows).
        """
        original = getattr(owner, attr)
        begin, end, counts = self.begin, self.end, self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            handle = begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                end(handle)
            if after is not None:
                for key, value in after(result).items():
                    counts[key] += value
            return result

        self.patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts calls."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        # The raw entry of the owner's own dict is what gets restored, so
        # an inherited attribute is deleted again rather than copied down.
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- output ------------------------------------------------------------

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        """Write the spans as JSON lines (one header line first)."""
        with open(path, "w", encoding="utf-8") as out:
            header = {"fields": FIELDS, "counts": dict(self.counts)}
            if extra:
                header.update(extra)
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


_MISSING = object()


def layer_times(spans: List[list], root: str) -> Dict[str, object]:
    """Inclusive and self time per span name over the ops rooted at ``root``.

    Returns ``{"ops": n, "op_ns": total root time, "inclusive": {name: ns},
    "self": {name: ns}, "top_ns": time covered by the roots' direct
    children}``.  Spans are nested intervals, so the self times of all
    non-root spans sum to ``top_ns``, and ``op_ns - top_ns`` is the time no
    layer span covers.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent is not None and span[2]:
            child_ns[parent] += span[2] - span[1]
    inclusive: Dict[str, int] = defaultdict(int)
    self_ns: Dict[str, int] = defaultdict(int)
    ops = op_ns = top_ns = 0
    for index, span in enumerate(spans):
        name, start, end, parent = span[0], span[1], span[2], span[3]
        if not end:
            continue
        duration = end - start
        if parent is None:
            if name == root:
                ops += 1
                op_ns += duration
                top_ns += child_ns[index]
            continue
        inclusive[name] += duration
        self_ns[name] += duration - child_ns[index]
    return {
        "ops": ops,
        "op_ns": op_ns,
        "top_ns": top_ns,
        "inclusive": dict(inclusive),
        "self": dict(self_ns),
    }
