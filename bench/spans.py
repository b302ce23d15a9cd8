"""In-memory spans recorded around the benchmark's calls into bkw.

A span is ``[name, parent, start, end, failed]``; ``parent`` is the index
of the enclosing span or None.  Spans are only appended while the traced
pass runs and are summarised after it ends.
"""

from __future__ import annotations

from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str, start: float) -> int:
        index = len(self.spans)
        self.spans.append([name, self._open[-1] if self._open else None, start, None, False])
        self._open.append(index)
        return index

    def end(self, index: int, end: float, failed: bool = False) -> None:
        if self._open.pop() != index:
            raise RuntimeError("spans must close in the order they opened")
        self.spans[index][3] = end
        self.spans[index][4] |= failed

    def fail(self, index: int) -> None:
        self.spans[index][4] = True


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def nesting_problems(spans: list[list]) -> list[str]:
    """Spans that are unclosed or stick out of their parent."""
    problems = []
    for i, (name, parent, start, end, _) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {i} ({name}) is not closed properly")
        elif parent is not None:
            p = spans[parent]
            if not (parent < i and p[2] <= start and end <= p[3]):
                problems.append(f"span {i} ({name}) lies outside its parent {parent}")
    return problems


def layer_totals_by_root(spans: list[list]) -> list[dict[str, dict]]:
    """Per root span, in order: calls, failed, busy and self seconds per span name
    within that root's tree."""
    own = self_times(spans)
    root_of: list[int] = []
    by_root: dict[int, dict] = {}
    for i, (name, parent, start, end, failed) in enumerate(spans):
        root = i if parent is None else root_of[parent]
        root_of.append(root)
        totals = by_root.setdefault(root, defaultdict(
            lambda: {"calls": 0, "failed": 0, "busy_s": 0.0, "self_s": 0.0}))
        entry = totals[name]
        entry["calls"] += 1
        entry["failed"] += int(failed)
        entry["busy_s"] += end - start
        entry["self_s"] += own[i]
    return [dict(totals) for totals in by_root.values()]
