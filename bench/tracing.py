"""In-memory spans for the traced benchmark run.

A span records one call at a layer boundary: its name, start and end
(perf_counter seconds), the span that caused it and the request it belongs
to.  Spans stay in memory until the run ends.  The tracer times its own
bookkeeping, outside every span's interval, so the run can report what
tracing cost.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from typing import Iterator, Optional


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.overhead_s = 0.0
        self.pass_index = 0
        self._next_id = 0

    @contextmanager
    def span(
        self,
        name: str,
        request: str,
        parent: Optional[int] = None,
        terms: int = 0,
        rusage: bool = False,
    ) -> Iterator[dict]:
        """Record the enclosed block as one span.

        With `rusage`, the span also gets the CPU seconds this process and
        its reaped children spent inside it (`cpu_self`, `cpu_children`).
        """
        entered = time.perf_counter()
        record = {
            "id": self._next_id,
            "name": name,
            "parent": parent,
            "request": request,
            "pass": self.pass_index,
            "terms": terms,
            "error": None,
        }
        self._next_id += 1
        if rusage:
            cpu_self = cpu_seconds(resource.RUSAGE_SELF)
            cpu_children = cpu_seconds(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            yield record
        except Exception as exc:
            record["error"] = repr(exc)
            raise
        finally:
            end = time.perf_counter()
            if rusage:
                record["cpu_self"] = cpu_seconds(resource.RUSAGE_SELF) - cpu_self
                record["cpu_children"] = cpu_seconds(resource.RUSAGE_CHILDREN) - cpu_children
            record["start"] = start
            record["end"] = end
            self.spans.append(record)
            self.overhead_s += (start - entered) + (time.perf_counter() - end)


def self_times(spans: list[dict], durations: dict[int, float]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (one client, one thread), so the time
    they cover is the sum of their durations.  `durations` maps span ids to
    the durations to use, so the caller can rescale them.
    """
    own = dict(durations)
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= durations[span["id"]]
    return own
