"""Reporting: ASCII tables, campaign progress, committed JSON reports.

Every command prints its tables with :func:`format_table`, streams
campaign progress through :class:`StreamAggregator`, and writes its
committed report with :func:`write_report`.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Monospace table with auto-sized columns."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def progress_line(
    done: int,
    total: int,
    ok: int = 0,
    failed: int = 0,
    cached: int = 0,
    width: int = 24,
) -> str:
    """One-line campaign progress bar: ``[#####...] 12/40 ok=10 ...``."""
    filled = int(round(width * min(done, total) / total)) if total else 0
    bar = "#" * filled + "." * (width - filled)
    return (f"[{bar}] {done}/{total} ok={ok} failed={failed} cached={cached}")


class StreamAggregator:
    """Aggregate campaign job outcomes as they stream in.

    The campaign engine completes jobs out of submission order (cache
    hits first, then whichever worker finishes); this accumulator keeps
    the running counts a progress display needs without waiting for the
    full result list.  It also tracks live throughput: ``jobs_per_s()``
    is the rate since construction, ``eta_s()`` extrapolates it over
    the jobs still pending, and ``line()`` appends both to the progress
    bar once at least one job has landed.  ``clock`` is injectable
    (defaults to :func:`time.monotonic`) so the arithmetic is testable
    without sleeping.

    Degenerate sweeps are first-class: before any job lands, or on a
    clock that has not advanced (an all-cached sweep can finish inside
    one timer tick), the rate and ETA are ``None`` and :meth:`line`
    simply omits them -- never a division by zero, never a nonsensical
    ``inf job/s``.  Out-of-band events (retries, pool downgrades) are
    collected via :meth:`note` and appended to :meth:`summary`, so
    degraded execution is visible in the one line operators read.
    """

    def __init__(self, total: int, clock=None) -> None:
        self.total = total
        self.done = 0
        self.ok = 0
        self.failed = 0
        self.cached = 0
        self.failures: list[str] = []
        self.notes: list[str] = []
        self._clock = time.monotonic if clock is None else clock
        self._start = self._clock()

    def add(self, ok: bool, cached: bool = False, label: str = "") -> None:
        self.done += 1
        if ok:
            self.ok += 1
        else:
            self.failed += 1
            if label:
                self.failures.append(label)
        if cached:
            self.cached += 1

    def note(self, message: str) -> None:
        """Record an out-of-band event (retry, downgrade, fallback)."""
        self.notes.append(message)

    def jobs_per_s(self) -> float | None:
        """Completed jobs per wall-clock second, or None when undefined.

        Undefined before the first job lands, while the clock has not
        advanced, or if the rate is non-finite -- callers get ``None``
        rather than ``ZeroDivisionError`` or ``inf``.
        """
        elapsed = self._clock() - self._start
        if self.done <= 0 or elapsed <= 0:
            return None
        rate = self.done / elapsed
        return rate if math.isfinite(rate) and rate > 0 else None

    def eta_s(self) -> float | None:
        """Projected seconds until the last job lands, or None.

        Exactly 0.0 once everything is done (an all-cached sweep never
        reports a phantom wait), and never negative.
        """
        if self.done >= self.total:
            return 0.0
        rate = self.jobs_per_s()
        if rate is None:
            return None
        return max(0.0, self.total - self.done) / rate

    def line(self, width: int = 24) -> str:
        out = progress_line(self.done, self.total, self.ok, self.failed,
                            self.cached, width=width)
        rate = self.jobs_per_s()
        eta_s = self.eta_s()
        if rate is not None and eta_s is not None:
            eta = int(round(eta_s))
            out += f" {rate:.1f} job/s eta {eta // 60}:{eta % 60:02d}"
        return out

    def summary(self) -> str:
        out = (f"{self.done}/{self.total} job(s): {self.ok} ok, "
               f"{self.failed} failed, {self.cached} from cache")
        if self.failures:
            out += " -- failed: " + ", ".join(self.failures[:10])
            if len(self.failures) > 10:
                out += f" (+{len(self.failures) - 10} more)"
        if self.notes:
            out += f" -- {len(self.notes)} event(s): " + "; ".join(self.notes[:5])
            if len(self.notes) > 5:
                out += f" (+{len(self.notes) - 5} more)"
        return out


def failure_counts(rows: Iterable[tuple[str, bool]]) -> dict[str, int]:
    """Per-group failure tally from ``(group, ok)`` pairs.

    Every group seen appears in the result -- including groups with
    zero failures -- so a truncated sweep still reports the full
    scenario list it covered rather than silently narrowing it.
    """
    counts: dict[str, int] = {}
    for group, ok in rows:
        counts.setdefault(group, 0)
        if not ok:
            counts[group] += 1
    return counts


def render_failure_counts(counts: dict[str, int]) -> str:
    return " ".join(f"{group}={n}" for group, n in counts.items())


def write_report(report: dict, path: str) -> None:
    """Write a committed report as stable JSON: sorted keys, 2-space
    indent, trailing newline, so an unchanged report is byte-identical."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
