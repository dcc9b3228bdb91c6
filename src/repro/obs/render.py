"""ASCII renderers for traces: flame view and per-phase summary.

Both render plain text, like every other report in the package, and
both reuse :func:`repro.bench.harness.ascii_table` (imported lazily —
the bench harness itself records traces, so the import must not be
circular at module load).
"""

from __future__ import annotations

from typing import Sequence

from repro.obs.export import _roots_of
from repro.obs.progress import ProgressSeries
from repro.obs.tracer import Span, Tracer

__all__ = [
    "render_convergence",
    "render_flame",
    "render_profile",
    "render_summary",
]

_BAR_WIDTH = 24

#: Canvas of one convergence plot (plus axis gutters).
_PLOT_WIDTH = 56
_PLOT_HEIGHT = 8

#: Plots rendered per profile before summarising the rest.
_MAX_PLOTS = 6


def _fmt_tags(span: Span) -> str:
    return " ".join(f"{k}={v}" for k, v in span.tags.items())


def render_flame(source: Tracer | Span | Sequence[Span]) -> str:
    """Indented span tree with duration bars — a text flame graph.

    Bar length is proportional to each span's share of its root's
    wall-clock, so hot phases are visible at a glance.
    """
    lines: list[str] = []
    for root in _roots_of(source):
        scale = root.duration or 1.0
        for depth, span in root.walk():
            frac = min(1.0, span.duration / scale)
            bar = "#" * max(1, round(frac * _BAR_WIDTH))
            label = "  " * depth + span.name
            tags = _fmt_tags(span)
            counters = " ".join(
                f"{k}={v}" for k, v in sorted(span.counters.items())
            )
            detail = " ".join(x for x in (tags, counters) if x)
            lines.append(
                f"{label:<32s} {span.dur_ms:>9.2f} ms"
                f" {bar:<{_BAR_WIDTH}s} {detail}".rstrip()
            )
    return "\n".join(lines)


def render_summary(
    source: Tracer | Span | Sequence[Span], *, title: str = "per-phase summary"
) -> str:
    """Aggregate spans by name: calls, total/self time, counters."""
    from repro.bench.harness import ascii_table

    order: list[str] = []
    agg: dict[str, dict] = {}
    for root in _roots_of(source):
        for _, span in root.walk():
            if span.name not in agg:
                order.append(span.name)
                agg[span.name] = {
                    "calls": 0, "total": 0.0, "self": 0.0, "counters": {},
                }
            a = agg[span.name]
            a["calls"] += 1
            a["total"] += span.duration
            a["self"] += span.self_duration
            for k, v in span.counters.items():
                a["counters"][k] = a["counters"].get(k, 0) + v

    rows = []
    for name in order:
        a = agg[name]
        counters = " ".join(
            f"{k}={v}" for k, v in sorted(a["counters"].items())
        )
        rows.append(
            {
                "phase": name,
                "calls": a["calls"],
                "total_ms": round(1000 * a["total"], 2),
                "self_ms": round(1000 * a["self"], 2),
                "counters": counters,
            }
        )
    return ascii_table(rows, title=title)


def _series_of(
    source: Tracer | Span | Sequence[Span],
) -> list[ProgressSeries]:
    """Every progress series in ``source``: span-attached (walked in
    tree order) plus any loose tracer-level series."""
    out: list[ProgressSeries] = []
    for root in _roots_of(source):
        for _, span in root.walk():
            if span.progress:
                out.extend(
                    span.progress[name] for name in sorted(span.progress)
                )
    loose = getattr(source, "series", None)
    if loose:
        out.extend(loose[name] for name in sorted(loose))
    return out


def _plot_series(series: ProgressSeries) -> str:
    """One ASCII convergence plot: value (y) against run time (x)."""
    pts = series.samples
    header = (
        f"{series.name}  n={len(pts)}"
        f"  t={series.duration * 1000:.1f}ms"
        + (f"  final={series.final:g}" if series.final is not None else "")
    )
    if not pts:
        return header
    values = [v for _, v in pts]
    vmin, vmax = min(values), max(values)
    t_end = pts[-1][0]
    width, height = _PLOT_WIDTH, _PLOT_HEIGHT
    if vmax == vmin or len(pts) == 1:
        return header + f"\n  (flat at {vmin:g})"
    grid = [[" "] * width for _ in range(height)]
    # Staircase: each column shows the latest sample at or before its
    # time, so anytime behaviour ("how fast does best cost fall") is
    # visible even with few samples.
    si = 0
    level: float | None = None
    for col in range(width):
        t = t_end * col / (width - 1)
        while si < len(pts) and pts[si][0] <= t:
            level = pts[si][1]
            si += 1
        if level is None:
            continue
        row = round(
            (height - 1) * (vmax - level) / (vmax - vmin)
        )
        grid[row][col] = "*"
    lo, hi = f"{vmin:g}", f"{vmax:g}"
    gutter = max(len(lo), len(hi))
    lines = [header]
    for row in range(height):
        label = hi if row == 0 else lo if row == height - 1 else ""
        lines.append(f"  {label:>{gutter}s} |{''.join(grid[row])}")
    lines.append(
        f"  {'':>{gutter}s} +{'-' * width} {series.duration * 1000:.1f}ms"
    )
    return "\n".join(lines)


def render_convergence(
    source: Tracer | Span | Sequence[Span], *, max_plots: int = _MAX_PLOTS
) -> str:
    """ASCII convergence plots for every progress series in ``source``.

    At most ``max_plots`` are drawn (tree order); the rest are listed
    as one-line summaries, so a wide sweep cannot flood the terminal.
    """
    series = _series_of(source)
    if not series:
        return ""
    parts = ["convergence:"]
    for s in series[:max_plots]:
        parts.append(_plot_series(s))
    for s in series[max_plots:]:
        parts.append(
            f"{s.name}  n={len(s)}  t={s.duration * 1000:.1f}ms"
            + (f"  final={s.final:g}" if s.final is not None else "")
        )
    return "\n\n".join(parts)


def render_profile(source: Tracer | Span | Sequence[Span]) -> str:
    """The ``--profile`` report: flame view, per-phase summary,
    convergence plots, and counter totals (span-attached and loose)."""
    roots = _roots_of(source)
    loose = dict(getattr(source, "counters", None) or {})
    if not roots and not loose:
        return "(no spans recorded)"
    parts = []
    if roots:
        parts = [render_flame(roots), "", render_summary(roots)]
    convergence = render_convergence(source)
    if convergence:
        parts.append("")
        parts.append(convergence)
    totals: dict[str, int] = {}
    for root in roots:
        for k, v in root.totals().items():
            totals[k] = totals.get(k, 0) + v
    if totals:
        parts.append("")
        parts.append(
            "counters: "
            + " ".join(f"{k}={v}" for k, v in sorted(totals.items()))
        )
    if loose:
        # Counters recorded while no span was open — without this line
        # they would silently vanish from the report.
        parts.append("")
        parts.append(
            "counters (untraced): "
            + " ".join(f"{k}={v}" for k, v in sorted(loose.items()))
        )
    return "\n".join(parts)
