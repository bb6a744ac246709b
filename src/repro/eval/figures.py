"""Report figures: grouped bar charts as deterministic SVG.

The charts are hand-rolled SVG with fixed float formatting throughout,
so re-generating a report produces byte-identical figure files, and no
plotting library is needed.

Styling follows one validated light-mode categorical palette (checked
for CVD separation and normal-vision distance); schemes are assigned
colors in **fixed slot order** — a scheme keeps its color regardless of
which other schemes are on the chart.  Bars carry direct value labels
(several palette slots sit below 3:1 contrast on the light surface, so
labels — plus the report's markdown tables as the table view — provide
the required relief), and the grid/axes stay recessive.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from pathlib import Path
from xml.sax.saxutils import escape as _xml_escape

#: Validated categorical palette, light mode, in fixed assignment order
#: (blue, orange, aqua, yellow, magenta): worst adjacent CVD ΔE 9.1,
#: worst adjacent normal-vision ΔE 19.6 on surface #fcfcfb.
PALETTE = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100", "#e87ba4")
SURFACE = "#fcfcfb"
INK = "#0b0b0b"
INK_MUTED = "#52514e"
GRID = "#e4e3df"

#: Canonical scheme → palette-slot assignment.  Fixed by entity, never
#: by position: Flash is always blue even if it is the only series.
SCHEME_SLOTS = {
    "Flash": 0,
    "Spider": 1,
    "SpeedyMurmurs": 2,
    "Shortest Path": 3,
    "Landmark": 4,
}


def scheme_color(scheme: str, fallback_index: int = 0) -> str:
    """The palette color for ``scheme`` (stable across chart contents)."""
    slot = SCHEME_SLOTS.get(scheme, fallback_index % len(PALETTE))
    return PALETTE[slot]


def _nice_ceiling(value: float) -> float:
    """A 1/2/2.5/5×10^k ceiling ≥ ``value`` (axis max)."""
    if value <= 0:
        return 1.0
    import math

    exponent = math.floor(math.log10(value))
    base = 10.0 ** exponent
    for multiple in (1.0, 2.0, 2.5, 5.0, 10.0):
        if value <= multiple * base:
            return multiple * base
    return 10.0 * base  # pragma: no cover - loop always returns

def _fmt(value: float) -> str:
    """Fixed-precision coordinate/label formatting (deterministic SVG)."""
    return f"{value:.2f}".rstrip("0").rstrip(".")


def _fmt_label(value: float) -> str:
    """Compact direct label for a bar value."""
    if value == 0:
        return "0"
    if abs(value) >= 100_000 or abs(value) < 0.001:
        return f"{value:.2e}"
    if abs(value) >= 100:
        return f"{value:,.0f}"
    return f"{value:.3g}"


def _grouped_bars_svg(
    title: str,
    groups: Sequence[str],
    series: Mapping[str, Sequence[float]],
) -> str:
    """A deterministic grouped-bar SVG (light surface, direct labels)."""
    width, height = 760, 420
    left, right, top, bottom = 64.0, 16.0, 64.0, 72.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    schemes = list(series)
    peak = max(
        (v for values in series.values() for v in values), default=0.0
    )
    y_max = _nice_ceiling(peak)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{width}" height="{height}" fill="{SURFACE}"/>',
        f'<text x="{left}" y="24" font-size="15" font-weight="bold" '
        f'fill="{INK}">{_xml_escape(title)}</text>',
    ]
    # Legend row under the title (legend is always present for >= 2 series).
    x_cursor = left
    for index, scheme in enumerate(schemes):
        color = scheme_color(scheme, index)
        parts.append(
            f'<rect x="{_fmt(x_cursor)}" y="34" width="10" height="10" '
            f'rx="2" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt(x_cursor + 14)}" y="43" font-size="11" '
            f'fill="{INK_MUTED}">{_xml_escape(scheme)}</text>'
        )
        x_cursor += 14 + 7.0 * len(scheme) + 18
    # Recessive horizontal grid + y tick labels.
    for tick in range(5):
        frac = tick / 4
        y = top + plot_h * (1 - frac)
        parts.append(
            f'<line x1="{_fmt(left)}" y1="{_fmt(y)}" '
            f'x2="{_fmt(left + plot_w)}" y2="{_fmt(y)}" '
            f'stroke="{GRID}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(left - 6)}" y="{_fmt(y + 3.5)}" '
            f'font-size="10" text-anchor="end" fill="{INK_MUTED}">'
            f"{_fmt_label(y_max * frac)}</text>"
        )
    # Bars: groups of schemes with a 2px surface gap between neighbours.
    group_w = plot_w / max(len(groups), 1)
    gap = 2.0
    bar_w = max(
        (group_w * 0.78 - gap * (len(schemes) - 1)) / max(len(schemes), 1),
        2.0,
    )
    for g_index, group in enumerate(groups):
        g_left = left + group_w * g_index + group_w * 0.11
        for s_index, scheme in enumerate(schemes):
            value = series[scheme][g_index]
            frac = 0.0 if y_max == 0 else max(value, 0.0) / y_max
            bar_h = plot_h * min(frac, 1.0)
            x = g_left + s_index * (bar_w + gap)
            y = top + plot_h - bar_h
            color = scheme_color(scheme, s_index)
            radius = min(4.0, bar_w / 2, bar_h)
            # Rounded data-end (top) anchored to a square baseline.
            parts.append(
                f'<path d="M{_fmt(x)},{_fmt(y + bar_h)} '
                f"L{_fmt(x)},{_fmt(y + radius)} "
                f"Q{_fmt(x)},{_fmt(y)} {_fmt(x + radius)},{_fmt(y)} "
                f"L{_fmt(x + bar_w - radius)},{_fmt(y)} "
                f"Q{_fmt(x + bar_w)},{_fmt(y)} "
                f"{_fmt(x + bar_w)},{_fmt(y + radius)} "
                f'L{_fmt(x + bar_w)},{_fmt(y + bar_h)} Z" '
                f'fill="{color}"/>'
            )
            # Direct value label (relief for low-contrast palette slots).
            parts.append(
                f'<text x="{_fmt(x + bar_w / 2)}" y="{_fmt(y - 4)}" '
                f'font-size="9" text-anchor="middle" fill="{INK_MUTED}">'
                f"{_fmt_label(value)}</text>"
            )
        parts.append(
            f'<text x="{_fmt(g_left + (bar_w + gap) * len(schemes) / 2)}" '
            f'y="{_fmt(top + plot_h + 18)}" font-size="11" '
            f'text-anchor="middle" fill="{INK}">{_xml_escape(group)}</text>'
        )
    # Baseline axis.
    parts.append(
        f'<line x1="{_fmt(left)}" y1="{_fmt(top + plot_h)}" '
        f'x2="{_fmt(left + plot_w)}" y2="{_fmt(top + plot_h)}" '
        f'stroke="{INK_MUTED}" stroke-width="1"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_grouped_bars(
    path_base: Path,
    title: str,
    groups: Sequence[str],
    series: Mapping[str, Sequence[float]],
) -> Path:
    """Save a grouped-bar chart as ``path_base`` + ``.svg``; returns the path.

    Each scheme's values are ordered like ``groups``.
    """
    for scheme, values in series.items():
        if len(values) != len(groups):
            raise ValueError(
                f"series {scheme!r} has {len(values)} values for "
                f"{len(groups)} groups"
            )
    path_base.parent.mkdir(parents=True, exist_ok=True)
    path = path_base.with_suffix(".svg")
    path.write_text(_grouped_bars_svg(title, groups, series), encoding="utf-8")
    return path
