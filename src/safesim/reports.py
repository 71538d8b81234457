"""CSV tables and static SVG plots for simulation results.

CSV is the canonical output; SVG is pure presentation derived from CSV-level
values, so re-rendering a plot from an existing CSV reproduces identical
geometry. Floats are printed with 6 significant digits, counts as integers.
Each table's columns are named once, below, and one writer prints them all.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .engine import EnsembleSummary, Trajectory
from .metrics import baseline_asymptote
from .scenario import N_HURT_LEVELS, Scenario

# trajectory.csv: Trajectory fields, as {field}_{area}, {field}_{type}_{area} and {field}
TRAJECTORY_PER_AREA = ("theta", "xi", "n_e", "n_neg", "n_pos")
TRAJECTORY_PER_TYPE_AREA = ("obs_pos", "obs_neg")
TRAJECTORY_PER_DAY = ("expected_loss", "tail_prob")

# compare_*.csv after "day": EnsembleSummary fields; the plots read mean_{metric}, std_{metric}
COMPARE_COLUMNS = ("mean_expected_loss", "std_expected_loss", "mean_tail_prob", "std_tail_prob")

# table2.csv after "area": per Hurt level j, ahl{j}_{label} holds EnsembleSummary.{field}[:, j]
TABLE2_COLUMNS = (("median", "incident_p50"), ("p05", "incident_p05"), ("p95", "incident_p95"))


def fmt(value) -> str:
    """Canonical CSV cell: text and integers verbatim, floats with 6 significant digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".6g")


def _write_csv(path: str | Path, header, rows) -> None:
    """Write a header and rows of values, each cell through fmt."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def write_trajectory_csv(trajectory: Trajectory, path: str | Path) -> None:
    """One row per day: states, event counts, observation counts, metrics."""
    t = trajectory
    areas = t.scenario.area_ids
    columns = [("day", range(1, t.horizon + 1))]
    for field in TRAJECTORY_PER_AREA:
        columns += [(f"{field}_{a}", getattr(t, field)[:, i]) for i, a in enumerate(areas)]
    for k, type_id in enumerate(t.scenario.obs_type_ids):
        for field in TRAJECTORY_PER_TYPE_AREA:
            values = getattr(t, field)[:, k]
            columns += [(f"{field}_{type_id}_{a}", values[:, i]) for i, a in enumerate(areas)]
    columns += [(field, getattr(t, field)) for field in TRAJECTORY_PER_DAY]
    header, values = zip(*columns)
    _write_csv(path, header, zip(*values))


def write_table2_csv(summary: EnsembleSummary, path: str | Path) -> None:
    """Per-area incident-count percentiles, one column triple per Hurt level."""
    columns = [("area", summary.area_ids)]
    for j in range(N_HURT_LEVELS):
        columns += [(f"ahl{j}_{label}", getattr(summary, f)[:, j]) for label, f in TABLE2_COLUMNS]
    header, values = zip(*columns)
    _write_csv(path, header, zip(*values))


def write_compare_csv(summary: EnsembleSummary, path: str | Path) -> None:
    """Per-day ensemble mean and standard deviation of both safety metrics."""
    values = [range(1, summary.horizon + 1)] + [getattr(summary, c) for c in COMPARE_COLUMNS]
    _write_csv(path, ("day", *COMPARE_COLUMNS), zip(*values))


def read_compare_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Load a compare CSV back into arrays (used to derive the SVG plots)."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    return {key: np.array([float(r[key]) for r in rows]) for key in COMPARE_COLUMNS}


def write_severity_csv(rows: list[tuple[str, np.ndarray]], path: str | Path) -> None:
    """Single-run incident counts by AHL (summed over areas), one row per policy."""
    header = ["policy"] + [f"ahl{j}" for j in range(N_HURT_LEVELS)]
    _write_csv(path, header, ([name, *counts] for name, counts in rows))


PALETTE = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]
BASELINE_COLOR = "#333333"

_SVG_W, _SVG_H = 880, 500
_ML, _MR, _MT, _MB = 72, 190, 46, 54


def _nice_step(raw: float) -> float:
    if raw <= 0:
        return 1.0
    magnitude = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * magnitude:
            return mult * magnitude
    return 10.0 * magnitude


def render_timeseries_svg(
    series: list[tuple], asymptote: float, title: str, y_label: str
) -> str:
    """Render (label, mean, std, color) series as mean lines with +/-1 std
    bands, plus a dotted asymptote line.

    Pure function of its inputs: identical data yields identical SVG text.
    """
    n_days = max(len(mean) for _, mean, _, _ in series)
    y_max = max(max(float((mean + std).max()) for _, mean, std, _ in series), asymptote)
    y_max = y_max * 1.05 if y_max > 0 else 1.0
    plot_w = _SVG_W - _ML - _MR
    plot_h = _SVG_H - _MT - _MB

    def x_of(day: float) -> float:
        if n_days == 1:
            return _ML + plot_w / 2.0
        return _ML + (day - 1.0) / (n_days - 1.0) * plot_w

    def y_of(value: float) -> float:
        return _MT + plot_h - value / y_max * plot_h

    def pt(x: float, y: float) -> str:
        return f"{x:.2f},{y:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="sans-serif">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_ML + plot_w / 2:.2f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
    ]

    # axes and grid
    y_step = _nice_step(y_max / 5.0)
    tick = 0.0
    while tick <= y_max + 1e-12:
        y = y_of(tick)
        parts.append(
            f'<line x1="{_ML}" y1="{y:.2f}" x2="{_ML + plot_w}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" font-size="11">{tick:.6g}</text>'
        )
        tick += y_step
    x_step = max(1, int(_nice_step(n_days / 6.0)))
    for day in [1] + list(range(x_step, n_days + 1, x_step)):
        x = x_of(day)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MT + plot_h}" x2="{x:.2f}" y2="{_MT + plot_h + 5}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MT + plot_h + 20}" text-anchor="middle" font-size="11">{day}</text>'
        )
    parts.append(
        f'<line x1="{_ML}" y1="{_MT + plot_h}" x2="{_ML + plot_w}" y2="{_MT + plot_h}" '
        f'stroke="#333333" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + plot_h}" stroke="#333333" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{_ML + plot_w / 2:.2f}" y="{_SVG_H - 14}" text-anchor="middle" font-size="13">day</text>'
    )
    parts.append(
        f'<text x="20" y="{_MT + plot_h / 2:.2f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 20 {_MT + plot_h / 2:.2f})">{y_label}</text>'
    )

    # asymptote
    y_asym = y_of(asymptote)
    parts.append(
        f'<line x1="{_ML}" y1="{y_asym:.2f}" x2="{_ML + plot_w}" y2="{y_asym:.2f}" '
        f'stroke="#555555" stroke-width="1.5" stroke-dasharray="5 4"/>'
    )

    # bands first so every mean line stays visible
    for _, mean, std, color in series:
        if float(std.max()) > 0.0:
            days = np.arange(1, len(mean) + 1)
            upper = [pt(x_of(d), y_of(m + sd)) for d, m, sd in zip(days, mean, std)]
            lower = [
                pt(x_of(d), y_of(max(m - sd, 0.0)))
                for d, m, sd in zip(days[::-1], mean[::-1], std[::-1])
            ]
            parts.append(
                f'<polygon points="{" ".join(upper + lower)}" fill="{color}" '
                f'fill-opacity="0.15" stroke="none"/>'
            )
    for _, mean, _, color in series:
        days = np.arange(1, len(mean) + 1)
        points = " ".join(pt(x_of(d), y_of(m)) for d, m in zip(days, mean))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )

    # legend
    legend_x = _ML + plot_w + 16
    legend_y = _MT + 10
    for i, (label, _, _, color) in enumerate(series):
        y = legend_y + i * 20
        parts.append(
            f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 24}" y2="{y}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(
            f'<text x="{legend_x + 30}" y="{y + 4}" font-size="12">{label}</text>'
        )
    y = legend_y + len(series) * 20
    parts.append(
        f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 24}" y2="{y}" '
        f'stroke="#555555" stroke-width="1.5" stroke-dasharray="5 4"/>'
    )
    parts.append(f'<text x="{legend_x + 30}" y="{y + 4}" font-size="12">asymptote</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# (metric, file name, title, y label), in the order of baseline_asymptote's limits
_METRIC_PLOTS = (
    ("expected_loss", "expected_loss.svg", "Expected daily loss", "expected loss"),
    ("tail_prob", "tail_probability.svg", "Severe-incident tail probability", "tail probability"),
)


def write_metric_svgs(
    compare_csvs: list[tuple[str, Path]],
    scenario: Scenario,
    out_dir: Path,
) -> None:
    """Derive the two metric plots from already-written compare CSVs."""
    curves = []
    for i, (label, csv_path) in enumerate(compare_csvs):
        color = BASELINE_COLOR if label == "none" else PALETTE[i % len(PALETTE)]
        curves.append((label, read_compare_csv(csv_path), color))
    limits = baseline_asymptote(scenario)
    for (metric, file_name, title, y_label), asymptote in zip(_METRIC_PLOTS, limits):
        series = [
            (label, data[f"mean_{metric}"], data[f"std_{metric}"], color)
            for label, data, color in curves
        ]
        svg = render_timeseries_svg(series, asymptote, title, y_label)
        (out_dir / file_name).write_text(svg, encoding="utf-8")
