"""CSV tables and static SVG plots for simulation results.

CSV is the canonical output; SVG is pure presentation derived from CSV-level
values, so re-rendering a plot from an existing CSV reproduces identical
geometry. Floats are printed with 6 significant digits, counts as integers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import EnsembleSummary, Trajectory
from .metrics import baseline_asymptote
from .scenario import N_HURT_LEVELS, Scenario


def fmt(value) -> str:
    """Canonical CSV cell: integers verbatim, floats with 6 significant digits."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".6g")


def write_trajectory_csv(trajectory: Trajectory, path: str | Path) -> None:
    """One row per day: states, event counts, observation counts, metrics."""
    scenario = trajectory.scenario
    areas = scenario.area_ids
    types = scenario.obs_type_ids
    header = ["day"]
    header += [f"theta_{a}" for a in areas]
    header += [f"xi_{a}" for a in areas]
    header += [f"n_e_{a}" for a in areas]
    header += [f"n_neg_{a}" for a in areas]
    header += [f"n_pos_{a}" for a in areas]
    for type_id in types:
        header += [f"obs_pos_{type_id}_{a}" for a in areas]
        header += [f"obs_neg_{type_id}_{a}" for a in areas]
    header += ["expected_loss", "tail_prob"]

    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        t = trajectory
        obs = np.stack([t.obs_pos, t.obs_neg], axis=2).reshape(t.horizon, -1)  # header order
        for d in range(t.horizon):
            row = [d + 1]
            for per_area in (t.theta, t.xi, t.n_e, t.n_neg, t.n_pos, obs):
                row += list(per_area[d])
            writer.writerow([fmt(v) for v in row + [t.expected_loss[d], t.tail_prob[d]]])


def write_table2_csv(summary: EnsembleSummary, path: str | Path) -> None:
    """Per-area incident-count percentiles, one column triple per Hurt level."""
    header = ["area"]
    for j in range(N_HURT_LEVELS):
        header += [f"ahl{j}_median", f"ahl{j}_p05", f"ahl{j}_p95"]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for a_idx, area_id in enumerate(summary.area_ids):
            row = [area_id]
            for j in range(N_HURT_LEVELS):
                row += [
                    fmt(summary.incident_p50[a_idx, j]),
                    fmt(summary.incident_p05[a_idx, j]),
                    fmt(summary.incident_p95[a_idx, j]),
                ]
            writer.writerow(row)


def write_compare_csv(summary: EnsembleSummary, path: str | Path) -> None:
    """Per-day ensemble mean and standard deviation of both safety metrics."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["day", "mean_expected_loss", "std_expected_loss", "mean_tail_prob", "std_tail_prob"]
        )
        for d in range(summary.horizon):
            writer.writerow(
                [
                    fmt(d + 1),
                    fmt(summary.mean_expected_loss[d]),
                    fmt(summary.std_expected_loss[d]),
                    fmt(summary.mean_tail_prob[d]),
                    fmt(summary.std_tail_prob[d]),
                ]
            )


def read_compare_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Load a compare CSV back into arrays (used to derive the SVG plots)."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    return {
        key: np.array([float(r[key]) for r in rows])
        for key in ("mean_expected_loss", "std_expected_loss", "mean_tail_prob", "std_tail_prob")
    }


def write_severity_csv(rows: list[tuple[str, np.ndarray]], path: str | Path) -> None:
    """Single-run incident counts by AHL (summed over areas), one row per policy."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["policy"] + [f"ahl{j}" for j in range(N_HURT_LEVELS)])
        for name, counts in rows:
            writer.writerow([name] + [fmt(c) for c in counts])


@dataclass(frozen=True)
class PlotSeries:
    """One curve for the SVG renderer: a mean line with a +/-1 std band."""

    label: str
    mean: np.ndarray
    std: np.ndarray
    color: str


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
    series: list[PlotSeries], asymptote: float, title: str, y_label: str
) -> str:
    """Render mean lines with +/-1 std bands plus a dotted asymptote line.

    Pure function of its inputs: identical data yields identical SVG text.
    """
    n_days = max(len(s.mean) for s in series)
    y_max = max(
        max(float((s.mean + s.std).max()) for s in series),
        asymptote,
    )
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
    for s in series:
        if float(s.std.max()) > 0.0:
            days = np.arange(1, len(s.mean) + 1)
            upper = [pt(x_of(d), y_of(m + sd)) for d, m, sd in zip(days, s.mean, s.std)]
            lower = [
                pt(x_of(d), y_of(max(m - sd, 0.0)))
                for d, m, sd in zip(days[::-1], s.mean[::-1], s.std[::-1])
            ]
            parts.append(
                f'<polygon points="{" ".join(upper + lower)}" fill="{s.color}" '
                f'fill-opacity="0.15" stroke="none"/>'
            )
    for s in series:
        days = np.arange(1, len(s.mean) + 1)
        points = " ".join(pt(x_of(d), y_of(m)) for d, m in zip(days, s.mean))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{s.color}" stroke-width="1.8"/>'
        )

    # legend
    legend_x = _ML + plot_w + 16
    legend_y = _MT + 10
    for i, s in enumerate(series):
        y = legend_y + i * 20
        parts.append(
            f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 24}" y2="{y}" '
            f'stroke="{s.color}" stroke-width="2.5"/>'
        )
        parts.append(
            f'<text x="{legend_x + 30}" y="{y + 4}" font-size="12">{s.label}</text>'
        )
    y = legend_y + len(series) * 20
    parts.append(
        f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 24}" y2="{y}" '
        f'stroke="#555555" stroke-width="1.5" stroke-dasharray="5 4"/>'
    )
    parts.append(f'<text x="{legend_x + 30}" y="{y + 4}" font-size="12">asymptote</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_metric_svgs(
    compare_csvs: list[tuple[str, Path]],
    scenario: Scenario,
    out_dir: Path,
) -> None:
    """Derive the two metric plots from already-written compare CSVs."""
    loss_limit, tail_limit = baseline_asymptote(scenario)
    loss_series = []
    tail_series = []
    for i, (label, csv_path) in enumerate(compare_csvs):
        data = read_compare_csv(csv_path)
        color = BASELINE_COLOR if label == "none" else PALETTE[i % len(PALETTE)]
        loss_series.append(
            PlotSeries(label, data["mean_expected_loss"], data["std_expected_loss"], color)
        )
        tail_series.append(
            PlotSeries(label, data["mean_tail_prob"], data["std_tail_prob"], color)
        )
    (out_dir / "expected_loss.svg").write_text(
        render_timeseries_svg(loss_series, loss_limit, "Expected daily loss", "expected loss"),
        encoding="utf-8",
    )
    (out_dir / "tail_probability.svg").write_text(
        render_timeseries_svg(
            tail_series, tail_limit, "Severe-incident tail probability", "tail probability"
        ),
        encoding="utf-8",
    )
