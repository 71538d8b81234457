"""CSV tables and static SVG plots for simulation results.

CSV is the canonical output. Floats are printed with 6 significant digits,
counts as integers. The SVG plots draw each value as its CSV cell reads, so
rendering the compare CSVs' columns reproduces them byte for byte. Each
table's columns are named once, below, and one writer prints them all. The
writer takes columns and turns each array into Python numbers once; a plot
computes a series' coordinates in one array operation and formats each day's
x once for all its series.
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

# compare_*.csv after "day": EnsembleSummary fields; the plots draw mean_{metric}, std_{metric}
COMPARE_COLUMNS = ("mean_expected_loss", "std_expected_loss", "mean_tail_prob", "std_tail_prob")

# table2.csv after "area": per Hurt level j, ahl{j}_{label} holds EnsembleSummary.{field}[:, j]
TABLE2_COLUMNS = (("median", "incident_p50"), ("p05", "incident_p05"), ("p95", "incident_p95"))


def fmt(value) -> str:
    """Canonical CSV cell: text and integers verbatim, floats with 6 significant digits."""
    if isinstance(value, float):  # first: most cells are floats
        return format(value, ".6g")
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".6g")


def _write_csv(path: str | Path, header, columns) -> None:
    """Write a header and equal-length columns of values, each cell through fmt."""
    cells = [[fmt(v) for v in np.asarray(column).tolist()] for column in columns]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def write_trajectory_csv(trajectory: Trajectory, path: str | Path) -> None:
    """One row per day: states, event counts, observation counts, metrics."""
    t = trajectory
    areas = t.scenario.area_ids
    columns = [("day", range(1, t.horizon + 1))]
    for field in TRAJECTORY_PER_AREA:
        values = getattr(t, field)  # read once: xi is computed from theta on each read
        columns += [(f"{field}_{a}", values[:, i]) for i, a in enumerate(areas)]
    for k, type_id in enumerate(t.scenario.obs_type_ids):
        for field in TRAJECTORY_PER_TYPE_AREA:
            values = getattr(t, field)[:, k]
            columns += [(f"{field}_{type_id}_{a}", values[:, i]) for i, a in enumerate(areas)]
    columns += [(field, getattr(t, field)) for field in TRAJECTORY_PER_DAY]
    _write_csv(path, *zip(*columns))


def write_table2_csv(summary: EnsembleSummary, path: str | Path) -> None:
    """Per-area incident-count percentiles, one column triple per Hurt level."""
    columns = [("area", summary.area_ids)]
    for j in range(N_HURT_LEVELS):
        columns += [(f"ahl{j}_{label}", getattr(summary, f)[:, j]) for label, f in TABLE2_COLUMNS]
    _write_csv(path, *zip(*columns))


def write_compare_csv(summary: EnsembleSummary, path: str | Path) -> None:
    """Per-day ensemble mean and standard deviation of both safety metrics."""
    values = [range(1, summary.horizon + 1)] + [getattr(summary, c) for c in COMPARE_COLUMNS]
    _write_csv(path, ("day", *COMPARE_COLUMNS), values)


def write_severity_csv(summaries: list[tuple[str, EnsembleSummary]], path: str | Path) -> None:
    """One row per compare (spec, summary) pair: the base seed's incidents by AHL, summed over areas."""
    header = ["policy"] + [f"ahl{j}" for j in range(N_HURT_LEVELS)]
    counts = [summary.incident_totals[0].sum(axis=0) for _, summary in summaries]
    _write_csv(path, header, [[spec for spec, _ in summaries], *np.transpose(counts)])


PALETTE = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]
BASELINE_COLOR = "#333333"
_ASYMPTOTE_STROKE = 'stroke="#555555" stroke-width="1.5" stroke-dasharray="5 4"'
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})  # a label as SVG text

_SVG_W, _SVG_H = 880, 500
_ML, _MR, _MT, _MB = 72, 190, 46, 54
_PLOT_W, _PLOT_H = _SVG_W - _ML - _MR, _SVG_H - _MT - _MB


def _nice_step(raw: float) -> float:
    if raw <= 0:
        return 1.0
    magnitude = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * magnitude:
            return mult * magnitude
    return 10.0 * magnitude


def _plot_x(days, n_days: int) -> list[float]:
    """x of each day: days 1 and n_days at the plot's edges, a single day at its centre."""
    if n_days == 1:
        return [_ML + _PLOT_W / 2.0] * len(days)
    return (_ML + (np.asarray(days) - 1.0) / (n_days - 1.0) * _PLOT_W).tolist()


def _plot_y(values, y_max: float) -> list[float]:
    """y of each value: 0 on the x axis, y_max at the plot's top."""
    return (_MT + _PLOT_H - np.asarray(values) / y_max * _PLOT_H).tolist()


def _points(x_text: list[str], values, y_max: float) -> str:
    """An SVG points list: day i's text x_text[i], paired with the y of values[i] (2 decimals)."""
    return " ".join([f"{x},{y:.2f}" for x, y in zip(x_text, _plot_y(values, y_max))])


def render_timeseries_svg(series: list[tuple], asymptote: float, title: str, y_label: str) -> str:
    """Render (label, mean, std, color) series as mean lines with +/-1 std
    bands, plus a dotted asymptote line.

    Pure function of its inputs: identical data yields identical SVG text.
    """
    n_days = max(len(mean) for _, mean, _, _ in series)
    y_max = max(max(float((mean + std).max()) for _, mean, std, _ in series), asymptote)
    y_max = y_max * 1.05 if y_max > 0 else 1.0
    bottom, right = _MT + _PLOT_H, _ML + _PLOT_W

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="sans-serif">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_ML + _PLOT_W / 2:.2f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
    ]

    # axes and grid
    y_step = _nice_step(y_max / 5.0)
    y_ticks = [0.0]
    while y_ticks[-1] + y_step <= y_max + 1e-12:
        y_ticks.append(y_ticks[-1] + y_step)
    for tick, y in zip(y_ticks, _plot_y(y_ticks, y_max)):
        parts.append(
            f'<line x1="{_ML}" y1="{y:.2f}" x2="{right}" y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" font-size="11">{tick:.6g}</text>'
        )
    x_step = max(1, int(_nice_step(n_days / 6.0)))
    x_ticks = [1] + list(range(x_step, n_days + 1, x_step))
    for day, x in zip(x_ticks, _plot_x(x_ticks, n_days)):
        parts.append(
            f'<line x1="{x:.2f}" y1="{bottom}" x2="{x:.2f}" y2="{bottom + 5}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{bottom + 20}" text-anchor="middle" font-size="11">{day}</text>'
        )
    parts.append(
        f'<line x1="{_ML}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="#333333" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{bottom}" stroke="#333333" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{_ML + _PLOT_W / 2:.2f}" y="{_SVG_H - 14}" text-anchor="middle" font-size="13">day</text>'
    )
    parts.append(
        f'<text x="20" y="{_MT + _PLOT_H / 2:.2f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 20 {_MT + _PLOT_H / 2:.2f})">{y_label}</text>'
    )

    # asymptote
    (y_asym,) = _plot_y([asymptote], y_max)
    parts.append(f'<line x1="{_ML}" y1="{y_asym:.2f}" x2="{right}" y2="{y_asym:.2f}" {_ASYMPTOTE_STROKE}/>')

    # bands first so every mean line stays visible; x of day d is x_text[d - 1]
    x_text = [f"{x:.2f}" for x in _plot_x(range(1, n_days + 1), n_days)]
    for _, mean, std, color in series:
        if float(std.max()) > 0.0:
            upper = _points(x_text, mean + std, y_max)
            lower = _points(x_text[len(mean) - 1 :: -1], np.maximum(mean - std, 0.0)[::-1], y_max)
            parts.append(
                f'<polygon points="{upper} {lower}" fill="{color}" fill-opacity="0.15" stroke="none"/>'
            )
    for _, mean, _, color in series:
        points = _points(x_text, mean, y_max)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )

    # legend: one entry per series, then the asymptote's; each label escaped as XML text
    legend = [(label, f'stroke="{color}" stroke-width="2.5"') for label, _, _, color in series]
    legend.append(("asymptote", _ASYMPTOTE_STROKE))
    legend_x = right + 16
    for i, (label, stroke) in enumerate(legend):
        y = _MT + 10 + i * 20
        parts.append(f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 24}" y2="{y}" {stroke}/>')
        parts.append(f'<text x="{legend_x + 30}" y="{y + 4}" font-size="12">{label.translate(_XML_TEXT)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# (metric, file name, title, y label), in the order of baseline_asymptote's limits
_METRIC_PLOTS = (
    ("expected_loss", "expected_loss.svg", "Expected daily loss", "expected loss"),
    ("tail_prob", "tail_probability.svg", "Severe-incident tail probability", "tail probability"),
)


def write_metric_svgs(
    summaries: list[tuple[str, EnsembleSummary]],
    scenario: Scenario,
    out_dir: Path,
) -> list[Path]:
    """Draw the two metric plots of compare's (spec, summary) pairs, in order,
    each value as its CSV cell reads (float(fmt(v))); returns their paths."""
    curves = []
    for i, (label, summary) in enumerate(summaries):
        color = BASELINE_COLOR if label == "none" else PALETTE[i % len(PALETTE)]
        data = {c: np.array([float(fmt(v)) for v in getattr(summary, c).tolist()]) for c in COMPARE_COLUMNS}
        curves.append((label, data, color))
    limits = baseline_asymptote(scenario)
    paths = [out_dir / file_name for _, file_name, _, _ in _METRIC_PLOTS]
    for (metric, _, title, y_label), asymptote, path in zip(_METRIC_PLOTS, limits, paths):
        series = [
            (label, data[f"mean_{metric}"], data[f"std_{metric}"], color)
            for label, data, color in curves
        ]
        path.write_text(render_timeseries_svg(series, asymptote, title, y_label), encoding="utf-8")
    return paths
