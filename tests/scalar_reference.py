"""Scalar, one-area-at-a-time versions of the array code in safesim, and
earlier samplers kept as oracles.

The simulator draws each replication's potential tasks a block of days
ahead, maps the potential incidents' severity uniforms to Hurt levels by
comparison with their area's running sums, classifies a day's tasks as
array operations over the batch, and computes the metrics of all of a
run's days as array operations over days and areas. These are the
sequential per-task, per-area and per-day forms that code must match bit
for bit (the tail probability to rounding); the direct three-Poisson
sampler, sample_event_counts, whose law the thinned counts must match and
with which PerTaskEnvironment draws its potential counts; and the numpy
table lookup that mapped a whole day's incidents before; the tests compare
against them. The observation samplers at the end are the ones the
simulator used before the fixed-weight urn: the tests compare the urn's law
against theirs. Beside them is the urn that recomputes its remaining counts
from the pick index, which the simulator's urn must match exactly. Last come the numpy forms of the observers' allocation and
of the proportion check that the simulator now runs on plain lists, and the
observation day that builds its counts as nested lists and converts them to
arrays where the simulator writes them in place; the tests require the same
counts and the same errors. At the very end is the plot renderer that
computes and formats one point at a time on numpy scalars; the simulator's
renderer, which works on whole series, must give its exact text.
"""

import math

import numpy as np

from safesim.events import DegenerateHurtDistribution
from safesim.metrics import SEVERE_AHL
from safesim.observation import ProportionError, allocate_observers, select_observed
from safesim.reports import _MB, _ML, _MR, _MT, _SVG_H, _SVG_W, _nice_step
from safesim.scenario import N_HURT_LEVELS, PROB_TOL


def sample_ahl(rng, hl_probs) -> int:
    """Draw an actual Hurt level 0-5 with the area's severity probabilities,
    taken relative to their own total."""
    u = rng.random() * sum(hl_probs)
    acc = 0.0
    for level in range(N_HURT_LEVELS - 1):
        acc += hl_probs[level]
        if u < acc:
            return level
    return N_HURT_LEVELS - 1


def sample_phl(rng, hl_probs, ahl: int) -> int:
    """Draw a potential Hurt level >= ahl from the truncated, renormalized tail."""
    tail = sum(hl_probs[ahl:])
    if tail <= 0.0:
        raise DegenerateHurtDistribution(f"no probability mass at Hurt level >= {ahl}")
    u = rng.random() * tail
    acc = 0.0
    for level in range(ahl, N_HURT_LEVELS - 1):
        acc += hl_probs[level]
        if u < acc:
            return level
    return N_HURT_LEVELS - 1


def sample_event_counts(rng: np.random.Generator, lambda_star, xi, alpha):
    """Draw (incidents, unsafe, safe) counts: all incidents, then all unsafe, then all safe.

    The three counts are independent Poissons with means alpha*xi*lambda,
    (1-alpha)*xi*lambda and (1-xi)*lambda, which is distributionally
    identical to thinning a single Poisson(lambda) task count. For float
    arguments each is a Python int, as Generator.poisson returns for a float
    mean; for arrays, an int64 array of their broadcast shape.
    """
    n_e = rng.poisson(alpha * xi * lambda_star)
    n_neg = rng.poisson((1.0 - alpha) * xi * lambda_star)
    n_pos = rng.poisson((1.0 - xi) * lambda_star)
    return n_e, n_neg, n_pos


def three_poisson_day(rng, area, xi: float):
    """One area-day of the three-Poisson sampler at unsafe fraction xi:
    counts, then each incident's AHL, then each PHL."""
    n_e, n_neg, n_pos = sample_event_counts(rng, area.lambda_star, xi, area.alpha)
    ahls = [sample_ahl(rng, area.hl_probs) for _ in range(n_e)]
    phls = [sample_phl(rng, area.hl_probs, ahl) for ahl in ahls]
    return n_e, n_neg, n_pos, ahls, phls


class PerTaskEnvironment:
    """Stream contract 3 for one replication, one task at a time.

    At the start of each block of n_days days it draws from rng the
    potential counts (sample_event_counts at xi_base, shaped (days, areas)),
    then one thinning uniform per potential incident, then every potential
    incident's AHL and then every PHL by sequential severity draws, then one
    thinning uniform per potential unsafe task, each in day, area and draw
    order. day(theta) classifies the next day's tasks one by one.
    """

    def __init__(self, rng, scenario, n_days: int):
        self.rng, self.scenario, self.n_days = rng, scenario, n_days
        self.pending = []

    def draw_block(self):
        rng, areas, arrays = self.rng, self.scenario.areas, self.scenario.arrays
        lam = np.broadcast_to(arrays.lambda_star, (self.n_days, len(areas)))
        potential, unsafe, safe = sample_event_counts(rng, lam, arrays.xi_base, arrays.alpha)
        cells = [(b, a) for b in range(self.n_days) for a in range(len(areas))]
        u_e = [[rng.random() for _ in range(potential[c])] for c in cells]
        ahl = [[sample_ahl(rng, areas[a].hl_probs) for _ in range(potential[b, a])] for b, a in cells]
        phl = [
            [sample_phl(rng, areas[a].hl_probs, level) for level in levels]
            for (_, a), levels in zip(cells, ahl)
        ]
        u_g = [[rng.random() for _ in range(unsafe[c])] for c in cells]
        tasks = [
            (list(zip(*cell)), u, int(safe[c]))
            for c, cell, u in zip(cells, zip(u_e, ahl, phl), u_g)
        ]
        n_areas = len(areas)
        self.pending += [tasks[b * n_areas : (b + 1) * n_areas] for b in range(self.n_days)]

    def day(self, theta):
        """The next day at start-of-day theta per area: (n_e, n_neg, n_pos)
        per area and the incident rows (area, ahl, phl) in log order."""
        if not self.pending:
            self.draw_block()
        n_e, n_neg, n_pos, rows = [], [], [], []
        for a, (incidents, unsafe, safe) in enumerate(self.pending.pop(0)):
            keep = 1.0 - theta[a]
            real = [(a, ahl, phl) for u, ahl, phl in incidents if u < keep]
            neg = sum(u < keep for u in unsafe)
            n_e.append(len(real))
            n_neg.append(neg)
            n_pos.append(safe + len(incidents) - len(real) + len(unsafe) - neg)
            rows += real
        return n_e, n_neg, n_pos, rows


def hurt_level(u: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """The level a sequential severity draw returns for each uniform in u.

    Such a draw adds the probabilities one level at a time and returns the
    first level whose running sum exceeds u, or the top level if no level
    below it does. sums holds those running sums (rows of
    ScenarioArrays.hl_sums), one row per uniform or one row for all of u.
    """
    below = u[:, None] < sums
    below[:, -1] = True
    return below.argmax(axis=1)


def hurt_levels(hl_sums: np.ndarray, areas: np.ndarray, uniforms: np.ndarray):
    """Map incidents' severity uniforms to (AHL, PHL) arrays by table lookup.

    hl_sums is ScenarioArrays.hl_sums, areas the incidents' area indices and
    uniforms their draws, shaped (2, incidents): row 0 the AHL uniforms, row
    1 the PHL uniforms. Each uniform is mapped onto its row's own total.
    """
    u_ahl, u_phl = uniforms
    sums = hl_sums[areas, 0]
    ahl = hurt_level(u_ahl * sums[:, -1], sums)
    rows = hl_sums[areas, ahl]
    tail = rows[:, -1]
    empty = tail <= 0.0
    if empty.any():
        raise DegenerateHurtDistribution(
            f"no probability mass at Hurt level >= {ahl[empty.argmax()]}"
        )
    return ahl, hurt_level(u_phl * tail, rows)


def expected_daily_loss(area, xi: float, loss_vector) -> float:
    return sum(
        c_j * (area.alpha * xi * area.lambda_star * p_j)
        for c_j, p_j in zip(loss_vector, area.hl_probs)
    )


def severe_count(area, xi: float) -> float:
    return area.alpha * xi * area.lambda_star * sum(area.hl_probs[SEVERE_AHL:])


def compute_day_metrics(scenario, xi):
    """One day's (expected loss, tail probability), one area at a time.

    The per-area losses and severe-incident counts are each added over the
    day's areas by one 1-D numpy sum.
    """
    areas = list(zip(scenario.areas, xi))
    losses = np.array([expected_daily_loss(a, x, scenario.loss_vector) for a, x in areas])
    severe = np.array([severe_count(a, x) for a, x in areas])
    return losses.sum(), -math.expm1(-severe.sum())


def allocate_observers_multinomial(rng, m: int, s) -> np.ndarray:
    """Distribute m observers over areas: one multinomial draw with proportions s."""
    if m == 0:
        return np.zeros(len(s), dtype=int)
    return rng.multinomial(m, s)


def select_observed_dirichlet(rng, n_pos, n_neg, capacity, eta_pos, eta_neg) -> tuple[int, int]:
    """Record min(capacity, n_pos + n_neg) events by a Dirichlet draw of
    per-event weights (eta_pos per safe event, eta_neg per unsafe one), then
    an exponential race, which picks without replacement in proportion to
    the remaining weights. The weights are floored at the smallest normal
    float, so at small eta they underflow and ties go to the safe events."""
    total = n_pos + n_neg
    if total == 0 or capacity <= 0:
        return 0, 0
    if capacity >= total:
        return n_pos, n_neg
    conc = np.array((eta_pos, eta_neg)).repeat((n_pos, n_neg))
    weights = np.maximum(rng.dirichlet(conc), np.finfo(float).tiny)
    keys = rng.exponential(size=total) / weights
    chosen = np.argpartition(keys, capacity)[:capacity]
    obs_neg = int(np.count_nonzero(chosen >= n_pos))
    return capacity - obs_neg, obs_neg


def select_observed_by_pick_index(u, n_pos, n_neg, capacity, eta_pos, eta_neg) -> tuple[int, int]:
    """The fixed-weight urn with the remaining counts of pick k recomputed
    from k and the unsafe picks so far, and the same float test per pick."""
    total = n_pos + n_neg
    if total == 0 or capacity <= 0:
        return 0, 0
    if capacity >= total:
        return n_pos, n_neg
    ratio = eta_pos / eta_neg
    neg = 0
    for k in range(capacity):
        r_neg = n_neg - neg
        r_pos = n_pos - k + neg
        if r_pos == 0:
            neg = capacity - n_pos
            break
        if r_neg == 0:
            break
        if u[k] * (r_neg + r_pos * ratio) < r_neg:
            neg += 1
    return capacity - neg, neg


def allocate_observers_numpy(u, s) -> np.ndarray:
    """Categorical inversion of s, one observer per uniform, as numpy calls."""
    cumulative = np.cumsum(s)
    areas = np.searchsorted(cumulative, u * cumulative[-1], side="right")
    return np.bincount(areas, minlength=len(s))


def check_proportions(s, n_areas: int) -> np.ndarray:
    """The proportion check as four separate tests, each with its own message."""
    s = np.asarray(s, dtype=float)
    if s.shape != (n_areas,):
        raise ProportionError(f"expected {n_areas} proportions, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ProportionError("proportions must be finite")
    if np.any(s < 0.0):
        raise ProportionError("proportions must be nonnegative")
    with np.errstate(over="ignore"):  # finite entries can still sum to inf
        total = float(s.sum())
    if abs(total - 1.0) > PROB_TOL:
        raise ProportionError(f"proportions must sum to 1, got {total}")
    return s


def step_observations(u, scenario, n_pos, n_neg, proportions_by_type):
    """One observation day over every type and area, from a dict of proportion
    vectors keyed by type id; returns (obs_pos, obs_neg), each indexed
    [obs_type, area]."""
    n_areas = scenario.n_areas
    u = u.tolist()
    obs_pos, obs_neg = [], []
    start = 0
    for obs_type in scenario.obs_types:
        s = check_proportions(proportions_by_type[obs_type.id], n_areas).tolist()
        m, rho = obs_type.m, obs_type.rho
        q = allocate_observers(u[start : start + m], s)
        start += m
        pos, neg = [0] * n_areas, [0] * n_areas
        for a_idx, observers in enumerate(q):
            if not observers:
                continue
            capacity = rho * observers
            end = start + capacity
            if n_pos[a_idx] + n_neg[a_idx]:
                pos[a_idx], neg[a_idx] = select_observed(
                    u[start:end],
                    n_pos[a_idx],
                    n_neg[a_idx],
                    capacity,
                    obs_type.eta_pos,
                    obs_type.eta_neg,
                )
            start = end
        obs_pos.append(pos)
        obs_neg.append(neg)
    shape = (len(scenario.obs_types), n_areas)
    return np.array(obs_pos, dtype=int).reshape(shape), np.array(obs_neg, dtype=int).reshape(shape)


def render_timeseries_svg(
    series: list[tuple], asymptote: float, title: str, y_label: str
) -> str:
    """The metric plot with one x_of, y_of and pt call per point, on the
    numpy scalars of the series' days, means and standard deviations."""
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
