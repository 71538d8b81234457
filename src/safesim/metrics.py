"""Ground-truth safety metrics computed analytically from the latent state.

These metrics read the true xi of each area, not the recorded data, so they
benchmark allocation policies against reality rather than against what the
policies themselves observed. Expected daily loss weights the expected
incident count per Hurt level by a loss vector; the tail probability is the
chance of at least one incident at Hurt level 4 or 5 on a given day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import SafetyAreaConfig, Scenario

SEVERE_AHL = 4  # tail probability counts incidents with AHL >= this level


@dataclass(frozen=True)
class DayMetrics:
    """Per-area and aggregate metric values for one day."""

    expected_loss_by_area: np.ndarray
    tail_prob_by_area: np.ndarray
    expected_loss: float
    tail_prob: float


def expected_hl_count(lambda_star: float, xi: float, alpha: float, p_j: float) -> float:
    """Expected daily count of incidents at one Hurt level: alpha * xi * lambda * p_j."""
    return alpha * xi * lambda_star * p_j


def expected_daily_loss(area: SafetyAreaConfig, xi: float, loss_vector) -> float:
    """Loss-weighted sum of expected per-level incident counts for one area at xi."""
    return sum(
        c_j * expected_hl_count(area.lambda_star, xi, area.alpha, p_j)
        for c_j, p_j in zip(loss_vector, area.hl_probs)
    )


def ahl_marginal(lambda_star: float, xi: float, alpha: float, hl_probs) -> np.ndarray:
    """P(an incident with AHL=j occurs today) for each level j.

    Each entry is (1 - exp(-lambda * alpha * xi)) * p_j. For j >= 1 this is
    exact under the generative model. The j=0 entry uses the same factor and
    should be read as the probability that at least one incident occurs and
    a single incident would land at level 0; neither shipped metric uses it.
    """
    factor = 1.0 - math.exp(-lambda_star * alpha * xi)
    return factor * np.asarray(hl_probs, dtype=float)


def tail_probability(area: SafetyAreaConfig, xi: float) -> float:
    """Daily probability of an incident with AHL >= 4 in one area at xi."""
    marginal = ahl_marginal(area.lambda_star, xi, area.alpha, area.hl_probs)
    return float(marginal[SEVERE_AHL:].sum())


def aggregate_metrics(expected_losses, tail_probs) -> DayMetrics:
    """Combine per-area values: losses add; tails combine as 1 - prod(1 - p).

    Areas are simulated independently, so the complement product is the
    probability that at least one severe incident happens somewhere; a plain
    sum could exceed 1.
    """
    losses = np.asarray(expected_losses, dtype=float)
    tails = np.asarray(tail_probs, dtype=float)
    return DayMetrics(
        expected_loss_by_area=losses,
        tail_prob_by_area=tails,
        expected_loss=float(losses.sum()),
        tail_prob=float(1.0 - np.prod(1.0 - tails)),
    )


def compute_day_metrics(scenario: Scenario, xi) -> DayMetrics:
    """Evaluate both metrics for every area at the given unsafe fractions."""
    return aggregate_metrics(
        [expected_daily_loss(a, x, scenario.loss_vector) for a, x in zip(scenario.areas, xi)],
        [tail_probability(a, x) for a, x in zip(scenario.areas, xi)],
    )


def baseline_asymptote(scenario: Scenario) -> tuple[float, float]:
    """Metric values in the fully-decayed state (xi = xi_base everywhere).

    This is the limit the no-observation baseline converges to, drawn as the
    dotted line in comparison plots.
    """
    limit = compute_day_metrics(scenario, [area.xi_base for area in scenario.areas])
    return limit.expected_loss, limit.tail_prob
