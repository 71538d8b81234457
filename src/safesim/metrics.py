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

from .scenario import N_HURT_LEVELS, Scenario, ScenarioArrays

SEVERE_AHL = 4  # tail probability counts incidents with AHL >= this level


@dataclass(frozen=True)
class DayMetrics:
    """Per-area and aggregate metric values for one day."""

    expected_loss_by_area: np.ndarray
    tail_prob_by_area: np.ndarray
    expected_loss: float
    tail_prob: float


def expected_hl_count(lambda_star, xi, alpha, p_j):
    """Expected daily count of incidents at one Hurt level: alpha * xi * lambda * p_j."""
    return alpha * xi * lambda_star * p_j


def expected_daily_loss(area, xi, loss_vector):
    """Loss-weighted sum of expected per-level incident counts at xi.

    area is one SafetyAreaConfig with a scalar xi, or a ScenarioArrays with
    one xi per area. The levels are added left to right from 0, as a Python
    sum over them would be.
    """
    hl_by_level = np.asarray(area.hl_probs, dtype=float).T
    counts = expected_hl_count(area.lambda_star, xi, area.alpha, hl_by_level).T
    # accumulate adds in order from the first term; + 0.0 gives the sum from 0
    # also when every term is -0.0.
    return np.add.accumulate(counts * loss_vector, axis=-1)[..., -1] + 0.0


def ahl_marginal(lambda_star, xi, alpha, hl_probs) -> np.ndarray:
    """P(an incident with AHL=j occurs today) for each level j (last axis).

    Each entry is (1 - exp(-lambda * alpha * xi)) * p_j. For j >= 1 this is
    exact under the generative model. The j=0 entry uses the same factor and
    should be read as the probability that at least one incident occurs and
    a single incident would land at level 0; neither shipped metric uses it.
    The arguments are one area's scalars, or arrays over areas.
    """
    exponent = np.asarray(-lambda_star * alpha * xi, dtype=float)
    # math.exp, not np.exp: the two differ in the last place on some inputs.
    factor = 1.0 - np.array([math.exp(x) for x in exponent.ravel().tolist()])
    return (factor * np.asarray(hl_probs, dtype=float).T).T


def tail_probability(area, xi):
    """Daily probability of an incident with AHL >= 4, for one area or per area."""
    marginal = ahl_marginal(area.lambda_star, xi, area.alpha, area.hl_probs)
    tail = marginal[..., SEVERE_AHL]
    for j in range(SEVERE_AHL + 1, N_HURT_LEVELS):
        tail = tail + marginal[..., j]
    return tail


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
        tail_prob=float(1.0 - (1.0 - tails).prod()),
    )


def compute_day_metrics(params: ScenarioArrays, xi) -> DayMetrics:
    """Evaluate both metrics for every area at the given unsafe fractions."""
    return aggregate_metrics(
        expected_daily_loss(params, xi, params.loss_vector), tail_probability(params, xi)
    )


def baseline_asymptote(scenario: Scenario) -> tuple[float, float]:
    """Metric values in the fully-decayed state (xi = xi_base everywhere).

    This is the limit the no-observation baseline converges to, drawn as the
    dotted line in comparison plots.
    """
    limit = compute_day_metrics(scenario.arrays, scenario.arrays.xi_base)
    return limit.expected_loss, limit.tail_prob
