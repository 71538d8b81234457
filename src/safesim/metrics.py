"""Ground-truth safety metrics computed analytically from the latent state.

These metrics read the true xi of each area, not the recorded data, so they
benchmark allocation policies against reality rather than against what the
policies themselves observed. Expected daily loss weights the expected
incident count per Hurt level by a loss vector; the tail probability is the
chance of at least one incident at Hurt level 4 or 5 on a given day.

Both depend on xi alone, so the engine evaluates them once per run, over the
run's (days, areas) xi, after the last day. Every function takes xi with
areas on its last axis, or one area's scalar xi.
"""

from __future__ import annotations

import numpy as np

from .scenario import Scenario, ScenarioArrays

SEVERE_AHL = 4  # tail probability counts incidents with AHL >= this level


def expected_hl_count(lambda_star, xi, alpha, p_j):
    """Expected daily count of incidents at one Hurt level: alpha * xi * lambda * p_j."""
    return alpha * xi * lambda_star * p_j


def expected_daily_loss(area, xi, loss_vector):
    """Loss-weighted sum of expected per-level incident counts at xi.

    area is one SafetyAreaConfig with a scalar xi, or a ScenarioArrays with
    xi shaped (..., areas). The levels are added left to right from 0, as a
    Python sum over them would be, one level at a time so that no temporary
    has a levels axis.
    """
    hl_by_level = np.asarray(area.hl_probs, dtype=float).T
    loss = 0.0
    for p_j, c_j in zip(hl_by_level, loss_vector):
        loss = loss + expected_hl_count(area.lambda_star, xi, area.alpha, p_j) * c_j
    return loss


def severe_count(area, xi):
    """Expected daily count of incidents with AHL >= 4, for one area or per area."""
    severe_share = np.asarray(area.hl_probs, dtype=float)[..., SEVERE_AHL:].sum(axis=-1)
    return expected_hl_count(area.lambda_star, xi, area.alpha, severe_share)


def tail_probability(area, xi):
    """Daily probability of an incident with AHL >= 4, for one area or per area.

    Incidents at AHL >= 4 are a Poisson thinning of the area's incidents, so
    their count is Poisson with mean severe_count and the chance of at least
    one is 1 - exp(-severe_count), exactly.
    """
    return -np.expm1(-severe_count(area, xi))


def compute_day_metrics(params: ScenarioArrays, xi) -> tuple[np.ndarray, np.ndarray]:
    """Both metrics per day for xi shaped (..., areas): (expected loss, tail probability).

    Losses add over areas, summed along the last axis, which is contiguous
    for a C-ordered xi such as a run's, so each day's sum is the one a 1-D
    sum over that day's areas gives. Areas are
    independent, so their severe counts add into one Poisson mean and the
    tail is 1 - exp(-sum over areas), the same as 1 - prod(1 - per-area tail).
    """
    loss = expected_daily_loss(params, xi, params.loss_vector)
    return loss.sum(axis=-1), -np.expm1(-severe_count(params, xi).sum(axis=-1))


def baseline_asymptote(scenario: Scenario) -> tuple[float, float]:
    """Metric values in the fully-decayed state (xi = xi_base everywhere).

    This is the limit the no-observation baseline converges to, drawn as the
    dotted line in comparison plots.
    """
    loss, tail = compute_day_metrics(scenario.arrays, scenario.arrays.xi_base)
    return float(loss), float(tail)
