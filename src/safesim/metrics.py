"""Ground-truth safety metrics computed analytically from the latent state.

These metrics read the true xi of each area, not the recorded data, so they
benchmark allocation policies against reality rather than against what the
policies themselves observed. Expected daily loss weights the expected
incident count per Hurt level by a loss vector; the tail probability is the
chance of at least one incident at Hurt level 4 or 5 on a given day.

Both depend on xi alone, so the engine evaluates them after the last day,
over one block of a run's days at a time. xi has areas on its last axis.
"""

from __future__ import annotations

import numpy as np

from .scenario import Scenario, ScenarioArrays

SEVERE_AHL = 4  # tail probability counts incidents with AHL >= this level


def compute_day_metrics(params: ScenarioArrays, xi) -> tuple[np.ndarray, np.ndarray]:
    """Both metrics per day for xi shaped (..., areas): (expected loss, tail probability).

    An area expects alpha * xi * lambda_star incidents a day, a share p_j of
    them at Hurt level j. The loss adds incidents * p_j * c_j over the levels
    left to right from 0, one level at a time so that no temporary has a
    levels axis. It then sums over areas along the last axis, which is
    contiguous for a C-ordered xi such as a run's, so each day's sum is the
    one a 1-D sum over that day's areas gives. Incidents at AHL >= 4 are a
    Poisson thinning of an area's incidents, and areas are independent, so
    their severe counts add into one Poisson mean and the tail is
    1 - exp(-sum over areas), the same as 1 - prod(1 - per-area tail).
    """
    incidents = params.alpha * xi * params.lambda_star
    loss = 0.0
    for p_j, c_j in zip(params.hl_probs.T, params.loss_vector):
        loss = loss + incidents * p_j * c_j
    severe = incidents * params.hl_probs[:, SEVERE_AHL:].sum(axis=-1)
    return loss.sum(axis=-1), -np.expm1(-severe.sum(axis=-1))


def baseline_asymptote(scenario: Scenario) -> tuple[float, float]:
    """Metric values in the fully-decayed state (xi = xi_base everywhere).

    This is the limit the no-observation baseline converges to, drawn as the
    dotted line in comparison plots.
    """
    loss, tail = compute_day_metrics(scenario.arrays, scenario.arrays.xi_base)
    return float(loss), float(tail)
