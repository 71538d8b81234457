"""Safety-state update: feedback from observed unsafe events, or decay.

On a day with positive feedback drive the safety state theta moves toward 1
by a fraction of the remaining headroom; on any other day it decays
geometrically toward 0. The two paths are mutually exclusive within a
timestep.
"""

from __future__ import annotations

import numpy as np

from .scenario import Scenario


def apply_feedback(theta: float, drive: float) -> float:
    """theta + (1 - theta) * drive, clamped to [0, 1].

    The drive can exceed 1 for large count * delta products; clamping keeps
    theta a valid fraction.
    """
    return min(1.0, max(0.0, theta + (1.0 - theta) * drive))


def feedback_drive(n_neg_obs_by_type, n_e, scenario: Scenario):
    """The drive sum_X n_obs_X * delta_X + n_e * delta_e, per area.

    n_neg_obs_by_type is indexed [obs_type, ...] in config order, with a
    count for one area or counts over areas after the type; it is empty
    when the scenario has no observation types. The type terms are added left to right, then
    the incident term. No term is negative, so the result has the bits of a
    Python sum from 0.0 over the terms.
    """
    incident = n_e * scenario.delta_e
    if len(n_neg_obs_by_type) == 0:
        return incident
    n_obs = np.asarray(n_neg_obs_by_type)
    deltas = scenario.arrays.delta_neg.reshape((-1,) + (1,) * (n_obs.ndim - 1))
    return np.add.accumulate(n_obs * deltas, axis=0)[-1] + incident


def step_theta(theta: float, drive: float, k_decay: float) -> float:
    """Advance one area's theta one day: feedback if the drive is positive, else decay.

    The branch condition is the drive, not the raw event count: with
    delta_e = 0 an unobserved incident does not block decay.
    """
    if drive > 0.0:
        return apply_feedback(theta, drive)
    return k_decay * theta
