"""Safety-state update: feedback from observed unsafe events, or decay.

On a day with positive feedback drive the safety state theta moves toward 1
by a fraction of the remaining headroom; on any other day it decays
geometrically toward 0. The two paths are mutually exclusive within a
timestep.
"""

from __future__ import annotations

from .scenario import SafetyAreaConfig, Scenario


def decay_theta(theta: float, k_decay: float) -> float:
    """One day of complacency decay: k_decay * theta."""
    return k_decay * theta


def apply_feedback(theta: float, drive: float) -> float:
    """theta + (1 - theta) * drive, clamped to [0, 1].

    The drive can exceed 1 for large count * delta products; clamping keeps
    theta a valid fraction.
    """
    return min(1.0, max(0.0, theta + (1.0 - theta) * drive))


def step_theta(
    theta: float,
    area: SafetyAreaConfig,
    n_neg_obs_by_type,
    n_e: int,
    scenario: Scenario,
) -> float:
    """Advance theta one day: feedback if the drive is positive, else decay.

    The drive is sum_X n_obs_X * delta_X + n_e * delta_e. The branch
    condition is the drive, not the raw event count: with delta_e = 0 an
    unobserved incident does not block decay.
    """
    drive = (
        float(sum(n * t.delta_neg for n, t in zip(n_neg_obs_by_type, scenario.obs_types)))
        + n_e * scenario.delta_e
    )
    if drive > 0.0:
        return apply_feedback(theta, drive)
    return decay_theta(theta, area.k_decay)
