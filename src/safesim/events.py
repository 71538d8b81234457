"""Daily event generation and the mapping from safety state to unsafe fraction.

Each safety area runs three coupled Poisson streams per day: incidents,
unsafe activities, and safe activities. The split is driven by the latent
safety state theta through xi, the fraction of tasks performed unsafely.
All samplers take an explicit numpy Generator and are pure, so independent
streams can run concurrently and replay bit-identically.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .scenario import SafetyAreaConfig


class DegenerateHurtDistribution(ValueError):
    """No probability mass at or above the requested Hurt level."""


class DayEvents(NamedTuple):
    """Event counts for one area on one day, plus the incidents' severity draws.

    uniforms has shape (2, n_e): row 0 holds the uniforms of the incidents'
    actual Hurt levels, row 1 those of their potential Hurt levels, in the
    order they were drawn. hurt_levels maps them to levels.
    """

    n_e: int
    n_neg: int
    n_pos: int
    uniforms: np.ndarray


NO_DRAWS = np.zeros((2, 0))
NO_DRAWS.flags.writeable = False


def xi_of_theta(theta, xi_base):
    """Unsafe-task fraction implied by safety state theta: (1 - theta) * xi_base."""
    return (1.0 - theta) * xi_base


def sample_event_counts(
    rng: np.random.Generator, lambda_star: float, xi: float, alpha: float
) -> tuple[int, int, int]:
    """Draw one day's (incidents, unsafe, safe) counts.

    The three counts are independent Poissons with means alpha*xi*lambda,
    (1-alpha)*xi*lambda and (1-xi)*lambda, which is distributionally
    identical to thinning a single Poisson(lambda) task count.
    """
    n_e = rng.poisson(alpha * xi * lambda_star)
    n_neg = rng.poisson((1.0 - alpha) * xi * lambda_star)
    n_pos = rng.poisson((1.0 - xi) * lambda_star)
    return int(n_e), int(n_neg), int(n_pos)


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


def hurt_levels(
    hl_sums: np.ndarray, areas: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map incidents' severity uniforms to actual and potential Hurt levels.

    hl_sums is ScenarioArrays.hl_sums, areas the incidents' area indices and
    uniforms their draws, shaped (2, incidents) as in DayEvents. The AHL
    follows the area's severity probabilities; the PHL follows them
    truncated below the AHL and renormalized. Each level is the one a
    sequential draw from the same uniform returns. Both uniforms are mapped
    onto their row's own total, so a row that sums to slightly less than 1
    gives its missing mass to no level.
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


def step_events(rng: np.random.Generator, area: SafetyAreaConfig, xi: float) -> DayEvents:
    """Generate one day of events for one area at unsafe fraction xi.

    Stream order: counts, then all AHL uniforms, then all PHL uniforms, as
    one draw of 2 * n_e, which the generator yields exactly as it would
    2 * n_e single draws. Does not touch theta; the intervention step owns
    the dynamics.
    """
    n_e, n_neg, n_pos = sample_event_counts(rng, area.lambda_star, xi, area.alpha)
    if n_e == 0:
        return DayEvents(0, n_neg, n_pos, NO_DRAWS)
    return DayEvents(n_e, n_neg, n_pos, rng.random(2 * n_e).reshape(2, n_e))
