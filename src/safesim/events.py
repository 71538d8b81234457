"""Daily event generation and the mapping from safety state to unsafe fraction.

Each safety area runs three coupled Poisson streams per day: incidents,
unsafe activities, and safe activities. The split is driven by the latent
safety state theta through xi, the fraction of tasks performed unsafely.
All samplers take an explicit numpy Generator and are pure, so independent
streams can run concurrently and replay bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import N_HURT_LEVELS, SafetyAreaConfig


class DegenerateHurtDistribution(ValueError):
    """No probability mass at or above the requested Hurt level."""


@dataclass(frozen=True)
class DayEvents:
    """Event counts for one area on one day, plus per-incident severities."""

    n_e: int
    n_neg: int
    n_pos: int
    incidents: tuple[tuple[int, int], ...]  # (ahl, phl) per incident, phl >= ahl

    @property
    def n_activities(self) -> int:
        """Safe plus unsafe activities; the pool the observation process sees."""
        return self.n_pos + self.n_neg


def xi_of_theta(theta: float, xi_base: float) -> float:
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


def sample_ahl(rng: np.random.Generator, hl_probs) -> int:
    """Draw an actual Hurt level 0-5 with the area's severity probabilities."""
    u = rng.random()
    acc = 0.0
    for level in range(N_HURT_LEVELS - 1):
        acc += hl_probs[level]
        if u < acc:
            return level
    return N_HURT_LEVELS - 1


def sample_phl(rng: np.random.Generator, hl_probs, ahl: int) -> int:
    """Draw a potential Hurt level >= ahl.

    The severity distribution is truncated below ahl and renormalized over
    the remaining levels.
    """
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


def step_events(rng: np.random.Generator, area: SafetyAreaConfig, xi: float) -> DayEvents:
    """Generate one day of events for one area at unsafe fraction xi.

    Stream order: counts, then all AHLs, then all PHLs. Does not touch
    theta; the intervention step owns the dynamics.
    """
    n_e, n_neg, n_pos = sample_event_counts(rng, area.lambda_star, xi, area.alpha)
    ahls = [sample_ahl(rng, area.hl_probs) for _ in range(n_e)]
    phls = [sample_phl(rng, area.hl_probs, ahl) for ahl in ahls]
    return DayEvents(n_e=n_e, n_neg=n_neg, n_pos=n_pos, incidents=tuple(zip(ahls, phls)))
