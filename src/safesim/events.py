"""Daily event generation and the mapping from safety state to unsafe fraction.

Each safety area runs three coupled Poisson streams per day: incidents,
unsafe activities, and safe activities. The split is driven by the latent
safety state theta through xi, the fraction of tasks performed unsafely.
All samplers take an explicit numpy Generator and are pure, so independent
streams can run concurrently and replay bit-identically.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .scenario import N_HURT_LEVELS, SafetyAreaConfig


class DegenerateHurtDistribution(ValueError):
    """No probability mass at or above the requested Hurt level."""


class DayEvents(NamedTuple):
    """Event counts for one area on one day, and the incidents' Hurt levels.

    ahl and phl hold n_e ints each: each incident's actual and potential
    Hurt level, in the order the incidents were drawn. They are lists, or
    the empty tuple on a day without incidents.
    """

    n_e: int
    n_neg: int
    n_pos: int
    ahl: Sequence[int]
    phl: Sequence[int]


HURT_CHUNK = 1 << 16  # incidents whose uniforms step_events turns into floats at once
TOP = N_HURT_LEVELS - 1  # the highest Hurt level


def xi_of_theta(theta, xi_base):
    """Unsafe-task fraction implied by safety state theta: (1 - theta) * xi_base."""
    return (1.0 - theta) * xi_base


def sample_event_counts(
    rng: np.random.Generator, lambda_star: float, xi: float, alpha: float
) -> tuple[int, int, int]:
    """Draw one day's (incidents, unsafe, safe) counts.

    The three counts are independent Poissons with means alpha*xi*lambda,
    (1-alpha)*xi*lambda and (1-xi)*lambda, which is distributionally
    identical to thinning a single Poisson(lambda) task count. Each is a
    Python int, as Generator.poisson returns for a float mean.
    """
    n_e = rng.poisson(alpha * xi * lambda_star)
    n_neg = rng.poisson((1.0 - alpha) * xi * lambda_star)
    n_pos = rng.poisson((1.0 - xi) * lambda_star)
    return n_e, n_neg, n_pos


def step_events(
    rng: np.random.Generator, area: SafetyAreaConfig, xi: float, hl_sums: list[list[float]]
) -> DayEvents:
    """Generate one day of events for one area at unsafe fraction xi.

    Stream order: counts, then all AHL uniforms, then all PHL uniforms, as
    one (2, n_e) draw. The generator fills it row-major, row 0 and then row
    1, with the same doubles as 2 * n_e single draws. Does not touch theta;
    the intervention step owns the dynamics.

    hl_sums holds the area's rows of ScenarioArrays.hl_sums as lists. Each
    level is the one a sequential severity draw from the same uniform
    returns. The AHL follows the area's severity probabilities; the PHL
    follows them truncated below the AHL and renormalized. Both uniforms
    are mapped onto their row's own total, so a row that sums to slightly
    less than 1 gives its missing mass to no level. The uniforms become
    Python floats HURT_CHUNK incidents at a time, which bounds the memory
    of a day with many incidents.
    """
    n_e, n_neg, n_pos = sample_event_counts(rng, area.lambda_star, xi, area.alpha)
    if n_e == 0:
        return DayEvents(0, n_neg, n_pos, (), ())
    uniforms = rng.random((2, n_e))
    ahl, phl = [], []
    sums = hl_sums[0]
    total = sums[-1]
    for start in range(0, n_e, HURT_CHUNK):
        u_ahl, u_phl = uniforms[:, start : start + HURT_CHUNK].tolist()
        for u_a, u_p in zip(u_ahl, u_phl):
            # bisect_right below TOP: the first level whose running sum
            # exceeds the scaled uniform, or TOP if none below it does
            level = bisect_right(sums, u_a * total, 0, TOP)
            row = hl_sums[level]
            tail = row[-1]
            if tail <= 0.0:
                raise DegenerateHurtDistribution(f"no probability mass at Hurt level >= {level}")
            ahl.append(level)
            phl.append(bisect_right(row, u_p * tail, level, TOP))
    return DayEvents(n_e, n_neg, n_pos, ahl, phl)
