"""Scalar, one-area-at-a-time versions of the array code in safesim, and
earlier samplers kept as oracles.

The simulator maps severity uniforms to Hurt levels by table lookup and
computes the metrics of all of a run's days as array operations over days
and areas. These are the sequential per-area, per-day forms that code must
match bit for bit (the tail probability to rounding); the tests compare
against them. The observation samplers at the end are the ones the
simulator used before the fixed-weight urn: the tests compare the urn's law
against theirs. Last come the numpy forms of the observers' allocation and
of the proportion check that the simulator now runs on plain lists, and the
observation day that builds its counts as nested lists and converts them to
arrays where the simulator writes them in place; the tests require the same
counts and the same errors.
"""

import math

import numpy as np

from safesim.events import DegenerateHurtDistribution, sample_event_counts
from safesim.metrics import SEVERE_AHL
from safesim.observation import ProportionError, allocate_observers, select_observed
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


def step_events(rng, area, xi: float):
    """One area-day: counts, then each incident's AHL, then each PHL."""
    n_e, n_neg, n_pos = sample_event_counts(rng, area.lambda_star, xi, area.alpha)
    ahls = [sample_ahl(rng, area.hl_probs) for _ in range(n_e)]
    phls = [sample_phl(rng, area.hl_probs, ahl) for ahl in ahls]
    return n_e, n_neg, n_pos, ahls, phls


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
