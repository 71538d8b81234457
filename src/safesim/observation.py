"""Observer allocation and biased recording of safe/unsafe events.

Observers of each type are spread over safety areas by a policy-supplied
proportion vector, then each (type, area) cell records at most
rho * observers events out of that area's daily activity pool. Incidents
bypass this module entirely; they are always recorded.

Which events a cell records follows the paper's recording bias: each safe
event carries weight eta_pos and each unsafe event weight eta_neg, and the
cell's record is drawn from the Dirichlet with those concentrations. The
Dirichlet is neutral (Connor & Mosimann, JASA 64, 1969): once an event is
picked, the remaining weights, renormalized, are again Dirichlet with the
picked event's concentration removed. So the record has the law of sampling
without replacement with fixed weights: each pick is unsafe with probability
r_neg * eta_neg / (r_pos * eta_pos + r_neg * eta_neg), where r_pos and r_neg
are the events of each class not yet picked. The unsafe count is then
Wallenius' noncentral hypergeometric (Fog, Comm. Stat. Sim. Comp. 37(2),
2008), and the central hypergeometric when eta_pos == eta_neg.
select_observed draws that urn directly, one uniform per pick.

step_observations takes in a replication's decision, then draws the day's
uniforms from the observer stream it is handed; every other function here
is a deterministic map of the uniforms it is given.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping, Sequence
from itertools import accumulate

import numpy as np

from .scenario import PROB_TOL, Scenario


class ProportionError(ValueError):
    """An allocation proportion vector is malformed, or a type has none."""


def check_proportions(s: Sequence[float], n_areas: int) -> list[float]:
    """Validate an allocation proportion vector; returns its entries as floats.

    On the list the allocation reads, in turn: the shape, the minimum, then
    the last running sum, the total that allocate_observers scales by. A NaN
    or an infinity fails the minimum or the total (a float sum overflows to
    inf without a warning), so only a vector that has failed is tested for
    finiteness, which then sets the message.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (n_areas,):
        raise ProportionError(f"expected {n_areas} proportions, got shape {s.shape}")
    values = s.tolist()
    *_, total = accumulate(values, initial=0.0)
    if n_areas and not min(values) >= 0.0:  # an empty vector has no minimum
        message = "proportions must be nonnegative"
    elif not abs(total - 1.0) <= PROB_TOL:
        message = f"proportions must sum to 1, got {total}"
    else:
        return values
    raise ProportionError(message if np.isfinite(values).all() else "proportions must be finite")


def proportions_by_type(decision: Mapping, scenario: Scenario) -> list[list[float]]:
    """A decision's checked proportion vectors, one per observation type in config order.

    The whole intake of a policy's decision, before the day draws or records
    anything for it: the decision must be a mapping with a vector for every
    type, and each distinct vector is checked once by check_proportions. Any
    failure raises ProportionError; what is not a mapping (a bare vector, or
    an object wrapping the mapping) is named by its type.
    """
    if not isinstance(decision, Mapping):
        raise ProportionError(
            "a policy's decision must map each observation type id to a vector, "
            f"got {type(decision).__name__}"
        )
    try:
        given = [decision[type_id] for type_id in scenario.obs_type_ids]
    except KeyError as exc:
        raise ProportionError(f"no proportions for observation type {exc.args[0]!r}") from None
    checked = {}  # id -> checked values: a policy often gives every type one vector
    for s in given:
        if id(s) not in checked:
            checked[id(s)] = check_proportions(s, scenario.n_areas)
    return [checked[id(s)] for s in given]


def observer_draws(scenario: Scenario) -> int:
    """Uniforms the observation process takes per day: m + rho * m per type."""
    return sum(t.m * (1 + t.rho) for t in scenario.obs_types)


def allocate_observers(u: Sequence[float], s: Sequence[float]) -> list[int]:
    """Distribute len(u) observers over areas by categorical inversion of s.

    Observer i goes to the first area whose running proportion sum exceeds
    u[i] * sum(s), so each observer lands in area a with probability
    s[a] / sum(s), independently of the others. Scaling by the vector's own
    total keeps every uniform in [0, 1) below the last running sum: no
    observer lands on an area of proportion 0 or past the last area, even
    when s sums to slightly less than 1. Returns the count per area.

    The running sums are sequential float additions, as np.cumsum makes
    them, and bisect_right on them is searchsorted(side="right"): at the
    simulator's few areas and observers, plain lists cost less than numpy
    calls.
    """
    cumulative = list(accumulate(s))
    total = cumulative[-1]
    counts = [0] * len(cumulative)
    for x in u:
        counts[bisect_right(cumulative, x * total)] += 1
    return counts


def select_observed(
    u: Sequence[float],
    n_pos: int,
    n_neg: int,
    capacity: int,
    eta_pos: float,
    eta_neg: float,
) -> tuple[int, int]:
    """Record min(capacity, n_pos + n_neg) distinct events; return (pos, neg) counts.

    Draws the fixed-weight urn of the module docstring: u holds the cell's
    capacity uniforms, and pick k is unsafe when u[k] falls below its
    probability, recomputed from the remaining integer counts. Once one
    class is used up, the remaining picks all come from the other.
    """
    total = n_pos + n_neg
    if total == 0 or capacity <= 0:
        return 0, 0
    if capacity >= total:
        return n_pos, n_neg
    if len(u) < capacity:
        raise ValueError(f"a cell of capacity {capacity} needs {capacity} uniforms, got {len(u)}")
    # r_neg * eta_neg / (r_pos * eta_pos + r_neg * eta_neg), divided through by
    # eta_neg so that no product of a count and a weight can overflow.
    ratio = eta_pos / eta_neg
    r_pos, r_neg = n_pos, n_neg
    for k in range(capacity):
        if not (r_pos and r_neg):
            break
        if u[k] * (r_neg + r_pos * ratio) < r_neg:
            r_neg -= 1
        else:
            r_pos -= 1
    neg = n_neg - r_neg if r_pos else capacity - n_pos
    return capacity - neg, neg


def step_observations(
    decision: Mapping,
    rng: np.random.Generator,
    scenario: Scenario,
    n_pos: Sequence[int],
    n_neg: Sequence[int],
    proportions: np.ndarray,
    obs_pos: np.ndarray,
    obs_neg: np.ndarray,
) -> None:
    """Run one replication's observation day over every type and area.

    The decision is taken in first (proportions_by_type), so a refusal
    raises before rng, the observer stream, draws. rng then draws the day's
    observer_draws(scenario) uniforms, whatever the events and allocation:
    per obs type in config order, m allocation uniforms, then rho * m urn
    uniforms sliced over the areas in area order, rho * q[a] for area a.
    Each type draws its own urn, so an event can be recorded by several
    types but at most once per type. n_pos and n_neg are the day's safe and
    unsafe activity counts per area. Each type's checked vector and recorded
    counts go into proportions, obs_pos and obs_neg, indexed [obs_type,
    area]; obs_pos and obs_neg must hold zeros: only the cells with
    observers and activity are written.
    """
    checked = proportions_by_type(decision, scenario)
    u = rng.random(observer_draws(scenario)).tolist()
    start = 0
    for t_idx, (obs_type, s) in enumerate(zip(scenario.obs_types, checked)):
        m, rho, eta_pos, eta_neg = obs_type.m, obs_type.rho, obs_type.eta_pos, obs_type.eta_neg
        pos_row, neg_row = obs_pos[t_idx], obs_neg[t_idx]
        q = allocate_observers(u[start : start + m], s)
        start += m
        for a_idx, observers in enumerate(q):
            if not observers:
                continue
            capacity = rho * observers
            end = start + capacity
            if n_pos[a_idx] + n_neg[a_idx]:
                pos_row[a_idx], neg_row[a_idx] = select_observed(
                    u[start:end], n_pos[a_idx], n_neg[a_idx], capacity, eta_pos, eta_neg
                )
            start = end
        proportions[t_idx] = s
