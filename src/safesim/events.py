"""Daily event generation and the mapping from safety state to unsafe fraction.

Each safety area runs three coupled Poisson streams per day: incidents,
unsafe activities, and safe activities. The split is driven by the latent
safety state theta through xi, the fraction of tasks performed unsafely.

The environment is drawn ahead of the days, so that it does not depend on
theta (see EventBlocks): each area-day has Poisson counts of potential
incidents and potential unsafe tasks at xi_base, and of safe tasks at
1 - xi_base. On the day, each potential task is real with probability
1 - theta, by its own uniform, and safe otherwise. Since xi = (1 - theta) *
xi_base, the day's incidents, unsafe and safe tasks are then independent
Poissons with means alpha * xi * lambda*, (1 - alpha) * xi * lambda* and
(1 - xi) * lambda*, the law sample_event_counts draws directly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .scenario import N_HURT_LEVELS, Scenario


class DegenerateHurtDistribution(ValueError):
    """No probability mass at or above the requested Hurt level."""


HURT_CHUNK = 1 << 16  # incidents whose Hurt levels hurt_levels maps at once
TOP = N_HURT_LEVELS - 1  # the highest Hurt level
AREA, AHL, PHL = range(3)  # columns of an incident row: the incident log's without its day

# B, the days a block draws, is BLOCK_TASKS // a day's mean potential tasks,
# within [1, MAX_BLOCK_DAYS]: the stream contract fixes both. Replications
# are drawn and classified in groups whose block holds about GROUP_TASKS
# potential tasks, or one replication's if that is more; no draw depends on it.
BLOCK_TASKS = 1 << 16
MAX_BLOCK_DAYS = 32
GROUP_TASKS = 1 << 16


def xi_of_theta(theta, xi_base):
    """Unsafe-task fraction implied by safety state theta: (1 - theta) * xi_base."""
    return (1.0 - theta) * xi_base


def sample_event_counts(rng: np.random.Generator, lambda_star, xi, alpha):
    """Draw (incidents, unsafe, safe) counts: all incidents, then all unsafe, then all safe.

    The three counts are independent Poissons with means alpha*xi*lambda,
    (1-alpha)*xi*lambda and (1-xi)*lambda, which is distributionally
    identical to thinning a single Poisson(lambda) task count. For float
    arguments each is a Python int, as Generator.poisson returns for a float
    mean; for arrays, an int64 array of their broadcast shape.
    """
    n_e = rng.poisson(alpha * xi * lambda_star)
    n_neg = rng.poisson((1.0 - alpha) * xi * lambda_star)
    n_pos = rng.poisson((1.0 - xi) * lambda_star)
    return n_e, n_neg, n_pos


def potential_tasks_per_day(scenario: Scenario) -> int:
    """A day's mean potential tasks, ceil(sum of xi_base * lambda* over areas), at least 1."""
    return max(math.ceil(sum(area.xi_base * area.lambda_star for area in scenario.areas)), 1)


def block_days(scenario: Scenario) -> int:
    """B, the days a block draws; it depends on the scenario alone."""
    return min(max(BLOCK_TASKS // potential_tasks_per_day(scenario), 1), MAX_BLOCK_DAYS)


def hurt_levels(hl_sums: np.ndarray, rows: np.ndarray, level: int, u: np.ndarray) -> None:
    """Write the Hurt level of each incident row's uniform in u into rows[:, level].

    hl_sums is ScenarioArrays.hl_sums. Each level is the one a sequential
    severity draw from the same uniform returns: the first level whose
    running sum exceeds the scaled uniform, or TOP if none below it does.
    The AHL (level AHL) follows the area's severity probabilities; the PHL
    (level PHL, mapped after the AHL) follows them truncated below the AHL
    and renormalized. Each uniform is scaled by its row's own total, so a
    row that sums to slightly less than 1 gives its missing mass to no
    level. HURT_CHUNK rows are mapped at a time, which bounds the memory of
    a block with many incidents.
    """
    for start in range(0, len(u), HURT_CHUNK):
        chunk = rows[start : start + HURT_CHUNK]
        if level == AHL:
            sums = hl_sums[chunk[:, AREA], 0]
        else:
            sums = hl_sums[chunk[:, AREA], chunk[:, AHL]]
            empty = sums[:, TOP] <= 0.0
            if empty.any():
                raise DegenerateHurtDistribution(
                    f"no probability mass at Hurt level >= {chunk[empty.argmax(), AHL]}"
                )
        scaled = u[start : start + HURT_CHUNK] * sums[:, TOP]
        # the running sums are nondecreasing, and 0 below the row's first level
        chunk[:, level] = (sums[:, :TOP] <= scaled[:, None]).sum(axis=1)


class Block(NamedTuple):
    """One group's draws for the days of a block, day by day.

    Day b's potential tasks are u[task_start[b]:task_start[b + 1]]: first its
    potential incidents, then its potential unsafe tasks, each in
    replication, area and draw order. key holds each task's kind and column
    (a replication-area of the group): the column for an incident, the
    group's column count plus the column for an unsafe task. incidents holds
    the potential incidents' rows (AREA, AHL, PHL) in the same order, day b's
    at incident_start[b]:incident_start[b + 1]. tasks[b] is day b's count of all
    tasks per column, potential and safe.
    """

    u: np.ndarray
    key: np.ndarray
    incidents: np.ndarray
    tasks: np.ndarray
    task_start: list[int]
    incident_start: list[int]


class BatchEvents(NamedTuple):
    """The day's events of every replication of a batch.

    counts holds the per-column counts n_e, n_neg and n_pos, shaped (3,
    columns). rows[r] holds replication r's incident rows (AREA, AHL, PHL),
    area by area in draw order. n_e is the day's incidents over the batch.
    """

    counts: np.ndarray
    rows: list[np.ndarray]
    n_e: int


class EventBlocks:
    """The environment draws of a batch of replications, a block of days at a time.

    At the start of each block of B = block_days(scenario) days, each
    replication's environment stream draws, in this order:

    1. E, G, S = sample_event_counts(rng, lambda*, xi_base, alpha), each
       shaped (B, areas): the potential incidents, the potential unsafe
       tasks and the safe tasks;
    2. one thinning uniform per potential incident;
    3. the (2, E.sum()) AHL and PHL uniforms of the potential incidents,
       mapped to levels at once (hurt_levels);
    4. one thinning uniform per potential unsafe task.

    Counts and uniforms are in day, area and draw order. No draw depends on
    theta, so every policy sees the same tasks, and every block is drawn in
    full, so a shorter run is a prefix of a longer one. B depends on the
    scenario alone, so a replication draws the same in any batch.

    A group's block is dropped after its last day. Where one day has more
    than BLOCK_TASKS potential tasks, B is 1, each group is one replication,
    and the draws held at once are one replication's day, whatever the
    number of replications.
    """

    def __init__(self, scenario: Scenario, rngs: list[np.random.Generator]):
        self.arrays = scenario.arrays
        self.n_areas = scenario.n_areas
        self.days = block_days(scenario)
        self.lambda_star = np.broadcast_to(self.arrays.lambda_star, (self.days, self.n_areas))
        size = max(GROUP_TASKS // (self.days * potential_tasks_per_day(scenario)), 1)
        self.group_size = size
        self.groups = [rngs[start : start + size] for start in range(0, len(rngs), size)]
        self.held: list[Block | None] = [None] * len(self.groups)

    def draw(self, rngs: list[np.random.Generator]) -> Block:
        """Draw a group's next block; see the class docstring for the order."""
        arrays, n_days, n_areas = self.arrays, self.days, self.n_areas
        means = (self.lambda_star, arrays.xi_base, arrays.alpha)
        counts = np.array([sample_event_counts(rng, *means) for rng in rngs])  # (reps, 3, days, areas)
        cells = counts[:, :2].transpose(1, 0, 2, 3)  # (kind, replication, day, area): u's order
        sizes = cells.reshape(2 * len(rngs), -1).sum(axis=1)
        end = np.cumsum(sizes).tolist()
        spans = list(zip([0] + end[:-1], end))
        n_incidents = end[len(rngs) - 1]
        u = np.empty(end[-1])
        incidents = np.empty((n_incidents, 3), dtype=np.int32)
        areas = np.tile(np.arange(n_areas, dtype=np.int32), len(rngs) * n_days)
        incidents[:, AREA] = np.repeat(areas, cells[0].ravel())
        hurt = np.empty(n_incidents)
        for rng, (lo, hi) in zip(rngs, spans):
            rng.random(out=u[lo:hi])
            rng.random(out=hurt[lo:hi])
        hurt_levels(arrays.hl_sums, incidents, AHL, hurt)
        for rng, (lo, hi), (lo_unsafe, hi_unsafe) in zip(rngs, spans, spans[len(rngs) :]):
            rng.random(out=hurt[lo:hi])
            rng.random(out=u[lo_unsafe:hi_unsafe])
        hurt_levels(arrays.hl_sums, incidents, PHL, hurt)
        del hurt

        n_columns = len(rngs) * n_areas
        by_day = cells.transpose(2, 0, 1, 3)  # (day, kind, replication, area): the block's order
        per_cell = by_day.ravel()
        key = np.repeat(np.tile(np.arange(2 * n_columns, dtype=np.int32), n_days), per_cell)
        if n_days > 1:  # with one day, u's order is already the block's
            start = np.cumsum(cells.ravel()) - cells.ravel()
            start = start.reshape(cells.shape).transpose(2, 0, 1, 3).ravel()
            order = np.repeat(start - (np.cumsum(per_cell) - per_cell), per_cell)
            order += np.arange(len(order))
            u = u[order]
            incidents = incidents[order[key < n_columns]]
            del order
        per_day = by_day.reshape(n_days, 2, n_columns).sum(axis=2)
        tasks = counts.sum(axis=1).transpose(1, 0, 2).reshape(n_days, n_columns)
        return Block(
            u,
            key,
            incidents,
            tasks,
            [0] + np.cumsum(per_day.sum(axis=1)).tolist(),
            [0] + np.cumsum(per_day[:, 0]).tolist(),
        )

    def classify(self, g: int, d: int, keep: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
        """Classify group g's day d into counts; returns its replications' incident rows.

        keep is 1 - theta per column of the batch, and counts the day's
        (n_e, n_neg, n_pos) per column of the batch, of which the group's
        columns are written. The group's block is drawn on its first day and
        dropped after its last, before the next group's is drawn.
        """
        b = d % self.days
        rngs = self.groups[g]
        block = self.draw(rngs) if b == 0 else self.held[g]
        self.held[g] = block if b < self.days - 1 else None
        n_columns = len(rngs) * self.n_areas
        first = g * self.group_size * self.n_areas
        columns = slice(first, first + n_columns)
        lo, hi = block.task_start[b : b + 2]
        key = block.key[lo:hi]
        threshold = keep[columns]
        real = block.u[lo:hi] < np.concatenate((threshold, threshold))[key]
        found = np.bincount(key[real], minlength=2 * n_columns).reshape(2, n_columns)
        counts[:2, columns] = found
        counts[2, columns] = block.tasks[b] - found[0] - found[1]
        lo, hi = block.incident_start[b : b + 2]
        incidents = block.incidents[lo:hi][real[: hi - lo]]
        end = np.cumsum(found[0])[self.n_areas - 1 :: self.n_areas].tolist()
        return [incidents[s:e] for s, e in zip([0] + end[:-1], end)]


def step_events(blocks: EventBlocks, d: int, theta: np.ndarray) -> BatchEvents:
    """Classify day d's potential tasks of every replication at start-of-day theta.

    theta holds the state per column (replication r's area a at column
    r * areas + a). A potential task is real if and only if its uniform is
    below 1 - theta, and a safe task otherwise: n_e and n_neg count the real
    incidents and unsafe tasks, and n_pos the safe tasks, potential ones
    included. The replications are classified a group at a time.
    """
    keep = 1.0 - theta
    counts = np.empty((3, len(theta)), dtype=np.int64)
    rows = []
    for g in range(len(blocks.groups)):
        rows += blocks.classify(g, d, keep, counts)
    return BatchEvents(counts, rows, sum(map(len, rows)))
