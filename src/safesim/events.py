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
(1 - xi) * lambda*, which is distributionally identical to thinning one
Poisson(lambda*) task count.
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
DAY, AREA, AHL, PHL = range(4)  # columns of an incident row, the incident log's

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
    A row's running sums start at level 0 for the AHL (level AHL) and at its
    AHL for the PHL (level PHL, mapped after the AHL), which thus follows the
    area's severity probabilities truncated below the AHL and renormalized.
    Each uniform is scaled by its row's own total: a total slightly below 1
    gives its missing mass to no level, and a total of 0 raises
    DegenerateHurtDistribution. HURT_CHUNK rows are mapped at a time.
    """
    for start in range(0, len(u), HURT_CHUNK):
        chunk = rows[start : start + HURT_CHUNK]
        first = chunk[:, AHL] if level == PHL else np.zeros(len(chunk), dtype=np.int32)
        sums = hl_sums[chunk[:, AREA], first]
        empty = sums[:, TOP] <= 0.0
        if empty.any():
            raise DegenerateHurtDistribution(f"no probability mass at Hurt level >= {first[empty.argmax()]}")
        scaled = u[start : start + HURT_CHUNK] * sums[:, TOP]
        # the running sums are nondecreasing, and 0 below the row's first level
        chunk[:, level] = (sums[:, :TOP] <= scaled[:, None]).sum(axis=1)


class BatchEvents(NamedTuple):
    """The day's incidents of every replication of a batch; step_events writes its counts.

    rows[r] holds replication r's log rows (DAY, AREA, AHL, PHL), area by
    area in draw order. n_e is the day's incidents over the batch.
    """

    rows: list[np.ndarray]
    n_e: int


class EventBlocks:
    """The environment draws of a batch of replications, a block of days at a time.

    At the start of each block of B = block_days(scenario) days, each
    replication's environment stream draws, in this order:

    1. E, G, S, each shaped (B, areas): the potential incidents, the
       potential unsafe tasks and the safe tasks, Poissons of the block's
       means alpha * xi_base * lambda*, (1 - alpha) * xi_base * lambda* and
       (1 - xi_base) * lambda*, which __init__ stacks once into means;
    2. one thinning uniform per potential incident;
    3. the (2, E.sum()) AHL and PHL uniforms of the potential incidents,
       mapped to levels at once (hurt_levels);
    4. one thinning uniform per potential unsafe task.

    Counts and uniforms are in day, area and draw order. No draw depends on
    theta, so every policy sees the same tasks, and every block is drawn in
    full, so a shorter run is a prefix of a longer one. B depends on the
    scenario alone, so a replication draws the same in any batch.

    groups[g] holds a group's generators and its slice of the batch's
    columns, and held[g] its block's days not yet classified: a group's
    block is dropped after its last day. Where one day has more than
    BLOCK_TASKS potential tasks, B is 1, each group is one replication, and
    the draws held at once are one replication's day, whatever the number
    of replications.
    """

    def __init__(self, scenario: Scenario, rngs: list[np.random.Generator]):
        self.arrays = scenario.arrays
        self.n_areas = n_areas = scenario.n_areas
        self.days = block_days(scenario)
        lam = np.broadcast_to(self.arrays.lambda_star, (self.days, n_areas))
        xi_base, alpha = self.arrays.xi_base, self.arrays.alpha
        self.means = np.array([alpha * xi_base * lam, (1.0 - alpha) * xi_base * lam, (1.0 - xi_base) * lam])
        size = max(GROUP_TASKS // (self.days * potential_tasks_per_day(scenario)), 1)
        starts = range(0, len(rngs), size)
        self.groups = [(rngs[s : s + size], slice(s * n_areas, (s + size) * n_areas)) for s in starts]
        self.held: list[list[tuple]] = [[] for _ in self.groups]

    def draw(self, rngs: list[np.random.Generator]) -> list[tuple]:
        """Draw a group's next block in the class docstring's order; returns its B days in order.

        Day b is (u, key, incidents, tasks). u holds its potential tasks'
        uniforms, first its potential incidents', then its potential unsafe
        tasks', each in replication, area and draw order. key holds each
        task's column (a replication-area of the group), plus the group's
        column count for an unsafe task; incidents the potential incidents'
        rows in u's order, their DAY left to classify; tasks the day's count of
        all tasks per column, potential and safe. Each is a view of the block's arrays.
        """
        arrays, n_days, n_areas = self.arrays, self.days, self.n_areas
        # one call on the stacked means draws E, then G, then S, as three calls would
        counts = np.array([rng.poisson(self.means) for rng in rngs])  # (reps, 3, days, areas)
        cells = counts[:, :2].transpose(1, 0, 2, 3)  # (kind, replication, day, area): u's order
        sizes = cells.reshape(2 * len(rngs), -1).sum(axis=1)
        end = np.cumsum(sizes).tolist()
        spans = list(zip([0] + end[:-1], end))
        n_incidents = end[len(rngs) - 1]
        u = np.empty(end[-1])
        incidents = np.empty((n_incidents, 4), dtype=np.int32)
        areas = np.tile(np.arange(n_areas, dtype=np.int32), len(rngs) * n_days)
        incidents[:, AREA] = np.repeat(areas, cells[0].ravel())
        hurt = np.empty(n_incidents)
        # Two passes share one Hurt-uniform buffer; one pass would hold two (measured: see ROADMAP).
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
        if n_days > 1:  # with one day, u's order is already the block's
            start = np.cumsum(cells.ravel()) - cells.ravel()
            start = start.reshape(cells.shape).transpose(2, 0, 1, 3).ravel()
            order = np.repeat(start - (np.cumsum(per_cell) - per_cell), per_cell)
            order += np.arange(len(order))
            incidents = incidents[order[order < n_incidents]]  # u's first n_incidents are incidents
            u = u[order]
            del order
        # built after the gather, so that it is not held beside both orders of u
        key = np.repeat(np.tile(np.arange(2 * n_columns, dtype=np.int32), n_days), per_cell)
        per_day = by_day.reshape(n_days, 2, n_columns).sum(axis=2)
        tasks = counts.sum(axis=1).transpose(1, 0, 2).reshape(n_days, n_columns)
        task_end = np.cumsum(per_day.sum(axis=1)).tolist()
        incident_end = np.cumsum(per_day[:, 0]).tolist()
        bounds = zip([0] + task_end, task_end, [0] + incident_end, incident_end, tasks)
        return [(u[lo:hi], key[lo:hi], incidents[i:j], day) for lo, hi, i, j, day in bounds]

    def classify(self, g: int, d: int, keep: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
        """Classify group g's day d into counts; returns its replications' incident rows.

        keep is 1 - theta per column of the batch, and counts the day's
        (n_e, n_neg, n_pos) per column of the batch, of which the group's
        columns are written. The rows are copies of the day's real potential
        incidents, given DAY d + 1. The group's block is drawn on its first
        day, and each day is popped from held[g] before the next group's is drawn.
        """
        rngs, columns = self.groups[g]
        if d % self.days == 0:
            self.held[g] = self.draw(rngs)
        u, key, incidents, tasks = self.held[g].pop(0)
        n_columns = len(rngs) * self.n_areas
        threshold = keep[columns]
        real = u < np.concatenate((threshold, threshold))[key]
        found = np.bincount(key[real], minlength=2 * n_columns).reshape(2, n_columns)
        counts[:2, columns] = found
        counts[2, columns] = tasks - found[0] - found[1]
        incidents = incidents[real[: len(incidents)]]
        incidents[:, DAY] = d + 1
        end = np.cumsum(found[0])[self.n_areas - 1 :: self.n_areas].tolist()
        return [incidents[s:e] for s, e in zip([0] + end[:-1], end)]


def step_events(blocks: EventBlocks, d: int, theta: np.ndarray, counts: np.ndarray) -> BatchEvents:
    """Classify day d's potential tasks of every replication at start-of-day theta into counts.

    theta holds the state per column (replication r's area a at column
    r * areas + a). A potential task is real if and only if its uniform is
    below 1 - theta, and a safe task otherwise. counts, the day's (3, columns)
    record row, gets n_e and n_neg, the real incidents and unsafe tasks, and
    n_pos, the safe tasks, potential ones included, a group at a time.
    """
    keep = 1.0 - theta
    rows = []
    for g in range(len(blocks.groups)):
        rows += blocks.classify(g, d, keep, counts)
    return BatchEvents(rows, sum(map(len, rows)))
