import tracemalloc

import numpy as np
import pytest

import scalar_reference
from conftest import make_area, make_scenario
from safesim.events import (
    AHL,
    AREA,
    BLOCK_TASKS,
    HURT_CHUNK,
    PHL,
    DegenerateHurtDistribution,
    EventBlocks,
    hurt_levels,
    step_events,
    xi_of_theta,
)
from safesim.intervention import step_theta
from safesim.policies import ObservableHistory
from safesim.scenario import ScenarioArrays
from scalar_reference import sample_event_counts
from stat_utils import two_sample_chisquare

AREA_A_HL = (0.50, 0.35, 0.13, 0.02, 0.0, 0.0)
AREA_C_HL = (0.30, 0.06, 0.35, 0.28, 0.01, 0.0)


def hl_sums(hl_probs) -> np.ndarray:
    """One area's ScenarioArrays.hl_sums."""
    scenario = make_scenario(areas=(make_area(hl_probs=hl_probs),))
    return ScenarioArrays.of(scenario).hl_sums[0]


def levels(hl_probs, uniforms) -> tuple[list[int], list[int]]:
    """hurt_levels' (AHL, PHL) lists for incidents of one area with the given (2, n) uniforms."""
    u_ahl, u_phl = np.asarray(uniforms, dtype=float).reshape(2, -1)
    rows = np.zeros((len(u_ahl), 4), dtype=np.int32)
    sums = hl_sums(hl_probs)[None]
    hurt_levels(sums, rows, AHL, u_ahl)
    hurt_levels(sums, rows, PHL, u_phl)
    return rows[:, AHL].tolist(), rows[:, PHL].tolist()


def oracle_levels(hl_probs, uniforms) -> tuple[list[int], list[int]]:
    """The numpy table lookup's (AHL, PHL) for the same incidents."""
    uniforms = np.asarray(uniforms, dtype=float).reshape(2, -1)
    index = np.zeros(uniforms.shape[1], dtype=int)
    ahl, phl = scalar_reference.hurt_levels(hl_sums(hl_probs)[None], index, uniforms)
    return ahl.tolist(), phl.tolist()


def draw_ahl(rng, hl_probs, n: int) -> np.ndarray:
    """n AHLs through hurt_levels, from the same uniforms as n scalar draws."""
    ahl, _ = levels(hl_probs, [rng.random(n), np.zeros(n)])
    return np.array(ahl)


def draw_phl(rng, hl_probs, ahl: int, n: int) -> np.ndarray:
    """n PHLs through hurt_levels, each above an AHL fixed by a uniform inside its level."""
    u_ahl = (sum(hl_probs[:ahl]) + hl_probs[ahl] / 2) / sum(hl_probs)
    ahls, phls = levels(hl_probs, [np.full(n, u_ahl), rng.random(n)])
    assert set(ahls) == {ahl}
    return np.array(phls)


def as_lists(events, counts, r: int = 0, n_areas: int = 1) -> tuple:
    """Replication r's day from step_events and its counts, as PerTaskEnvironment.day returns it."""
    columns = slice(r * n_areas, (r + 1) * n_areas)
    return (*counts[:, columns].tolist(), [tuple(row[AREA:]) for row in events.rows[r].tolist()])


def event_days(scenario, seeds, n_days: int, theta: float):
    """n_days of (step_events, the counts it wrote) for one replication per seed, at a fixed theta."""
    blocks = EventBlocks(scenario, [np.random.default_rng(seed) for seed in seeds])
    theta = np.full(len(seeds) * scenario.n_areas, theta)
    counts = np.zeros((n_days, 3, len(theta)), dtype=np.int32)
    return [(step_events(blocks, d, theta, counts[d]), counts[d]) for d in range(n_days)]


class Uniforms:
    """A stand-in generator whose random() hands out given uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestXiOfTheta:
    def test_reference_value(self):
        assert xi_of_theta(0.55, 0.63) == pytest.approx(0.2835, abs=1e-15)

    def test_safest_state_gives_zero(self):
        for xi_base in (0.0, 0.3, 1.0):
            assert xi_of_theta(1.0, xi_base) == 0.0

    def test_worst_state_equals_base(self):
        assert xi_of_theta(0.0, 0.45) == 0.45

    def test_affine_decreasing_in_theta(self):
        xi_base = 0.7
        thetas = np.linspace(0.0, 1.0, 11)
        values = [xi_of_theta(t, xi_base) for t in thetas]
        assert all(a > b for a, b in zip(values, values[1:]))
        # affine: equal steps in theta give equal steps in xi
        diffs = np.diff(values)
        assert np.allclose(diffs, diffs[0], atol=1e-12)


class TestDecayTheta:
    def test_reference_value(self):
        assert step_theta(0.55, 0.0, 0.95) == pytest.approx(0.5225, abs=1e-15)

    def test_no_forgetting(self):
        assert step_theta(0.73, 0.0, 1.0) == 0.73

    def test_instant_complacency(self):
        assert step_theta(0.73, 0.0, 0.0) == 0.0

    def test_iterated_decay_is_geometric(self):
        theta, k = 0.8, 0.93
        value = theta
        for n in range(1, 50):
            value = step_theta(value, 0.0, k)
            assert value == pytest.approx(theta * k**n, rel=1e-12)


class TestSampleEventCounts:
    def test_zero_xi_gives_no_unsafe_events(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_e, n_neg, n_pos = sample_event_counts(rng, 17.0, 0.0, 0.04)
            assert n_e == 0
            assert n_neg == 0

    def test_mean_incident_count_matches_analytic(self):
        # oracle: analytic Poisson mean alpha * xi * lambda = 0.04 * 0.55 * 17 = 0.374
        rng = np.random.default_rng(12345)
        total = 0
        for _ in range(1_000_000):
            n_e, _, _ = sample_event_counts(rng, 17.0, 0.55, 0.04)
            total += n_e
        assert total / 1_000_000 == pytest.approx(0.374, abs=0.002)

    def test_all_tasks_are_incidents_when_alpha_and_xi_are_one(self):
        rng = np.random.default_rng(1)
        lam = 6.0
        n_es = []
        for _ in range(20_000):
            n_e, n_neg, n_pos = sample_event_counts(rng, lam, 1.0, 1.0)
            assert n_neg == 0
            assert n_pos == 0
            n_es.append(n_e)
        assert np.mean(n_es) == pytest.approx(lam, rel=0.02)

    @pytest.mark.parametrize("xi", [0.0, 0.55, 1.0])
    def test_counts_are_python_ints(self, xi):
        # the engine tests and sums them in Python, the benchmark's tracer too
        rng = np.random.default_rng(3)
        for _ in range(50):
            assert [type(n) for n in sample_event_counts(rng, 17.0, xi, 0.3)] == [int] * 3


class TestSampleAhl:
    def test_degenerate_low(self):
        rng = np.random.default_rng(0)
        assert np.all(draw_ahl(rng, (1, 0, 0, 0, 0, 0), 100) == 0)

    def test_degenerate_high(self):
        rng = np.random.default_rng(0)
        assert np.all(draw_ahl(rng, (0, 0, 0, 0, 0, 1), 100) == 5)

    def test_frequencies_match_probabilities(self):
        rng = np.random.default_rng(42)
        n = 1_000_000
        counts = np.bincount(draw_ahl(rng, AREA_A_HL, n), minlength=6)
        assert np.max(np.abs(counts / n - np.array(AREA_A_HL))) < 0.002


class TestSamplePhl:
    def test_top_level_forced(self):
        rng = np.random.default_rng(0)
        area_f_hl = (0.58, 0.06, 0.08, 0.18, 0.08, 0.02)
        assert np.all(draw_phl(rng, area_f_hl, 5, 20) == 5)
        assert np.all(draw_phl(rng, (0.5, 0.5, 0, 0, 0, 0), 1, 20) == 1)

    def test_untouched_prefix_renormalization(self):
        rng = np.random.default_rng(3)
        draws = draw_phl(rng, (0.5, 0.5, 0, 0, 0, 0), 0, 50_000)
        freq = np.bincount(draws, minlength=6) / len(draws)
        assert freq[0] == pytest.approx(0.5, abs=0.01)
        assert freq[1] == pytest.approx(0.5, abs=0.01)

    def test_truncated_tail_renormalization(self):
        # oracle: hand renormalization of (0.35, 0.28, 0.01) by 0.64
        rng = np.random.default_rng(4)
        draws = draw_phl(rng, AREA_C_HL, 2, 200_000)
        freq = np.bincount(draws, minlength=6) / len(draws)
        assert freq[2] == pytest.approx(0.546875, abs=0.005)
        assert freq[3] == pytest.approx(0.4375, abs=0.005)
        assert freq[4] == pytest.approx(0.015625, abs=0.002)
        assert freq[0] == freq[1] == freq[5] == 0.0

    def test_missing_mass_goes_to_no_level(self):
        # The probabilities sum to 1 - 1e-10. Uniforms above that total, up
        # to the largest one below 1, are mapped onto it: no level 5, which
        # has no mass, and no raise.
        probs = (0.5, 0.5 - 1e-10, 0, 0, 0, 0)
        top = np.nextafter(1.0, 0.0)
        ahl, phl = levels(probs, [[0.2, 1 - 1e-10, 1 - 5e-11, top], [0.5, 0.5, top, top]])
        assert ahl == [0, 1, 1, 1]
        assert phl == [0, 1, 1, 1]


class TestTableSamplerEquivalence:
    """step_events matches the per-task reference of the stream contract:
    same counts and incident rows, same generator state. Its levels are the
    sequential draws' and the numpy table lookup's for the same uniforms."""

    DISTRIBUTIONS = (
        AREA_A_HL,  # no mass at levels 4 and 5
        AREA_C_HL,
        (0.3, 0.0, 0.4, 0.0, 0.3, 0.0),  # zero mass between levels with mass
        (1, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 1),
        (0.2, 0.3, 0.1, 0.1, 0.1, 0.2 - 1e-10),  # sums to 1 - 1e-10
        tuple(np.random.default_rng(0).dirichlet(np.ones(6))),
    )

    @staticmethod
    def scalar(rng, probs, n):
        ahl = [scalar_reference.sample_ahl(rng, probs) for _ in range(n)]
        return ahl, [scalar_reference.sample_phl(rng, probs, a) for a in ahl]

    @staticmethod
    def assert_same_as_per_task(scenario, seeds, n_days):
        # theta moves every day, so that every day thins at its own threshold
        rngs = [np.random.default_rng(seed) for seed in seeds]
        blocks = EventBlocks(scenario, rngs)
        references = [
            scalar_reference.PerTaskEnvironment(np.random.default_rng(seed), scenario, blocks.days)
            for seed in seeds
        ]
        n_areas = scenario.n_areas
        for d in range(n_days):
            theta = np.linspace(0.0, 1.0, len(seeds) * n_areas) * (d % 7) / 6
            counts = np.zeros((3, len(theta)), dtype=np.int32)
            events = step_events(blocks, d, theta, counts)
            for r, reference in enumerate(references):
                expected = reference.day(theta[r * n_areas : (r + 1) * n_areas].tolist())
                assert as_lists(events, counts, r, n_areas) == expected
        for rng, reference in zip(rngs, references):
            assert rng.bit_generator.state == reference.rng.bit_generator.state

    @pytest.mark.parametrize("probs", DISTRIBUTIONS)
    def test_same_events_and_generator_state(self, probs):
        # 0.9 potential incidents a day gives days with 0, 1 and several
        area = make_area(lambda_star=10.0, xi_base=0.9, alpha=0.1, hl_probs=probs)
        self.assert_same_as_per_task(make_scenario(areas=(area,)), [1, 2, 3], 300)

    def test_each_area_maps_with_its_own_rows(self):
        areas = [
            make_area(f"A{i}", lambda_star=10.0, xi_base=0.9, alpha=0.1, hl_probs=probs)
            for i, probs in enumerate(self.DISTRIBUTIONS)
        ]
        self.assert_same_as_per_task(make_scenario(areas=areas), [9, 10], 100)

    @pytest.mark.parametrize("probs", DISTRIBUTIONS)
    def test_same_levels_on_boundaries(self, probs):
        # uniforms exactly on each running sum, next to it, and at the ends
        cum = np.cumsum(probs)
        edges = np.concatenate([cum, np.nextafter(cum, 0), np.nextafter(cum, 1), [0.0, 1 - 5e-11]])
        u = np.clip(edges, 0.0, np.nextafter(1.0, 0)).tolist()
        for phl_u in (0.0, 0.5, np.nextafter(1.0, 0)):
            uniforms = [u, [phl_u] * len(u)]
            try:
                expected = self.scalar(Uniforms(u + uniforms[1]), probs, len(u))
            except DegenerateHurtDistribution:
                with pytest.raises(DegenerateHurtDistribution):
                    oracle_levels(probs, uniforms)
                with pytest.raises(DegenerateHurtDistribution):
                    levels(probs, uniforms)
                continue
            assert oracle_levels(probs, uniforms) == expected
            assert levels(probs, uniforms) == expected

    def test_chunked_mapping_matches_one_pass(self, monkeypatch):
        # a day longer than HURT_CHUNK is mapped in pieces, to the same levels
        uniforms = np.random.default_rng(4).random((2, 1000))
        one_pass = [levels(probs, uniforms) for probs in self.DISTRIBUTIONS]
        assert one_pass == [oracle_levels(probs, uniforms) for probs in self.DISTRIBUTIONS]
        monkeypatch.setattr("safesim.events.HURT_CHUNK", 7)
        assert [levels(probs, uniforms) for probs in self.DISTRIBUTIONS] == one_pass

    def test_degenerate_raise_matches(self):
        # A uniform of 1, outside the generator's [0, 1), is the only way left
        # to reach a level without mass.
        probs = (0.5, 0.5 - 1e-10, 0, 0, 0, 0)
        with pytest.raises(DegenerateHurtDistribution):
            self.scalar(Uniforms([0.3, 1.0, 0.1, 0.1]), probs, 2)
        with pytest.raises(DegenerateHurtDistribution, match=">= 5"):
            oracle_levels(probs, [[0.3, 1.0], [0.1, 0.1]])
        with pytest.raises(DegenerateHurtDistribution, match=">= 5"):
            levels(probs, [[0.3, 1.0], [0.1, 0.1]])

    def test_degenerate_ahl_raises_from_level_zero(self):
        # an area without mass at any level has no AHL to map to
        rows = np.zeros((1, 4), dtype=np.int32)
        with pytest.raises(DegenerateHurtDistribution, match=">= 0"):
            hurt_levels(np.zeros((1, 6, 6)), rows, AHL, np.array([0.5]))


class TestStepEvents:
    def test_safest_state_yields_no_unsafe_activity(self):
        scenario = make_scenario(areas=(make_area(),))
        for events, counts in event_days(scenario, [0], 200, theta=1.0):
            assert counts[:2].tolist() == [[0], [0]]
            assert events.n_e == 0

    def test_phl_never_below_ahl(self):
        scenario = make_scenario(areas=(make_area(lambda_star=20.0, xi_base=0.9, alpha=0.5),))
        for events, _ in event_days(scenario, [7], 2_000, theta=0.0):
            assert np.all(events.rows[0][:, PHL] >= events.rows[0][:, AHL])

    def test_incident_total_is_a_python_int(self):
        # the benchmark's tracer adds it up as the day's incidents
        scenario = make_scenario(areas=(make_area(lambda_star=20.0, xi_base=0.9, alpha=0.1),))
        days = event_days(scenario, [4, 5], 50, theta=0.1)
        assert {events.n_e > 0 for events, _ in days} == {False, True}
        for events, counts in days:
            assert type(events.n_e) is int
            assert events.n_e == counts[0].sum()

    def test_incident_count_matches_length(self):
        scenario = make_scenario(areas=(make_area("A", lambda_star=20.0, xi_base=0.9, alpha=0.5),
                                        make_area("B", lambda_star=5.0, xi_base=0.5, alpha=0.5)))
        for events, counts in event_days(scenario, [8, 9, 10], 200, theta=0.2):
            for r, rows in enumerate(events.rows):
                n_e = counts[0, 2 * r : 2 * r + 2]
                assert rows[:, AREA].tolist() == [0] * n_e[0] + [1] * n_e[1]

    def test_day_without_potential_incidents_gives_empty_rows(self):
        # alpha = 0: no potential incident on any day, only unsafe and safe tasks
        areas = (make_area("A", alpha=0.0), make_area("B", alpha=0.0))
        scenario = make_scenario(areas=areas)
        histories = [ObservableHistory((), *np.zeros((2, 40, 0, 2), dtype=np.int32)) for _ in range(3)]
        days = event_days(scenario, [1, 2, 3], 40, theta=0.2)
        assert sum(int(counts[1].sum()) for _, counts in days) > 0
        for d, (events, _) in enumerate(days):
            assert events.n_e == 0 and len(events.rows) == 3
            for history, rows in zip(histories, events.rows):
                assert rows.shape == (0, 4) and rows.dtype == np.int32
                history._append_day(rows)
                assert len(history) == d + 1
                assert history.incidents.shape == (0, 4)

    def test_mean_incidents_match_analytic_at_fixed_theta(self):
        # oracle: analytic mean alpha * xi * lambda at theta = 0.3, over 100 x 1,000 days
        area = make_area(lambda_star=17.0, xi_base=0.55, alpha=0.04)
        days = event_days(make_scenario(areas=(area,)), range(99, 199), 1_000, theta=0.3)
        mean_analytic = area.alpha * xi_of_theta(0.3, area.xi_base) * area.lambda_star
        assert sum(events.n_e for events, _ in days) / 100_000 == pytest.approx(mean_analytic, rel=0.01)

    def test_bit_reproducible_under_fixed_seed(self):
        scenario = make_scenario(areas=(make_area(),))
        runs = [[as_lists(*day) for day in event_days(scenario, [123], 50, 0.4)] for _ in range(2)]
        assert runs[0] == runs[1]

    def test_many_incidents_are_mapped_a_chunk_at_a_time(self):
        # alpha = xi = 1 makes every task an incident. Beyond the rows it
        # returns (16 B an incident), the day holds its block (thinning
        # uniforms, keys and rows, 28 B an incident), the block's severity
        # uniforms (8 B) and one chunk of the mapping's temporaries.
        # Mapping all incidents at once would take over 100 B an incident.
        area = make_area(lambda_star=4.1 * HURT_CHUNK, xi_base=1.0, alpha=1.0, hl_probs=AREA_C_HL)
        blocks = EventBlocks(make_scenario(areas=(area,)), [np.random.default_rng(5)])
        counts = np.zeros((3, 1), dtype=np.int32)
        tracemalloc.start()
        try:
            events = step_events(blocks, 0, np.zeros(1), counts)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert events.n_e >= 4 * HURT_CHUNK
        assert peak - kept < 64 * events.n_e


class TestHeldDays:
    """A group holds the days of its block not yet classified, and nothing after the last."""

    def test_one_day_blocks_hold_nothing(self):
        # a day's mean potential tasks above BLOCK_TASKS makes B = 1
        area = make_area(lambda_star=BLOCK_TASKS + 1.0, xi_base=1.0, alpha=0.001)
        blocks = EventBlocks(make_scenario(areas=(area,)), [np.random.default_rng(s) for s in (1, 2)])
        assert blocks.days == 1 and len(blocks.groups) == 2
        for d in range(3):
            step_events(blocks, d, np.full(2, 0.5), np.zeros((3, 2), dtype=np.int32))
            assert blocks.held == [[], []]

    def test_groups_hold_the_rest_of_their_block(self, case_study, monkeypatch):
        monkeypatch.setattr("safesim.events.GROUP_TASKS", 1)  # one replication a group
        blocks = EventBlocks(case_study, [np.random.default_rng(s) for s in (3, 4, 5)])
        n_days = blocks.days
        assert n_days == 32 and len(blocks.groups) == 3
        theta = np.full(3 * case_study.n_areas, 0.5)
        for d in range(2 * n_days + 3):
            step_events(blocks, d, theta, np.zeros((3, len(theta)), dtype=np.int32))
            assert [len(days) for days in blocks.held] == [n_days - 1 - d % n_days] * 3


class TestThinnedCounts:
    """The thinned counts have the law of the three-Poisson sampler."""

    @pytest.mark.parametrize("theta", [0.3, 0.9])
    def test_indistinguishable_from_three_poissons(self, theta):
        area = make_area(lambda_star=17.0, xi_base=0.55, alpha=0.04)
        days = event_days(make_scenario(areas=(area,)), range(100), 1_000, theta)
        thinned = [tuple(column) for _, counts in days for column in counts.T.tolist()]
        rng = np.random.default_rng(2024)
        xi = xi_of_theta(theta, area.xi_base)
        direct = [scalar_reference.three_poisson_day(rng, area, xi)[:3] for _ in range(len(thinned))]
        _, p_value, n_cells = two_sample_chisquare(thinned, direct)
        assert n_cells > 20
        assert p_value >= 0.001


class TestSamplerEquivalence:
    """The two-stage multinomial split and the three-Poisson form agree."""

    @staticmethod
    def multinomial_split(rng, lambda_star, xi, alpha):
        # oracle: single task-count Poisson thinned by a 3-way multinomial
        n_task = rng.poisson(lambda_star)
        n_e, n_neg, n_pos = rng.multinomial(
            n_task, (alpha * xi, (1.0 - alpha) * xi, 1.0 - xi)
        )
        return int(n_e), int(n_neg), int(n_pos)

    def test_joint_distributions_indistinguishable(self):
        lambda_star, xi, alpha = 17.0, 0.55, 0.04
        n = 100_000
        rng = np.random.default_rng(2024)
        direct = [sample_event_counts(rng, lambda_star, xi, alpha) for _ in range(n)]
        split = [self.multinomial_split(rng, lambda_star, xi, alpha) for _ in range(n)]
        _, p_value, n_cells = two_sample_chisquare(direct, split)
        assert n_cells > 20
        assert p_value >= 0.001
