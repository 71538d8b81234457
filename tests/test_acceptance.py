"""Acceptance suite: one test per release criterion, with a printed verdict line each.

The heavyweight ensembles are computed once per session and shared. Every
tolerance is fixed here; the stochastic checks pin their seeds.
"""

import time

import numpy as np
import pytest

from conftest import make_area, make_scenario
from safesim.cli import main
from safesim.engine import run_ensemble, run_simulation
from safesim.metrics import SEVERE_AHL, baseline_asymptote
from safesim.policies import AHL, PHL, make_policy
from safesim.reports import fmt
from safesim.scenario import ScenarioArrays, case_study_path
from scalar_reference import hurt_level, sample_event_counts
from stat_utils import two_sample_chisquare

WEIGHTED_SPEC = "weighted:0.12,0.12,0.12,0.08,0.08,0.28,0.2"

# Reference percentile table: per area, per AHL level, (median, p05, p95)
# of total incident counts over 365 feedback-free days across 100 runs.
REFERENCE_COUNTS = {
    "A": [(70, 57, 85), (49, 38, 62), (19, 13, 27), (3, 1, 6), (0, 0, 0), (0, 0, 0)],
    "B": [(4, 1, 6), (1, 0, 3), (0, 0, 2), (1, 0, 2), (0, 0, 0), (0, 0, 0)],
    "C": [(10, 5, 16), (2, 0, 4), (11, 6, 17), (9, 5, 13), (0, 0, 1), (0, 0, 0)],
    "D": [(0, 0, 2), (1, 0, 2), (0, 0, 2), (0, 0, 2), (0, 0, 0), (0, 0, 0)],
    "E": [(1, 0, 3), (1, 0, 2), (0, 0, 2), (0, 0, 2), (0, 0, 1), (0, 0, 0)],
    "F": [(11, 7, 17), (1, 0, 3), (2, 0, 3), (3, 0, 7), (1, 0, 3), (0, 0, 2)],
    "G": [(6, 3, 11), (1, 0, 4), (1, 0, 2), (1, 0, 2), (0, 0, 1), (0, 0, 0)],
}


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {'PASS' if ok else 'FAIL'} {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def baseline_ensemble(case_study):
    """100-rep feedback-free baseline ensemble, with its wall-clock runtime."""
    scenario = case_study.without_incident_feedback()
    start = time.time()
    summary = run_ensemble(scenario, make_policy("none"), n_reps=100, base_seed=42, horizon=365)
    return summary, time.time() - start


@pytest.fixture(scope="session")
def policy_ensembles(case_study):
    """100-rep ensembles of the four observing policies on the case study."""
    return {
        spec: run_ensemble(case_study, make_policy(spec), n_reps=100, base_seed=42, horizon=365)
        for spec in ("uniform", "counts", "severity", WEIGHTED_SPEC)
    }


class TestCriterion1IncidentCountTable:
    def test_percentiles_match_reference(self, case_study, baseline_ensemble):
        summary, runtime = baseline_ensemble
        misses = []
        for a_idx, area_id in enumerate(case_study.area_ids):
            for j in range(6):
                ref_median, ref_p05, ref_p95 = REFERENCE_COUNTS[area_id][j]
                ours = summary.incident_p50[a_idx, j]
                if ref_median >= 5:
                    ok = ref_p05 <= ours <= ref_p95
                else:
                    ok = abs(ours - ref_median) <= 2
                if not ok:
                    misses.append((area_id, j, int(ours), (ref_median, ref_p05, ref_p95)))
        report(
            "criterion 1: incident-count percentile table",
            not misses,
            f"42 cells checked, runtime {runtime:.1f}s" if not misses else f"misses: {misses}",
        )

    def test_runtime_budget(self, baseline_ensemble):
        _, runtime = baseline_ensemble
        report("criterion 1: runtime under 60 s", runtime < 60.0, f"{runtime:.1f}s")


class TestCriterion2AnalyticVsMonteCarlo:
    N_DAYS = 1_000_000
    SEED = 11  # pinned: several cells sit within ~1 sigma of the stated bands

    def test_expected_counts_match_simulation(self, case_study):
        rng = np.random.default_rng(self.SEED)
        hl_sums = ScenarioArrays.of(case_study).hl_sums
        misses = []
        for area, sums in zip(case_study.areas, hl_sums):
            xi = area.xi_base
            totals = np.zeros(6, dtype=np.int64)
            for _ in range(self.N_DAYS):
                n_e, _, _ = sample_event_counts(rng, area.lambda_star, xi, area.alpha)
                if n_e:  # n_e AHL draws, one uniform each
                    totals += np.bincount(hurt_level(rng.random(n_e), sums[0]), minlength=6)
            mc = totals / self.N_DAYS
            for j in range(6):
                analytic = area.alpha * xi * area.lambda_star * area.hl_probs[j]
                if analytic >= 1e-2:
                    ok = abs(mc[j] - analytic) / analytic <= 0.01
                else:
                    ok = abs(mc[j] - analytic) <= 1e-4
                if not ok:
                    misses.append((area.id, j, mc[j], analytic))
        report(
            "criterion 2: analytic expected counts vs Monte Carlo",
            not misses,
            "42 cells at 1e6 days each" if not misses else f"misses: {misses}",
        )


class TestCriterion3SamplerEquivalence:
    TRIPLES = [(17.0, 0.55, 0.04), (5.0, 0.45, 0.02), (10.0, 0.9, 0.5)]

    @staticmethod
    def multinomial_split(rng, lambda_star, xi, alpha):
        n_task = rng.poisson(lambda_star)
        n_e, n_neg, n_pos = rng.multinomial(
            n_task, (alpha * xi, (1.0 - alpha) * xi, 1.0 - xi)
        )
        return int(n_e), int(n_neg), int(n_pos)

    def test_constructions_indistinguishable(self):
        rng = np.random.default_rng(777)
        n = 100_000
        p_values = []
        for lambda_star, xi, alpha in self.TRIPLES:
            direct = [sample_event_counts(rng, lambda_star, xi, alpha) for _ in range(n)]
            split = [self.multinomial_split(rng, lambda_star, xi, alpha) for _ in range(n)]
            _, p_value, _ = two_sample_chisquare(direct, split)
            p_values.append(p_value)
        report(
            "criterion 3: Poisson-split sampler equivalence",
            all(p >= 0.001 for p in p_values),
            "p-values " + ", ".join(f"{p:.3f}" for p in p_values),
        )


class TestCriterion4XiDynamicsCurve:
    def test_deterministic_curve(self):
        area = make_area(xi_base=0.63, k_decay=0.95, theta0=0.55)
        scenario = make_scenario(areas=(area,))
        trajectory = run_simulation(scenario, make_policy("none"), seed=0, horizon=101)
        xi = trajectory.xi[:, 0]  # xi[t] for t = 0..100
        exact_start = xi[0] == (1 - 0.55) * 0.63 == 0.2835
        increasing = bool(np.all(np.diff(xi) > 0))
        near_base = abs(0.63 - xi[100]) < 0.005
        report(
            "criterion 4: unsafe-fraction dynamics curve",
            exact_start and increasing and near_base,
            f"xi(0)={xi[0]}, xi(100)={xi[100]:.6f}",
        )


class TestCriterion5BaselineDeterminism:
    def test_metric_trajectories_seed_independent(self, case_study):
        runs = [
            run_simulation(case_study, make_policy("none"), seed=seed, horizon=365)
            for seed in (1, 999)
        ]
        as_bytes = [
            "\n".join(
                fmt(loss) + "," + fmt(tail)
                for loss, tail in zip(t.expected_loss, t.tail_prob)
            ).encode()
            for t in runs
        ]
        identical = as_bytes[0] == as_bytes[1] and np.array_equal(
            runs[0].expected_loss, runs[1].expected_loss
        )
        report("criterion 5: baseline metric trajectories seed-independent", identical)

    def test_convergence_to_asymptote(self, case_study):
        loss_limit, _ = baseline_asymptote(case_study)
        trajectory = run_simulation(case_study, make_policy("none"), seed=1, horizon=365)
        gap = abs(trajectory.expected_loss[-1] - loss_limit) / loss_limit
        # The decay is exactly geometric, so the day-365 record's relative gap
        # is theta0 * k^364 = 0.1 * 0.98^364 = 6.4e-5 for these parameters; it
        # first drops below 1e-6 around day 571. Asserted as stated anyway.
        report(
            "criterion 5: baseline loss within 1e-6 of asymptote by day 365",
            gap <= 1e-6,
            f"relative gap {gap:.3e}",
        )


class TestCriterion6PolicyOrdering:
    def test_day365_ensemble_mean_orderings(self, baseline_ensemble, policy_ensembles):
        baseline, _ = baseline_ensemble
        loss = {name: s.mean_expected_loss[-1] for name, s in policy_ensembles.items()}
        tail = {name: s.mean_tail_prob[-1] for name, s in policy_ensembles.items()}
        baseline_loss = baseline.mean_expected_loss[-1]

        weighted_beats_severity = loss[WEIGHTED_SPEC] < loss["severity"]
        all_beat_baseline = all(v < baseline_loss for v in loss.values())
        counts_tail_worse = tail["counts"] >= tail["uniform"]
        report(
            "criterion 6: policy ordering at day 365",
            weighted_beats_severity and all_beat_baseline and counts_tail_worse,
            f"loss: weighted {loss[WEIGHTED_SPEC]:.2f} < severity {loss['severity']:.2f}"
            f" < baseline {baseline_loss:.2f}; tail: counts {tail['counts']:.5f}"
            f" >= random {tail['uniform']:.5f}",
        )


class TestCriterion7HardInvariants:
    def test_invariants_over_policy_battery(self, case_study):
        budget = sum(t.m * t.rho for t in case_study.obs_types)
        checked = 0
        for spec in ("uniform", "counts", "severity", WEIGHTED_SPEC):
            for seed in (0, 1):
                trajectory = run_simulation(case_study, make_policy(spec), seed=seed, horizon=150)
                incidents = trajectory.incidents
                assert np.all(incidents[:, PHL] >= incidents[:, AHL])
                assert np.all(trajectory.theta >= 0.0) and np.all(trajectory.theta <= 1.0)
                recorded = trajectory.obs_pos.sum(axis=(1, 2)) + trajectory.obs_neg.sum(axis=(1, 2))
                assert np.all(recorded <= budget)
                assert np.all(np.abs(trajectory.proportions.sum(axis=2) - 1.0) < 1e-9)
                checked += trajectory.horizon
        report("criterion 7: hard invariants", True, f"{checked} day-records checked")


class TestCriterion8SeverityTable:
    def test_compare_severity_table_consistent_with_ensemble(
        self, tmp_path, baseline_ensemble
    ):
        code = main(
            ["compare", "--scenario", str(case_study_path()), "--policy", "uniform",
             "--reps", "10", "--seed", "42", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "severity_counts.csv").read_text().splitlines()
        assert lines[0] == "policy,ahl0,ahl1,ahl2,ahl3,ahl4,ahl5"
        baseline_row = next(line for line in lines[1:] if line.startswith("none,"))
        cells = np.array([int(v) for v in baseline_row.split(",")[1:]])

        summary, _ = baseline_ensemble
        env_totals = np.sort(summary.incident_totals.sum(axis=1), axis=0)
        p01 = env_totals[0]  # nearest rank ceil(0.01 * 100) = 1
        p99 = env_totals[98]
        ok = bool(np.all((cells >= p01) & (cells <= p99)))
        report(
            "criterion 8: single-run severity table within ensemble bands",
            ok,
            f"cells {cells.tolist()} in [{p01.tolist()}, {p99.tolist()}]",
        )


class TestCriterion9TailProbabilityVsMonteCarlo:
    N_DAYS = 200_000
    CHUNK_DAYS = 20_000  # bounds the incidents held at once in the busiest area
    SEED = 19
    # Two busy areas, mu = alpha * xi * lambda of 18 and 2. There the chance
    # of a severe incident is far from (1 - exp(-mu)) * P(AHL >= 4): 0.996
    # against 0.30, and 0.63 against 0.43.
    BUSY_AREAS = (
        make_area("M18", lambda_star=60.0, xi_base=0.6, alpha=0.5,
                  hl_probs=(0.4, 0.2, 0.1, 0.0, 0.2, 0.1)),
        make_area("M2", lambda_star=10.0, xi_base=0.4, alpha=0.5,
                  hl_probs=(0.3, 0.1, 0.1, 0.0, 0.3, 0.2)),
    )

    def severe_days(self, rng, area, sums):
        """Per simulated day at xi_base, whether the area had an incident with AHL >= 4."""
        severe = np.zeros(self.N_DAYS, dtype=bool)
        mu = area.alpha * area.xi_base * area.lambda_star
        for start in range(0, self.N_DAYS, self.CHUNK_DAYS):
            n_e = rng.poisson(mu, size=self.CHUNK_DAYS)
            ahl = hurt_level(rng.random(n_e.sum()) * sums[-1], sums)
            day = np.repeat(np.arange(self.CHUNK_DAYS), n_e)
            severe[start + day[ahl >= SEVERE_AHL]] = True
        return severe

    def test_tail_probability_matches_simulation(self, case_study):
        rng = np.random.default_rng(self.SEED)
        scenario = make_scenario(areas=case_study.areas + self.BUSY_AREAS)
        any_case_study = np.zeros(self.N_DAYS, dtype=bool)
        cells = []
        for area, sums in zip(scenario.areas, ScenarioArrays.of(scenario).hl_sums[:, 0]):
            severe = self.severe_days(rng, area, sums)
            tail = baseline_asymptote(make_scenario(areas=(area,)))[1]
            cells.append((area.id, severe.mean(), tail))
            if area in case_study.areas:
                any_case_study |= severe
        # areas are independent, so a day of the case study is severe if any area's is
        cells.append(("case study", any_case_study.mean(), baseline_asymptote(case_study)[1]))
        misses = []
        for name, mc, analytic in cells:
            se = np.sqrt(analytic * (1.0 - analytic) / self.N_DAYS)
            if abs(mc - analytic) > 4.0 * se:
                misses.append((name, float(mc), analytic))
        report(
            "criterion 9: analytic tail probability vs Monte Carlo",
            not misses,
            f"{len(cells)} cells at {self.N_DAYS} days each, within 4 standard errors"
            if not misses else f"misses: {misses}",
        )
