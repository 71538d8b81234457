"""Benchmark workloads: inputs derived from the workload seed, and output checks.

Every workload instance is run by a fresh child process (child.py). The code
here runs in the parent: it builds the child's inputs before the child starts
and checks the files the child leaves behind after it exits. The checks read
only the program's public outputs (CSV files, and for the library workload
the EnsembleSummary arrays), so they stay valid when the program's random
stream changes.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("compare", "table2", "dense-long")  # why each: see README.md

CASE_STUDY = Path("src") / "safesim" / "data" / "case_study.json"
COMPARE_POLICIES = ("uniform", "counts", "severity", "weighted:0.12,0.12,0.12,0.08,0.08,0.28,0.2")
DENSE_POLICIES = ("counts", "severity")

# Work done by one child process. Sized so that a compare or table2 child
# takes a few seconds and many fit in one measured run.
SIZES = {
    "compare": {"reps": 2, "horizon": 365},
    "table2": {"reps": 10, "horizon": 365},
    "dense-long": {"reps": 1, "horizon": 3650},
}
DENSE_AREAS = 24

N_HURT_LEVELS = 6
LOSS_TOL = 1e-9


@dataclass(frozen=True)
class Inputs:
    """Everything one child receives, derived from the workload seed alone."""

    workload: str
    seed: int
    sim_seed: int
    reps: int
    horizon: int
    policies: tuple[str, ...]
    scenario_text: str

    @property
    def rep_days(self) -> int:
        return self.reps * self.horizon * len(self.policies)


def make_inputs(root: Path, workload: str, seed: int, reps=None, horizon=None) -> Inputs:
    """Derive the simulation seed and the scenario text from the workload seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")
    size = SIZES[workload]
    reps = size["reps"] if reps is None else reps
    horizon = size["horizon"] if horizon is None else horizon
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    sim_seed = int(rng.integers(2**31))
    if workload == "dense-long":
        text = json.dumps(dense_scenario(rng, DENSE_AREAS, horizon), indent=2)
        policies = DENSE_POLICIES
    else:
        text = (root / CASE_STUDY).read_text(encoding="utf-8")
        # compare always adds the no-observation baseline; table2 runs only it.
        policies = ("none",) + COMPARE_POLICIES if workload == "compare" else ("none",)
    return Inputs(workload, seed, sim_seed, reps, horizon, policies, text)


def dense_scenario(rng: np.random.Generator, n_areas: int, horizon: int) -> dict:
    """A generated scenario with few, large activity pools per area.

    Each area draws lambda* ~ U[100, 300], xi_base ~ U[0.05, 0.6] and
    alpha ~ U[0.005, 0.05]. The draws are stratified across areas (a Latin
    hypercube): every area's value is still uniform on its range, but the
    scenario-wide totals, and so the work per simulated day, vary little
    from one seed to the next.
    """

    def stratified(low: float, high: float) -> np.ndarray:
        u = (rng.permutation(n_areas) + rng.random(n_areas)) / n_areas
        return low + (high - low) * u

    lam, xi, alpha = stratified(100, 300), stratified(0.05, 0.6), stratified(0.005, 0.05)
    return {
        "areas": [
            {
                "id": f"Z{i:02d}",
                "lambda_star": float(lam[i]),
                "xi_base": float(xi[i]),
                "alpha": float(alpha[i]),
                "k_decay": 0.98,
                "theta0": 0.1,
                "hl_probs": rng.dirichlet(np.ones(N_HURT_LEVELS)).tolist(),
            }
            for i in range(n_areas)
        ],
        "obs_types": [
            {"id": f"T{j}", "m": 20, "rho": 4, "delta_neg": 0.005, "eta_pos": eta_pos, "eta_neg": 100}
            for j, eta_pos in enumerate((100, 150, 200))
        ],
        "delta_e": 0.0,
        "loss_vector": [0, 1, 10, 100, 1000, 10000],
        "horizon_days": horizon,
    }


def scenario_provenance(inputs: Inputs) -> dict:
    """Identify the input: the serialize_scenario sha256, area count and mean lambda*."""
    from safesim.scenario import load_scenario, serialize_scenario

    scenario = load_scenario(inputs.scenario_text)
    canonical = serialize_scenario(scenario).encode("utf-8")
    return {
        "scenario_sha256": hashlib.sha256(canonical).hexdigest(),
        "n_areas": scenario.n_areas,
        "mean_lambda_star": float(np.mean([a.lambda_star for a in scenario.areas])),
    }


# ---------------------------------------------------------------- checks


def _loss_weights(doc: dict) -> np.ndarray:
    """Per area: alpha * lambda* * xi_base * sum_j c_j p_j (the loss at theta = 0)."""
    c = np.array(doc.get("loss_vector", [0, 1, 10, 100, 1000, 10000]), dtype=float)
    return np.array(
        [a["alpha"] * a["lambda_star"] * a["xi_base"] * float(c @ np.array(a["hl_probs"])) for a in doc["areas"]]
    )


def asymptote_loss(doc: dict) -> float:
    """Expected daily loss in the fully decayed state, computed from the scenario text."""
    return float(_loss_weights(doc).sum())


def closed_form_none_loss(doc: dict, horizon: int) -> np.ndarray:
    """Expected loss per day with no observers: theta(t) = theta0 * k^(t-1) exactly."""
    t = np.arange(horizon)[:, None]
    theta0 = np.array([a["theta0"] for a in doc["areas"]])
    k = np.array([a["k_decay"] for a in doc["areas"]])
    return ((1.0 - theta0 * k**t) * _loss_weights(doc)).sum(axis=1)


def round6(x: float) -> float:
    """The value as the program's CSVs print it: 6 significant digits."""
    return float(format(float(x), ".6g"))


def csv_label(spec: str) -> str:
    """File-name label the CLI gives a policy spec."""
    return spec.replace(":", "_").replace(",", "-").replace("/", "-")


class Checks:
    """Output checks attempted and failed, with the names of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, name: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return bool(ok)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _series_checks(checks: Checks, where: str, loss, tail, horizon: int, asym: float) -> None:
    """Invariants every per-day series of the ensemble metrics keeps."""
    loss, tail = np.asarray(loss, dtype=float), np.asarray(tail, dtype=float)
    checks.check(len(loss) == horizon and len(tail) == horizon, f"{where}: {horizon} days")
    checks.check(bool(np.all(np.isfinite(loss)) and np.all(np.isfinite(tail))), f"{where}: finite")
    checks.check(bool(np.all((tail >= 0.0) & (tail <= 1.0))), f"{where}: 0 <= tail <= 1")
    checks.check(bool(np.all(loss <= asym * (1 + LOSS_TOL))), f"{where}: loss <= asymptote")


def _percentile_checks(checks: Checks, where: str, p05, p50, p95, n_areas: int) -> None:
    """Incident-count percentiles are non-negative integers with p05 <= median <= p95."""
    p05, p50, p95 = (np.asarray(p, dtype=float) for p in (p05, p50, p95))
    shape = (n_areas, N_HURT_LEVELS)
    if not checks.check(p05.shape == p50.shape == p95.shape == shape, f"{where}: shape {shape}"):
        return
    values = np.stack([p05, p50, p95])
    checks.check(bool(np.all(values >= 0) and np.all(values == np.round(values))), f"{where}: integers >= 0")
    checks.check(bool(np.all(p05 <= p50) and np.all(p50 <= p95)), f"{where}: p05 <= median <= p95")


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def check_outputs(inputs: Inputs, out_dir: Path, exit_ok: bool) -> Checks:
    """Check one child's outputs against the workload's invariants."""
    checks = Checks()
    if not checks.check(exit_ok, "exit code 0"):
        return checks
    doc = json.loads(inputs.scenario_text)
    n_areas = len(doc["areas"])
    if inputs.workload == "compare":
        _check_compare(checks, inputs, out_dir, doc)
    elif inputs.workload == "table2":
        path = out_dir / "table2.csv"
        if checks.check(path.is_file(), "table2.csv written"):
            rows = _read_csv(path)
            checks.check(len(rows) == n_areas, f"table2.csv: {n_areas} area rows")
            cells = {
                q: [[float(r[f"ahl{j}_{q}"]) for j in range(N_HURT_LEVELS)] for r in rows]
                for q in ("p05", "median", "p95")
            }
            _percentile_checks(checks, "table2.csv", cells["p05"], cells["median"], cells["p95"], n_areas)
    else:
        asym = asymptote_loss(doc)
        for spec in inputs.policies:
            path = out_dir / f"summary_{spec}.npz"
            if not checks.check(path.is_file(), f"{path.name} written"):
                continue
            with np.load(path) as s:
                _series_checks(checks, path.name, s["mean_expected_loss"], s["mean_tail_prob"], inputs.horizon, asym)
                _percentile_checks(checks, path.name, s["incident_p05"], s["incident_p50"], s["incident_p95"], n_areas)
    return checks


def _check_compare(checks: Checks, inputs: Inputs, out_dir: Path, doc: dict) -> None:
    asym = round6(asymptote_loss(doc))  # rounding is monotone, so loss <= asym survives it
    names = [f"compare_{csv_label(spec)}.csv" for spec in inputs.policies]
    names += ["severity_counts.csv", "expected_loss.svg", "tail_probability.svg"]
    written = {name: checks.check((out_dir / name).is_file(), f"{name} written") for name in names}
    for spec in inputs.policies:
        name = f"compare_{csv_label(spec)}.csv"
        if not written[name]:
            continue
        rows = _read_csv(out_dir / name)
        col = {key: np.array([float(r[key]) for r in rows]) for key in rows[0]} if rows else {}
        if not checks.check(len(rows) == inputs.horizon, f"{name}: {inputs.horizon} rows"):
            continue
        _series_checks(checks, name, col["mean_expected_loss"], col["mean_tail_prob"], inputs.horizon, asym)
        if spec == "none":
            expected = np.array([round6(v) for v in closed_form_none_loss(doc, inputs.horizon)])
            rel = np.abs(col["mean_expected_loss"] - expected) / np.abs(expected)
            checks.check(bool(np.all(rel <= LOSS_TOL)), f"{name}: closed-form theta0 * k^t loss")
            # Replications without observers are identical; np.std of identical
            # values is 0 up to rounding in the mean (about 1e-14 at 100 reps).
            zero_std = all(
                np.all(col[f"std_{key}"] <= LOSS_TOL * np.abs(col[f"mean_{key}"]))
                for key in ("expected_loss", "tail_prob")
            )
            checks.check(bool(zero_std), f"{name}: zero std")
