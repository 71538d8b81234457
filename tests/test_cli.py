import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import safesim
from conftest import (
    EDGE_WEIGHTS,
    NON_FINITE_CASES,
    case_study_text_with,
    make_area,
    make_obs_type,
    make_scenario,
)
from safesim import cli, policies, reports
from safesim.cli import main
from safesim.engine import run_ensemble, run_simulation
from safesim.policies import Policy, make_policy
from safesim.metrics import baseline_asymptote
from safesim.reports import fmt, render_timeseries_svg, write_compare_csv, write_trajectory_csv
from safesim.scenario import case_study_path

SCENARIO = str(case_study_path())


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def read_columns(path):
    header, *rows = read_csv(path)
    return {name: [row[j] for row in rows] for j, name in enumerate(header)}


class RefusedFromDay3(Policy):
    """Uniform observers on days 1 and 2, then 0.5 for every area: 3.5 in all on the case study."""

    name = "bad"

    def decide(self, history, rng):
        share = 0.5 if history.current_day >= 3 else 1 / history.n_areas
        return dict.fromkeys(history.obs_type_ids, np.full(history.n_areas, share))


class PeekingPastLookback(Policy):
    """Declares a 5-day lookback, then reads a 6-day window."""

    name = "peek"
    lookback_days = 5

    def read(self, history):
        return history.window(6)

    def decide(self, history, rng):
        self.read(history)
        return None


# what a PeekingPastLookback may read instead, and how the refusal names it
PAST_THE_LOOKBACK = {
    "window": ("a window of 6 days", PeekingPastLookback.read),
    "incidents": ("the whole incident log (incidents)", lambda self, history: history.incidents),
    "obs_pos": ("obs_pos", lambda self, history: history.obs_pos),
    "obs_neg": ("obs_neg", lambda self, history: history.obs_neg),
}


class NegativeLookback(PeekingPastLookback):
    lookback_days = -1


class GlobalDraw(Policy):
    """Fields no observers, after a draw from numpy's global generator."""

    name = "global"

    def decide(self, history, rng):
        np.random.random()
        return None


class TestFmt:
    def test_integers_verbatim(self):
        assert fmt(7) == "7"
        assert fmt(np.int64(12)) == "12"

    def test_six_significant_digits(self):
        assert fmt(19.01353049999) == "19.0135"
        assert fmt(0.00582914321) == "0.00582914"
        assert fmt(0.0) == "0"


class TestRunCommand:
    def test_writes_one_row_per_day(self, tmp_path):
        code = main(
            ["run", "--scenario", SCENARIO, "--policy", "none", "--horizon", "365",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        rows = read_csv(tmp_path / "trajectory.csv")
        assert len(rows) == 366  # header + 365 days
        header = rows[0]
        assert header[0] == "day"
        assert "theta_A" in header and "xi_G" in header
        assert "obs_neg_BPO_G" in header
        assert header[-2:] == ["expected_loss", "tail_prob"]

    def test_same_seed_gives_byte_identical_csv(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(
                ["run", "--scenario", SCENARIO, "--policy", "uniform", "--seed", "7",
                 "--horizon", "50", "--out-dir", str(out)]
            ) == 0
            outputs.append((out / "trajectory.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_unknown_policy_exits_2_listing_names(self, tmp_path, capsys):
        code = main(
            ["run", "--scenario", SCENARIO, "--policy", "bogus", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "uniform" in err and "severity" in err

    @staticmethod
    def assert_unreadable(path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read scenario file {str(path)!r}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_missing_scenario_file_exits_2(self, tmp_path, capsys):
        self.assert_unreadable(tmp_path / "nope.json", tmp_path, capsys)

    def test_scenario_directory_exits_2(self, tmp_path, capsys):
        self.assert_unreadable(tmp_path, tmp_path, capsys)

    def test_non_utf8_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"areas": [{"id": "Kühlraum"}]}'.encode("latin-1"))
        self.assert_unreadable(path, tmp_path, capsys)

    @staticmethod
    def assert_refused(path, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: scenario file {str(path)!r}: {message}\n"
        assert not out.exists()

    def test_truncated_scenario_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "trunc.json"
        path.write_text('{"areas": [')
        self.assert_refused(path, "line 1, column 12: Expecting value", tmp_path, capsys)

    def test_empty_object_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        self.assert_refused(path, "top level: missing required field 'areas'", tmp_path, capsys)

    def test_repeated_field_names_the_file(self, tmp_path, capsys):
        # a JSON decoder keeps the last of two equal keys unless told otherwise
        path = tmp_path / "repeated.json"
        text = case_study_path().read_text(encoding="utf-8")
        path.write_text(text.replace('"k_decay": 0.98', '"k_decay": 0.98, "k_decay": 0.5', 1))
        self.assert_refused(path, "field 'k_decay' is given twice in one object", tmp_path, capsys)

    def test_integer_past_the_digit_limit_names_the_file(self, tmp_path, capsys):
        # past Python's 4,300-digit limit for int(), json.loads raises a plain ValueError;
        # a Python without the limit parses it and refuses it as not finite
        path = tmp_path / "huge.json"
        text = case_study_path().read_text(encoding="utf-8")
        path.write_text(text.replace('"lambda_star": 17', '"lambda_star": 1' + "0" * 5000, 1))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out-dir", str(out)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: scenario file {str(path)!r}: ")
        assert not out.exists()

    def test_deep_nesting_names_the_file(self, tmp_path, capsys):
        # past the decoder's recursion limit
        path = tmp_path / "deep.json"
        path.write_text('{"areas": ' + "[" * 1000 + "]" * 1000 + ', "obs_types": []}')
        self.assert_refused(path, "nested too deeply to parse", tmp_path, capsys)

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"areas": [], "obs_types": []}))
        code = main(["run", "--scenario", str(bad), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "at least one safety area" in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        assert main(["run"]) == 2  # --scenario is required
        assert main(["run", "--scenario", SCENARIO, "--horizon", "0"]) == 2
        assert main(["table2", "--scenario", SCENARIO, "--reps", "0"]) == 2
        assert main(["run", "--scenario", SCENARIO, "--policy", "weighted:nan,1"]) == 2
        assert main(["run", "--scenario", SCENARIO, "--policy", "weighted:0.5,0.5"]) == 2
        assert main(["run", "--scenario", SCENARIO, "--seed", "-1"]) == 2

    def test_negative_seed_exits_2_before_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        for command in ("run", "table2", "compare"):
            argv = [command, "--scenario", SCENARIO, "--seed", "-3", "--out-dir", str(out)]
            assert main(argv + (["--policy", "uniform"] if command == "compare" else [])) == 2
            assert "must be >= 0, got -3" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("obj,index,field,value", NON_FINITE_CASES)
    def test_non_finite_scenario_exits_2_before_output(self, obj, index, field, value, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(case_study_text_with(obj, index, field, value), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(path), "--horizon", "2", "--out-dir", str(out)])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "obj,field,value,message",
        [
            ("areas", "lambda_star", 1e300, "lambda_star must be in (0, 1e6], got 1e+300"),
            ("obs_types", "m", 2**63, f"m * rho must be <= 1e6, got {2**63}"),
        ],
    )
    def test_per_day_bound_exits_2_before_output(self, obj, field, value, message, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(case_study_text_with(obj, 0, field, value), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["run", "--scenario", str(path), "--policy", "uniform", "--horizon", "2"]
        assert main(argv + ["--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_weight_count_checked_before_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        for argv in (
            ["run", "--policy", "weighted:0.5,0.5"],
            ["compare", "--reps", "1", "--policy", "uniform", "--policy", "weighted:0.5,0.5"],
        ):
            code = main(argv + ["--scenario", SCENARIO, "--out-dir", str(out)])
            assert code == 2
            assert "2 weights" in capsys.readouterr().err
            assert not out.exists()

    def test_horizon_too_long_to_preallocate_exits_2(self, tmp_path, capsys):
        # 10**12 days fail at once: no allocation of that size is attempted in part
        code = main(
            ["run", "--scenario", SCENARIO, "--horizon", str(10**12), "--out-dir", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: horizon of 1000000000000 days")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("horizon", [2**31, 10**18])
    def test_horizon_past_the_int32_day_exits_2(self, tmp_path, capsys, horizon):
        # past the int32 DAY column of the incident log; 10**18 days of any column
        # are more bytes than numpy can address
        out = tmp_path / "out"
        argv = ["run", "--scenario", SCENARIO, "--horizon", str(horizon), "--out-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: horizon of {horizon} days ") and err.count("\n") == 1
        assert not out.exists()

    def test_refused_horizon_creates_no_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        for command in ("run", "table2", "compare"):
            argv = [command, "--scenario", SCENARIO, "--horizon", str(10**12), "--out-dir", str(out)]
            assert main(argv + (["--policy", "uniform"] if command == "compare" else [])) == 2
            assert "too long to preallocate" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "command,reps,message",
        [
            # numpy refuses the size before it asks for memory: "array is too big"
            ("table2", 10**15, "1000000000000000 replications x 365 days x 7 areas "),
            # past the index range: the count of seeds has no length
            ("compare", 10**19, f"more than {np.iinfo(np.intp).max} replications x 365 days x 7 areas "),
        ],
        ids=["array-too-big", "past-the-index-range"],
    )
    def test_batch_too_large_to_preallocate_exits_2(self, tmp_path, capsys, command, reps, message):
        out = tmp_path / "out"
        argv = [command, "--scenario", SCENARIO, "--reps", str(reps), "--out-dir", str(out)]
        assert main(argv + (["--policy", "uniform"] if command == "compare" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}is too large to preallocate") and err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_weights_print_one_error_line(self, tmp_path):
        # a child process, so that stderr also holds anything a numpy warning prints
        argv = ["run", "--scenario", SCENARIO, "--policy", "weighted:1e308,1e308,0,0,0,0,0",
                "--horizon", "2", "--out-dir", str(tmp_path / "out")]
        env = {**os.environ, "PYTHONPATH": str(Path(safesim.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-m", "safesim", *argv], capture_output=True, text=True, env=env
        )
        assert result.returncode == 2
        assert result.stderr == "error: weights must sum to 1, got inf\n"
        assert not (tmp_path / "out").exists()

    def test_weights_at_the_sum_tolerance_exit_2_before_output(self, tmp_path, capsys):
        # the case study widened to ten areas, one per weight
        path = tmp_path / "scenario.json"
        doc = json.loads(case_study_path().read_text(encoding="utf-8"))
        doc["areas"] += [{**area, "id": area["id"] + "2"} for area in doc["areas"][:3]]
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        weights = ",".join(repr(w) for w in EDGE_WEIGHTS)
        argv = ["run", "--scenario", str(path), "--policy", f"weighted:{weights}", "--horizon", "2"]
        assert main(argv + ["--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: weights must sum to 1, got 1.000000001\n"
        assert not out.exists()

    def test_scenario_without_observation_types_runs(self, tmp_path):
        path = tmp_path / "scenario.json"
        doc = json.loads(case_study_path().read_text(encoding="utf-8"))
        doc["obs_types"] = []
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["run", "--scenario", str(path), "--policy", "uniform", "--horizon", "3"]
        assert main(argv + ["--out-dir", str(out)]) == 0
        rows = read_csv(out / "trajectory.csv")
        assert len(rows) == 4
        assert "theta_A" in rows[0] and not any(name.startswith("obs_") for name in rows[0])

    def test_unwritable_out_dir_exits_1(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(
            ["run", "--scenario", SCENARIO, "--out-dir", str(blocker / "sub")]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "command,out_dir",
        [("compare", "file"), ("run", "file/sub"), ("table2", "file/sub")],
        ids=["compare-file", "run-under-file", "table2-under-file"],
    )
    def test_out_dir_that_cannot_be_a_directory_refused_before_the_run(
        self, tmp_path, capsys, monkeypatch, command, out_dir
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("simulated before the --out-dir was checked")

        monkeypatch.setattr(cli, "run_simulation", no_run)
        monkeypatch.setattr(cli, "run_ensemble", no_run)
        (tmp_path / "file").write_text("x")
        argv = [command, "--scenario", SCENARIO, "--out-dir", str(tmp_path / out_dir)]
        assert main(argv + (["--policy", "uniform"] if command == "compare" else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --out-dir ") and "is not a directory" in err
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
        assert (tmp_path / "file").read_text() == "x"

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_decision_refused_mid_run_exits_1(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setitem(policies._REGISTRY, "bad", RefusedFromDay3)
        out = tmp_path / "out"
        argv = [command, "--scenario", SCENARIO, "--policy", "bad", "--horizon", "5", "--out-dir", str(out)]
        assert main(argv + (["--reps", "2"] if command == "compare" else [])) == 1
        assert capsys.readouterr().err == "error: proportions must sum to 1, got 3.5\n"
        assert not out.exists()


    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("rule", [*PAST_THE_LOOKBACK, "global-generator"])
    def test_policy_breaking_a_rule_exits_1(self, tmp_path, capsys, monkeypatch, command, rule):
        if rule == "global-generator":
            policy = GlobalDraw
            message = ("policy 'global' drew from numpy's or Python's global random generator on day 1; "
                       "a policy draws only from the rng that decide is handed")
        else:
            what, read = PAST_THE_LOOKBACK[rule]
            policy = type("Peeking", (PeekingPastLookback,), {"read": read})
            message = f"policy 'peek' declares lookback_days = 5, so it cannot read {what}"
        monkeypatch.setitem(policies._REGISTRY, policy.name, policy)
        out = tmp_path / "out"
        argv = [command, "--scenario", SCENARIO, "--policy", policy.name, "--horizon", "5", "--out-dir", str(out)]
        assert main(argv + (["--reps", "2"] if command == "compare" else [])) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_invalid_lookback_exits_2(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setitem(policies._REGISTRY, "peek", NegativeLookback)
        out = tmp_path / "out"
        argv = [command, "--scenario", SCENARIO, "--policy", "peek", "--horizon", "5", "--out-dir", str(out)]
        assert main(argv + (["--reps", "2"] if command == "compare" else [])) == 2
        message = "policy 'peek': lookback_days, if not None, must be an integer >= 0, got -1"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestTable2Command:
    def test_layout_and_degenerate_percentiles(self, tmp_path):
        code = main(
            ["table2", "--scenario", SCENARIO, "--reps", "1", "--seed", "3",
             "--horizon", "120", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        rows = read_csv(tmp_path / "table2.csv")
        assert rows[0][:4] == ["area", "ahl0_median", "ahl0_p05", "ahl0_p95"]
        assert [r[0] for r in rows[1:]] == list("ABCDEFG")
        for row in rows[1:]:
            for j in range(6):
                median, p05, p95 = row[1 + 3 * j : 4 + 3 * j]
                assert median == p05 == p95  # single rep: all percentiles equal

    def test_area_d_top_severity_is_zero(self, tmp_path):
        # severity level 5 has zero probability in area D
        code = main(
            ["table2", "--scenario", SCENARIO, "--reps", "8", "--seed", "3",
             "--horizon", "365", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        rows = read_csv(tmp_path / "table2.csv")
        row_d = next(r for r in rows[1:] if r[0] == "D")
        assert row_d[16:19] == ["0", "0", "0"]  # ahl5 median, p05, p95


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("compare")
    code = main(
        ["compare", "--scenario", SCENARIO, "--policy", "uniform",
         "--policy", "weighted:0.12,0.12,0.12,0.08,0.08,0.28,0.2",
         "--reps", "4", "--seed", "11", "--horizon", "60", "--out-dir", str(out_dir)]
    )
    assert code == 0
    return out_dir


class TestCompareCommand:
    def test_baseline_always_included(self, out):
        assert (out / "compare_none.csv").is_file()
        assert (out / "compare_uniform.csv").is_file()
        assert (out / "compare_weighted_0.12-0.12-0.12-0.08-0.08-0.28-0.2.csv").is_file()

    def test_baseline_band_is_zero(self, out):
        rows = read_csv(out / "compare_none.csv")
        std_loss = [float(r[2]) for r in rows[1:]]
        std_tail = [float(r[4]) for r in rows[1:]]
        assert all(v == 0.0 for v in std_loss + std_tail)

    def test_severity_table_layout(self, out):
        rows = read_csv(out / "severity_counts.csv")
        assert rows[0] == ["policy", "ahl0", "ahl1", "ahl2", "ahl3", "ahl4", "ahl5"]
        assert [r[0] for r in rows[1:]] == [
            "none", "uniform", "weighted:0.12,0.12,0.12,0.08,0.08,0.28,0.2"
        ]
        for row in rows[1:]:
            assert all(int(cell) >= 0 for cell in row[1:])

    def test_svgs_written(self, out):
        for name in ("expected_loss.svg", "tail_probability.svg"):
            text = (out / name).read_text()
            assert text.startswith("<svg")
            assert "asymptote" in text

    def test_svg_regeneration_from_csv_is_identical(self, out, case_study):
        # The plots draw the values the CSVs print: rendering the CSVs' columns gives their bytes
        specs = ["none", "uniform", "weighted:0.12,0.12,0.12,0.08,0.08,0.28,0.2"]
        columns = [read_columns(out / f"compare_{cli._safe_label(spec)}.csv") for spec in specs]
        colors = [reports.BASELINE_COLOR, reports.PALETTE[1], reports.PALETTE[2]]
        limits = baseline_asymptote(case_study)
        for (metric, file_name, title, y_label), asymptote in zip(reports._METRIC_PLOTS, limits):
            series = []
            for spec, c, color in zip(specs, columns, colors):
                mean, std = (np.array([float(v) for v in c[f"{stat}_{metric}"]]) for stat in ("mean", "std"))
                series.append((spec, mean, std, color))
            svg = render_timeseries_svg(series, asymptote, title, y_label)
            assert svg.encode("utf-8") == (out / file_name).read_bytes(), file_name

    def test_plots_drawn_without_reading_a_csv_back(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("compare read a CSV back")

        monkeypatch.setattr(reports.csv, "reader", refuse)
        code = main(
            ["compare", "--scenario", SCENARIO, "--policy", "counts",
             "--reps", "2", "--seed", "5", "--horizon", "10", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "compare_counts.csv", "compare_none.csv", "expected_loss.svg", "severity_counts.csv",
            "tail_probability.svg",
        ]

    def test_deterministic_given_flags_and_seed(self, tmp_path):
        digests = []
        for name in ("x", "y"):
            out_dir = tmp_path / name
            assert main(
                ["compare", "--scenario", SCENARIO, "--policy", "counts",
                 "--reps", "3", "--seed", "5", "--horizon", "30", "--out-dir", str(out_dir)]
            ) == 0
            digests.append(
                tuple(
                    (out_dir / f).read_bytes()
                    for f in ("compare_none.csv", "compare_counts.csv", "severity_counts.csv",
                              "expected_loss.svg", "tail_probability.svg")
                )
            )
        assert digests[0] == digests[1]

    def test_repeated_policy_runs_once(self, tmp_path, capsys):
        code = main(
            ["compare", "--scenario", SCENARIO, "--policy", "uniform", "--policy", "uniform",
             "--policy", "none", "--reps", "1", "--horizon", "3", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        written = capsys.readouterr().out
        assert written == "".join(
            f"wrote {tmp_path / name}\n"
            for name in ("compare_none.csv", "compare_uniform.csv", "severity_counts.csv",
                         "expected_loss.svg", "tail_probability.svg")
        )
        rows = read_csv(tmp_path / "severity_counts.csv")
        assert [r[0] for r in rows[1:]] == ["none", "uniform"]
        for name in ("expected_loss.svg", "tail_probability.svg"):
            assert (tmp_path / name).read_text().count("<polyline") == 2

    def test_requires_at_least_one_policy(self):
        assert main(["compare", "--scenario", SCENARIO]) == 2

    def test_single_day_plots_at_the_centre(self, tmp_path):
        code = main(
            ["compare", "--scenario", SCENARIO, "--policy", "counts",
             "--reps", "3", "--seed", "7", "--horizon", "1", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        for name in ("compare_none.csv", "compare_counts.csv"):
            assert [row[0] for row in read_csv(tmp_path / name)] == ["day", "1"]
        for name in ("expected_loss.svg", "tail_probability.svg"):
            text = (tmp_path / name).read_text()
            points = [line.split('points="')[1].split('"')[0] for line in text.splitlines()
                      if line.startswith("<polyline")]
            assert len(points) == 2
            assert all(p.count(",") == 1 and p.startswith("381.00,") for p in points)
            assert '<text x="381.00" y="466" text-anchor="middle" font-size="11">1</text>' in text

    def test_four_policies_plus_baseline_give_five_curves(self, tmp_path):
        code = main(
            ["compare", "--scenario", SCENARIO, "--policy", "uniform", "--policy", "counts",
             "--policy", "severity", "--policy", "weighted:0.12,0.12,0.12,0.08,0.08,0.28,0.2",
             "--reps", "2", "--seed", "1", "--horizon", "15", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        for name in ("expected_loss.svg", "tail_probability.svg"):
            assert (tmp_path / name).read_text().count("<polyline") == 5


class TestCsvColumns:
    """Each CSV column holds the array it names, on 3 areas and 2 observation types."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return make_scenario(
            areas=[make_area(area_id=a) for a in "PQR"],
            obs_types=[make_obs_type(type_id=t, m=4) for t in ("T1", "T2")],
            horizon_days=20,
        )

    def test_trajectory_columns(self, scenario, tmp_path):
        trajectory = run_simulation(scenario, make_policy("uniform"), seed=5)
        assert trajectory.obs_pos.any() and trajectory.obs_neg.any()
        write_trajectory_csv(trajectory, tmp_path / "trajectory.csv")
        expected = {"day": range(1, 21)}
        for i, area in enumerate("PQR"):
            for field in ("theta", "xi", "n_e", "n_neg", "n_pos"):
                expected[f"{field}_{area}"] = getattr(trajectory, field)[:, i]
            for k, type_id in enumerate(("T1", "T2")):
                for field in ("obs_pos", "obs_neg"):
                    expected[f"{field}_{type_id}_{area}"] = getattr(trajectory, field)[:, k, i]
        for field in ("expected_loss", "tail_prob"):
            expected[field] = getattr(trajectory, field)
        columns = read_columns(tmp_path / "trajectory.csv")
        assert sorted(columns) == sorted(expected)
        for name, values in expected.items():
            assert columns[name] == [fmt(v) for v in values], name

    def test_compare_columns(self, scenario, tmp_path):
        summary = run_ensemble(scenario, make_policy("counts"), n_reps=3, base_seed=2)
        write_compare_csv(summary, tmp_path / "compare.csv")
        columns = read_columns(tmp_path / "compare.csv")
        fields = ["mean_expected_loss", "std_expected_loss", "mean_tail_prob", "std_tail_prob"]
        assert list(columns) == ["day", *fields]
        assert columns["day"] == [str(d) for d in range(1, 21)]
        for name in fields:
            assert columns[name] == [fmt(v) for v in getattr(summary, name)], name


# Run in a child process: it imports safesim.cli and runs a small ensemble, so
# that the modules numpy.random imports lazily on the first draw count too, and
# prints the top-level names of the modules imported after its start-up. Modules
# made in memory by compiled extensions (Cython's runtime modules in numpy.random)
# have no __spec__: the import system loaded nothing for them.
IMPORTS_OF_A_RUN = """
import sys
start = set(sys.modules)
import safesim.cli
from safesim.engine import run_ensemble
from safesim.policies import make_policy
from safesim.scenario import case_study_path, load_scenario_file
scenario = load_scenario_file(case_study_path())
run_ensemble(scenario, make_policy("counts"), n_reps=2, base_seed=1, horizon=3)
imported = [name for name in set(sys.modules) - start if getattr(sys.modules[name], "__spec__", None)]
print(" ".join(sorted({name.partition(".")[0] for name in imported})))
"""


def test_the_package_imports_numpy_and_the_standard_library_alone():
    # pyproject.toml declares numpy as the only dependency; the test environment
    # has more installed, so only a run can show that nothing else is imported.
    env = {**os.environ, "PYTHONPATH": str(Path(safesim.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", IMPORTS_OF_A_RUN], capture_output=True, text=True, env=env, check=True
    )
    imported = set(result.stdout.split())
    assert imported - set(sys.stdlib_module_names) == {"numpy", "safesim"}
