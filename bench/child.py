"""One workload instance, run in a fresh single-threaded Python process.

Usage: python3 child.py SPEC_JSON RESULT_JSON

SPEC_JSON names the workload inputs (see workloads.Inputs), the source tree
to import safesim from, the output directory and the mode:

  setup  stop at the first simulated day: measures set-up alone
  run    run the workload to completion with nothing wrapped
  trace  run it with the span tracer installed

RESULT_JSON receives CLOCK_MONOTONIC timestamps (comparable with the
parent's, which took the spawn time) of the first simulated day and of the
end of the workload, the peak RSS, and in trace mode the per-layer totals.
"""

import json
import os
import resource
import sys
import time

# EnsembleSummary arrays the parent checks for the library workload.
SUMMARY_ARRAYS = (
    "mean_expected_loss",
    "mean_tail_prob",
    "incident_p05",
    "incident_p50",
    "incident_p95",
)


def _mark_first_day(modules, on_first):
    """Call on_first when the engine is first entered, then unwrap at once.

    run_simulation and run_ensemble are the engine's public entry points;
    the first call starts day 1 of the first replication. The wrappers put
    the originals back before calling them, so the run itself is untouched.
    """
    patched = [
        (module, name, getattr(module, name))
        for module in modules
        for name in ("run_simulation", "run_ensemble")
        if hasattr(module, name)
    ]
    if not patched:
        raise RuntimeError("safesim has no run_simulation or run_ensemble to mark set-up end")

    def marker(original):
        def first_call(*args, **kwargs):
            for module, name, fn in patched:
                setattr(module, name, fn)
            on_first()
            return original(*args, **kwargs)

        return first_call

    for module, name, fn in patched:
        setattr(module, name, marker(fn))


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    import numpy as np

    from safesim import cli, engine, policies, scenario

    inputs, mode, out_dir = spec["inputs"], spec["mode"], spec["out_dir"]
    result = {"mode": mode, "safesim_dir": os.path.dirname(cli.__file__)}

    def write_result():
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump(result, handle)

    def first_day():
        result["t_first_day"] = time.monotonic()
        if mode == "setup":
            write_result()
            os._exit(0)

    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        _mark_first_day([engine, cli], first_day)

    scenario_path = os.path.join(out_dir, "scenario.json")
    horizon, reps, seed = inputs["horizon"], inputs["reps"], inputs["sim_seed"]

    def workload():
        common = ["--scenario", scenario_path, "--seed", str(seed), "--horizon", str(horizon)]
        common += ["--reps", str(reps), "--out-dir", out_dir]
        if inputs["workload"] == "compare":
            argv = ["compare"] + common
            for spec_name in inputs["policies"][1:]:  # the CLI adds "none" itself
                argv += ["--policy", spec_name]
            return cli.main(argv)
        if inputs["workload"] == "table2":
            return cli.main(["table2"] + common)
        with open(scenario_path, encoding="utf-8") as handle:
            loaded = scenario.load_scenario(handle.read())
        built = [(name, policies.make_policy(name)) for name in inputs["policies"]]
        for name, policy in built:
            summaries[name] = engine.run_ensemble(
                loaded, policy, n_reps=reps, base_seed=seed, horizon=horizon
            )
        return 0

    summaries = {}
    rc = tracer.run(workload) if tracer else workload()
    result["t_end"] = time.monotonic()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["rc"] = rc
    for name, summary in summaries.items():
        np.savez(
            os.path.join(out_dir, f"summary_{name}.npz"),
            **{key: getattr(summary, key) for key in SUMMARY_ARRAYS},
        )
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layer_totals()
        result["counts"] = tracer.layer_counts()
        tracer.save(spec["spans_path"])
    write_result()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
