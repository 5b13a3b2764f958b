"""swarmplan benchmark: verified plans, replan latency and per-layer trace.

    python3 perfbench/run.py --workload obstacles-n5 --seed 0 --seconds 45 --trace 0

Runs one workload (or `all`) through the public API the way `swarmplan plan`
and `swarmplan mrf-only` run it, checks every plan, prints each metric with
its unit and sample count, writes the full record to perfbench/out/, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
`--trace 0` reports the end-to-end metrics with only the horizon boundaries
wrapped; `--trace 1` wraps every layer and reports the per-layer metrics.
The program is imported from src/ next to this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# metric name -> unit; the names and units BENCHMARK.json declares
END_TO_END = {"setup_s": "s", "step_ms_p50": "ms", "peak_rss_mb": "MB"}
SPANS = [
    "cli.build_scenario",
    "cli.generate_scenario",
    "cli.sample_start",
    "fields.build_obstacle_field",
    "fields.build_goal_field",
    "graph.build_interaction_graph",
    "grid.disk_cells",
    "mrf.optimize",
    "mrf.icm_update",
    "mrf.local_search_space",
    "mrf.apply_heuristics",
    "mrf.swarm_energy",
    "paths.prune",
    "trajopt.smooth_and_validate.lookahead",
    "trajopt.smooth_and_validate.executed",
    "trajopt.validate",
    "trajopt.repair",
    "trajopt.min_snap",
    "trajopt.build_qp",
    "trajopt.solve_qp",
    "trajopt.eval",
    "rhp.run",
    "rhp.plan_horizon",
    "rhp.execute_fraction",
]
INCLUSIVE = [
    "trajopt.smooth_and_validate.lookahead",
    "trajopt.smooth_and_validate.executed",
    "trajopt.validate",
    "trajopt.min_snap",
    "mrf.optimize",
]
# first-pass counts: metric -> span or counter name
COUNTS = {
    "trajopt.validate.calls": "trajopt.validate",
    "trajopt.eval.calls": "trajopt.eval",
    "trajopt.min_snap.calls": "trajopt.min_snap",
    "trajopt.repair.calls": "trajopt.repair",
    "trajopt.unrepairable": "trajopt.unrepairable",
    "mrf.icm_update.calls": "mrf.icm_update",
    "graph.build_interaction_graph.calls": "graph.build_interaction_graph",
    "paths.prune.calls": "paths.prune",
    "rhp.horizons": "rhp.plan_horizon",
}
# first-pass ratios: metric -> (numerator, denominator)
RATIOS = {
    "trajopt.validate.pass_ratio": ("trajopt.validate.passed", "trajopt.validate"),
    "mrf.moved_ratio": ("mrf.moved", "mrf.icm_update"),
    "paths.keep_ratio": ("paths.waypoints_kept", "paths.cells_in"),
}


def per_layer_units() -> dict[str, str]:
    units = {f"{s}.self_pct": "%" for s in SPANS}
    units.update({f"{s}.total_pct": "%" for s in INCLUSIVE})
    units.update({m: "count" for m in COUNTS})
    units.update({m: "ratio" for m in RATIOS})
    units["trace.overhead_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


def import_program():
    """Import swarmplan from this checkout's src/, or exit with an error."""
    if not (SRC / "swarmplan" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'swarmplan'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import swarmplan
    import swarmplan.cli
    import swarmplan.mrf
    import swarmplan.rhp
    import swarmplan.trajopt

    if Path(swarmplan.__file__).resolve().parent != SRC / "swarmplan":
        sys.exit(f"error: imported swarmplan from {swarmplan.__file__}, not {SRC}")
    return swarmplan


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
    # numpy's bundled OpenBLAS is already loaded; dlopen returns the same copy
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    env["blas_threads"] = fn()
                    break
            if env["blas_threads"] is not None:
                break
    return env


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(sp, name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np
    import tracing
    import workloads as wl

    instances, setup_only = wl.make_instances(sp, name, seed)
    clock = wl.HorizonClock(sp.rhp)
    tracer, traced, first_pass_done = None, nullcontext, None
    if trace:
        tracer = tracing.Tracer()
        costs = tracing.calibrate()
        # the layer wrappers go on top of the horizon clock's, so they can be
        # taken off for the untraced repeat without touching the clock
        traced = lambda: tracing.patched(tracing.layer_patches(tracer, sp))
        marks = {}
        first_pass_done = lambda: marks.setdefault("calls", tracer.calls_since(marks["first"]))
    with tracing.patched(clock.patches()):
        if tracer is not None:
            marks["first"] = tracer.mark()
        run = wl.measure(sp, name, instances, setup_only, seconds, clock, traced, first_pass_done)
    setup_sums = run["setup_sums"]
    setup_s = statistics.median(setup_sums)

    q = wl.quality(instances)
    formation = wl.WORKLOADS[name].command == "mrf-only"
    rows = []  # (name, value, unit, sample count)
    rows.append(("setup_s", setup_s, "s", len(setup_sums)))
    if formation:
        optimize_s = statistics.median(q["call_s"]) if q["call_s"] else 0.0
        # a planner step of mrf-only is one ICM sweep, as its timing.csv
        # reports it; the median over every sweep of the run is robust to
        # short bursts of machine speed, which a 3 s call averages in
        sweeps = [t for inst in instances for t in inst.sweeps]
        walls = sum(w for inst in instances for w in inst.walls)
        rows += [
            ("step_ms_p50", 1000 * statistics.median(sweeps) if sweeps else 0.0, "ms", len(sweeps)),
            ("sweep_share", sum(sweeps) / walls if walls else 0.0, "ratio", len(sweeps)),
            ("optimize_s", optimize_s, "s", len(q["call_s"])),
            ("sweeps_per_s", q["sweeps"] / q["program_s"] if q["program_s"] else 0.0, "1/s", q["sweeps"]),
            ("final_energy", q["final_energy"], "energy", q["attempted"]),
        ]
    else:
        per_horizon = [statistics.median(v) for v in clock.samples.values()]
        # one long run (a stuck swarm replans up to max_horizons times) would
        # outweigh the rest in a pooled median, so step_ms_p50 gives each
        # instance one vote: the median of its own horizons
        by_instance = {}
        for (k, _), v in clock.samples.items():
            by_instance.setdefault(k, []).append(statistics.median(v))
        votes = [statistics.median(v) for v in by_instance.values()]
        n = len(per_horizon)
        rows += [
            ("step_ms_p50", 1000 * statistics.median(votes) if votes else 0.0, "ms", len(votes)),
            ("horizon_ms_p50", 1000 * statistics.median(per_horizon) if n else 0.0, "ms", n),
        ]
        if n >= 100:
            rows.append(("horizon_ms_p90", 1000 * float(np.quantile(per_horizon, 0.9)), "ms", n))
        minutes = q["program_s"] / 60.0
        rows += [
            ("goals_per_min", q["verified"] / minutes if minutes else 0.0, "1/min", q["verified"]),
            ("goal_rate", q["verified"] / q["attempted"], "ratio", q["attempted"]),
            ("status_mismatch", q["status_mismatch"], "count", q["attempted"]),
            ("makespan_s", q["makespan_s"], "s", q["verified"]),
            ("path_len_m", q["path_len_m"], "m", q["verified"]),
        ]
    rows.append(("peak_rss_mb", peak_rss_mb(), "MB", 1))

    layers = {}
    if tracer is not None:
        layers = layer_metrics(tracer, marks["calls"], costs, run["check_pair"])
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "instances": [
            {"label": i.label, "argv": i.argv, **i.outcome, "call_s": i.walls,
             "horizon_s": [v for (k, _), v in sorted(clock.samples.items()) if k == n]}
            for n, i in enumerate(instances)
        ],
        "repeats": run["repeats"],
        "check_pair": run["check_pair"],
        "check_label": run["check_label"],
        "nondeterministic": run["nondeterministic"],
        "rows": rows,
        "layers": layers,
        "quality": {k: v for k, v in q.items() if k != "call_s"},
        "tracer": tracer,
    }


def layer_metrics(tracer, calls, costs, check_pair) -> dict:
    """Per-layer metrics: self and inclusive time as a share of all traced
    root time (with seconds and calls over the whole traced run), first-pass
    counts and ratios, and the estimated cost of the tracing itself.
    Values are (metric, seconds or None, sample count)."""
    self_s, total_s, root_s = tracer.times()
    all_calls = tracer.calls_since()
    pct = lambda s: 100.0 * s / root_s if root_s else 0.0
    out = {}
    for s in SPANS:
        out[f"{s}.self_pct"] = (pct(self_s.get(s, 0.0)), self_s.get(s, 0.0), all_calls[s])
    for s in INCLUSIVE:
        out[f"{s}.total_pct"] = (pct(total_s.get(s, 0.0)), total_s.get(s, 0.0), all_calls[s])
    for m, key in COUNTS.items():
        out[m] = (calls[key], None, calls[key])
    for m, (num, den) in RATIOS.items():
        out[m] = (calls[num] / calls[den] if calls[den] else 0.0, None, calls[den])
    span_cost, leaf_cost = costs
    overhead = span_cost * tracer.span_count() + leaf_cost * tracer.leaf_count()
    out["trace.overhead_s"] = (overhead, overhead, tracer.span_count() + tracer.leaf_count())
    untraced_s, traced_s = check_pair if check_pair else (0.0, 0.0)
    out["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1) if untraced_s else 0.0, None, 1)
    out["_run_s"] = (total_s.get("rhp.run", 0.0), self_s.get("rhp.run", 0.0))
    out["_root_s"] = root_s
    return out


def report(res: dict, env: dict, seconds: float) -> dict:
    """Print the human-readable table; return the contract's result object."""
    name, insts = res["workload"], res["instances"]
    print(f"== {name}  seed={res['seed']}  trace={res['trace']}  seconds={seconds:g}  "
          f"instances={len(insts)}  repeats={res['repeats']}")
    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    if res["check_pair"]:
        plain, again = res["check_pair"]
        print(f"repeat check on {res['check_label']}: {plain:.3f} s untraced, then "
              f"{again:.3f} s {'traced' if res['trace'] else 'again'}")
    print(f"{'instance':<22}{'status':<16}{'horizons':>9}  {'verified':<9}{'digest':<18}reason")
    for i in insts:
        h = "" if i["horizons"] is None else i["horizons"]
        reason = "; ".join(i["reasons"][:2]) + (" ..." if len(i["reasons"]) > 2 else "")
        print(f"{i['label']:<22}{i['status']:<16}{h!s:>9}  {str(i['verified']):<9}{i['digest']:<18}{reason}")
    print(f"{'metric':<44}{'value':>14}  {'unit':<8}n")
    for m, v, unit, n in res["rows"]:
        print(f"{m:<44}{v:>14.6g}  {unit:<8}{n}")
    layers = res["layers"]
    if layers:
        units = per_layer_units()
        for m, unit in units.items():
            v, secs, n = layers[m]
            extra = f"  ({secs:.4f} s)" if secs is not None and unit == "%" else ""
            print(f"{m:<44}{v:>14.6g}  {unit:<8}{n}{extra}")
        run_s, own_s = layers["_run_s"]
        if run_s:
            print(f"rhp.run traced {run_s:.3f} s: the layers below it account for "
                  f"{100 * (run_s - own_s) / run_s:.2f}%, its own loop for {100 * own_s / run_s:.2f}%")
        print(f"tracing overhead: {layers['trace.overhead_s'][0]:.3f} s estimated from the per-call "
              f"cost ({100 * layers['trace.overhead_s'][0] / layers['_root_s']:.2f}% of traced time); "
              f"{layers['trace.overhead_pct'][0]:.2f}% measured on one instance traced and untraced")

    q = res["quality"]
    incorrect = [i["label"] for i in insts if i["incorrect"]]
    correct = not incorrect and not res["nondeterministic"]
    if incorrect:
        print(f"INCORRECT: unsafe or malformed output on {', '.join(incorrect)}")
    if res["nondeterministic"]:
        print(f"INCORRECT: repeat differs from first pass on {', '.join(res['nondeterministic'])}")
    if layers:
        metrics = {m: {"value": layers[m][0], "unit": u} for m, u in per_layer_units().items()}
    else:
        values = {m: v for m, v, _, _ in res["rows"]}
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
    return {
        "correct": correct,
        "attempted": q["attempted"],
        "failed": q["attempted"] - q["verified"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="obstacles-n5 | swarm-n10 | formation-n20 | all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sp = import_program()
    import workloads as wl

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in wl.WORKLOADS for n in names):
        parser.error(f"unknown workload '{args.workload}'")
    env = environment()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    lines = []
    for name in names:
        res = run_workload(sp, name, args.seed, args.seconds, bool(args.trace))
        summary = report(res, env, args.seconds)
        tracer = res.pop("tracer")
        if tracer is not None:
            tracer.save(out_dir / f"{name}.spans.npz")
        record = {**res, "env": env, "result": summary}
        path = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, default=str) + "\n")
        lines.append(json.dumps(summary))
    # the contract's result is the last line of standard output
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
