"""Workload instances, built on the command line's own configuration path, and
the measured loop that runs them through the public API.

A run has a fixed instance set drawn from the workload seed. Set-up builds
every scenario several times. The first pass runs every instance once and
gives the quality figures; later passes repeat instances, cheapest first,
until the time is up, and every completed repeat must reproduce the first
pass exactly. Timings of a repeated horizon or call are reduced to their
median before the percentiles, so each distinct piece of work counts once.
"""

from __future__ import annotations

import contextlib
import math
import random
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from checks import check_formation, check_pipeline, digest, formation_digest, pipeline_digest

HERE = Path(__file__).resolve().parent
# Each set-up builds this many scenarios: the run's instances and further
# configs drawn the same way. Start sampling rejects draws until the swarm
# is connected, so one N=20 scenario takes 3 to 60 ms to build depending on
# its seed. Across workload seeds, the interquartile range of the summed
# build time is about 0.4 of its median over 8 scenarios, 0.19 over 32.
SETUP_SCENARIOS = 32
# `--out` is required by the parser but never written: the benchmark calls
# the library, not the subcommand
UNUSED_OUT = str(HERE / "out" / "unused")


@dataclass(frozen=True)
class Workload:
    command: str  # CLI subcommand the instances are configured for
    instances: int
    argv: Callable[[int, int], list[str]]  # (instance index, instance seed) -> CLI arguments


WORKLOADS = {
    "obstacles-n5": Workload(
        "plan",
        24,
        lambda i, s: ["--scenario", ("corridor", "blocks")[i % 2], "--robots", "5", "--seed", str(s)],
    ),
    "swarm-n10": Workload(
        "plan", 5, lambda i, s: ["--config", str(HERE / "configs" / "swarm-n10.txt"), "--seed", str(s)]
    ),
    "formation-n20": Workload(
        "mrf-only", 8, lambda i, s: ["--config", str(HERE / "configs" / "formation-n20.txt"), "--seed", str(s)]
    ),
}


class Deadline(Exception):
    """Raised at a horizon boundary once the measuring time is over."""


@dataclass
class Instance:
    label: str
    argv: list[str]
    cfg: object  # ScenarioConfig as `_load_cfg` returns it
    scenario: object = None
    built: object = None  # ScenarioConfig as `build_scenario` completes it
    setup_error: str | None = None
    walls: list[float] = field(default_factory=list)  # seconds per complete program call
    sweeps: list[float] = field(default_factory=list)  # seconds per ICM sweep over all calls (formation)
    outcome: dict | None = None  # first-pass outcome


def make_instances(sp, name: str, seed: int) -> tuple[list[Instance], list[Instance]]:
    """The workload's instances for `seed`, and the further configs that only
    set-up builds (up to SETUP_SCENARIOS in all), configured as the CLI
    configures them: the subcommand's parser, then `_load_cfg`."""
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    parser = sp.cli.make_parser()
    out = []
    for i in range(max(wl.instances, SETUP_SCENARIOS)):
        s = rng.randrange(2**31)
        argv = [wl.command, *wl.argv(i, s), "--out", UNUSED_OUT]
        cfg = sp.cli._load_cfg(parser.parse_args(argv))
        out.append(Instance(f"{cfg.scenario}/{s}", argv[:-2], cfg))
    return out[:wl.instances], out[wl.instances:]


def build_all(sp, instances: list[Instance]) -> float:
    """Build every scenario once and return the summed `build_scenario` time.
    The first build of an instance is the one planned; a set-up error marks
    the instance failed."""
    total = 0.0
    for inst in instances:
        t0 = time.perf_counter()
        try:
            scenario, built = sp.cli.build_scenario(inst.cfg)
        except Exception as exc:  # a program error fails this instance only
            inst.setup_error = f"{type(exc).__name__}: {exc}"
        else:
            if inst.scenario is None:
                inst.scenario, inst.built = scenario, built
        total += time.perf_counter() - t0
    return total


class HorizonClock:
    """Times each receding horizon: `plan_horizon` plus the `execute_fraction`
    that follows it, or `plan_horizon` alone when it ends the run or raises.
    Stops the run at the next horizon once `stop_at` has passed."""

    def __init__(self, rhp):
        self._rhp = rhp
        self._plan, self._execute = rhp.plan_horizon, rhp.execute_fraction
        self.samples: dict[tuple[int, int], list[float]] = defaultdict(list)
        self.stop_at = math.inf
        self._key = (0, 0)
        self._t0 = 0.0

    def start(self, instance: int) -> None:
        self._key = (instance, 0)

    def _done(self) -> None:
        self.samples[self._key].append(time.perf_counter() - self._t0)
        self._key = (self._key[0], self._key[1] + 1)

    def plan_horizon(self, *args, **kwargs):
        if time.perf_counter() >= self.stop_at:
            raise Deadline
        self._t0 = time.perf_counter()
        try:
            plan = self._plan(*args, **kwargs)
        except Exception:
            self._done()
            raise
        if plan.terminal:
            self._done()
        return plan

    def execute_fraction(self, *args, **kwargs):
        try:
            return self._execute(*args, **kwargs)
        finally:
            self._done()

    def patches(self):
        return [
            (self._rhp, "plan_horizon", self.plan_horizon),
            (self._rhp, "execute_fraction", self.execute_fraction),
        ]


def _error(exc: Exception) -> dict:
    reason = f"{type(exc).__name__}: {exc}"
    return {"status": "error", "horizons": None, "reasons": [reason], "incorrect": False,
            "verified": False, "digest": digest(reason)}


def run_pipeline(sp, inst: Instance, clock: HorizonClock, index: int) -> tuple[dict, float]:
    """One `rhp.run`, as `swarmplan plan` runs it, checked by the benchmark."""
    clock.start(index)
    t0 = time.perf_counter()
    try:
        result = sp.rhp.run(inst.scenario, sp.cli.rhp_config(inst.built))
    except Deadline:
        raise
    except Exception as exc:  # a program error fails this instance only
        return _error(exc), time.perf_counter() - t0
    wall = time.perf_counter() - t0
    unsafe, missed = check_pipeline(result, inst.scenario, inst.built)
    verified = not unsafe and not missed
    return {
        "status": result.status,
        "horizons": result.horizons,
        "reasons": unsafe + missed,
        "incorrect": bool(unsafe),
        "verified": verified,
        "mismatch": verified != (result.status == sp.rhp.STATUS_GOAL),
        "makespan_s": float(result.t[-1]) if len(result.t) else 0.0,
        "path_len_m": float(np.linalg.norm(np.diff(result.pos, axis=1), axis=-1).sum())
        * inst.scenario.grid.resolution,
        "digest": pipeline_digest(result),
    }, wall


def run_formation(sp, inst: Instance, clock: HorizonClock, index: int) -> tuple[dict, float]:
    """One `mrf.optimize`, as `swarmplan mrf-only` runs it, checked by the
    benchmark. Hitting the sweep cap is a status, not a failure."""
    mrf, cfg, sc = sp.mrf, inst.built, inst.scenario
    mrf_cfg = mrf.OptimizeConfig(
        k=cfg.k, search_order=cfg.order, r_comm=cfg.r_comm, goal=sc.goal,
        trim_backward=cfg.trim_backward,
    )
    t0 = time.perf_counter()
    try:
        state = mrf.make_state(sc.start, sc.grid, cfg.k, cfg.r_comm)
        paths, trace = mrf.optimize(state, sc.grid, sc.static, sc.iparams, mrf_cfg)
    except Exception as exc:  # a program error fails this instance only
        return _error(exc), time.perf_counter() - t0
    wall = time.perf_counter() - t0
    bad = check_formation(paths, trace, sc, cfg.order)
    return {
        "status": trace.status,
        "horizons": None,
        "sweeps": trace.iterations,
        "sweep_s": list(trace.sweep_seconds),
        "reasons": bad,
        "incorrect": bool(bad),
        "verified": not bad,
        "final_energy": float(trace.energies[-1]),
        "digest": formation_digest(paths, trace),
    }, wall


def measure(sp, name: str, instances: list[Instance], setup_only: list[Instance], seconds: float,
            clock: HorizonClock, traced=contextlib.nullcontext, on_first_pass=None) -> dict:
    """Set up, run the first pass, then repeat instances cheapest first until
    `seconds` have passed. `traced()` is entered around the timed passes.
    Set-up builds the scenarios of `instances` and `setup_only`, once first
    and again after every program call; `setup_sums` holds each set-up's
    summed build time.

    The first repeat always completes and runs outside `traced()`, so every
    run checks determinism; the second repeats the same instance inside
    `traced()`, so a traced run measures its own cost on the same, warm work:
    `check_pair` is (first repeat seconds, second repeat seconds)."""
    run_one = run_formation if WORKLOADS[name].command == "mrf-only" else run_pipeline
    deadline = time.perf_counter() + seconds
    batch = instances + setup_only
    # set-ups are spread over the whole run: on this kind of shared machine
    # the speed drifts, and back-to-back set-ups would all see one moment
    with traced():
        setup_sums = [build_all(sp, batch)]
        for k, inst in enumerate(instances):
            if inst.setup_error is not None:
                inst.outcome = {"status": "setup-error", "horizons": None, "reasons": [inst.setup_error],
                                "incorrect": False, "verified": False, "digest": digest(inst.setup_error)}
            else:
                inst.outcome, wall = run_one(sp, inst, clock, k)
                inst.walls.append(wall)
                inst.sweeps += inst.outcome.pop("sweep_s", [])
            setup_sums.append(build_all(sp, batch))
        if on_first_pass is not None:
            on_first_pass()

    order = sorted((k for k, inst in enumerate(instances) if inst.walls),
                   key=lambda k: instances[k].walls[0])
    mismatched = []

    def again(k: int) -> float:
        outcome, wall = run_one(sp, instances[k], clock, k)
        instances[k].walls.append(wall)
        instances[k].sweeps += outcome.pop("sweep_s", [])
        if outcome["digest"] != instances[k].outcome["digest"]:
            mismatched.append(instances[k].label)
        setup_sums.append(build_all(sp, batch))
        return wall

    if not order:
        return {"repeats": 0, "nondeterministic": [], "check_pair": None, "check_label": None,
                "setup_sums": setup_sums}
    pair = [again(order[0])]
    with traced():
        pair.append(again(order[0]))
        repeats = 2
        clock.stop_at = deadline
        while time.perf_counter() < deadline:
            try:
                again(order[(repeats - 1) % len(order)])
            except Deadline:
                break
            repeats += 1
    clock.stop_at = math.inf
    return {"repeats": repeats, "nondeterministic": sorted(set(mismatched)),
            "check_pair": tuple(pair), "check_label": instances[order[0]].label,
            "setup_sums": setup_sums}


def quality(instances: list[Instance]) -> dict:
    """First-pass figures that depend only on the plans, plus the failure
    accounting."""
    outs = [inst.outcome for inst in instances]
    ok = [o for o in outs if o["verified"]]
    med = lambda xs: statistics.median(xs) if xs else 0.0
    walls = [statistics.median(inst.walls) for inst in instances if inst.walls]
    return {
        "attempted": len(outs),
        "verified": len(ok),
        "incorrect": sum(o["incorrect"] for o in outs),
        "status_mismatch": sum(o.get("mismatch", False) for o in outs),
        "makespan_s": med([o["makespan_s"] for o in ok if "makespan_s" in o]),
        "path_len_m": med([o["path_len_m"] for o in ok if "path_len_m" in o]),
        "final_energy": med([o["final_energy"] for o in outs if "final_energy" in o]),
        "sweeps": sum(o.get("sweeps", 0) for o in outs),
        "program_s": sum(walls),
        "call_s": walls,
    }
