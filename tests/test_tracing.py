"""The benchmark's per-layer tracer and its horizon clock patch functions
by name; these tests fail here when a name they patch is deleted or
renamed, or stops being called once per horizon, instead of in a
`perfbench/run.py` run. They only read `perfbench/`."""

import importlib.util
import sys
from pathlib import Path

import swarmplan
# the tracer reads these modules as attributes of the package, and
# `import swarmplan` alone does not import `cli`
import swarmplan.cli
import swarmplan.mrf
import swarmplan.rhp
import swarmplan.trajopt

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_module(name, monkeypatch):
    """perfbench/<name>.py, in sys.modules under its own name until the test
    ends: `workloads` imports `checks`, and dataclasses look their module up."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_layer_patches_find_every_name(monkeypatch):
    tracing = load_module("tracing", monkeypatch)
    patches = tracing.layer_patches(tracing.Tracer(), swarmplan)
    before = [owner.__dict__[attr] for owner, attr, _ in patches]
    with tracing.patched(patches):
        for owner, attr, new in patches:
            assert getattr(owner, attr) is new
    assert [owner.__dict__[attr] for owner, attr, _ in patches] == before


def test_horizon_clock_times_every_horizon(monkeypatch):
    # a horizon's sweeps, computed or carried from the previous horizon,
    # run inside the plan_horizon and execute_fraction calls the clock
    # times, one sample per horizon
    load_module("checks", monkeypatch)
    workloads = load_module("workloads", monkeypatch)
    instances, _ = workloads.make_instances(swarmplan, "obstacles-n5", 3)
    inst = instances[0]
    workloads.build_all(swarmplan, [inst])
    clock = workloads.HorizonClock(swarmplan.rhp)
    for owner, attr, new in clock.patches():
        monkeypatch.setattr(owner, attr, new)
    outcome, _ = workloads.run_pipeline(swarmplan, inst, clock, 0)
    assert outcome["horizons"] > 1
    assert sorted(clock.samples) == [(0, h) for h in range(outcome["horizons"])]
    assert all(len(times) == 1 for times in clock.samples.values())
