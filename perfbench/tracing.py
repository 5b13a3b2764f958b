"""In-memory span tracing installed from outside the program.

Each wrapped function records a span (name, parent span, start, end) when it
is called. The hottest leaves (trajectory evaluation, single-robot ICM
updates, disk enumeration, QP build and solve) are called hundreds of
thousands of times per run; storing one span each would cost tens of
megabytes, so a leaf is counted and timed into its parent span instead.

Names are patched where the caller looks them up: `rhp` imports `optimize`,
`prune` and `smooth_and_validate` by name, `cli` imports the field builders
by name, and `mrf`/`trajopt` call their own module globals.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter

import numpy as np

perf_counter = time.perf_counter


class Tracer:
    """Spans in compact arrays plus per-name leaf totals and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.leaf_time = array("d")  # time of aggregated leaves under each span
        self._stack: list[int] = []
        self.leaf_calls: Counter = Counter()
        self.leaf_seconds: Counter = Counter()
        self.counters: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name_of.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.leaf_time.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        return self.names[self.name_of[self._stack[-1]]] if self._stack else None

    def wrap(self, name: str, fn, on_return=None):
        """Span around every call of `fn`; `on_return(args, result)` updates
        counters from the call's arguments and result."""

        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if on_return is not None:
                on_return(args, out)
            return out

        return traced

    def wrap_leaf(self, name: str, fn, on_return=None):
        """Count and time `fn` into the enclosing span; `fn` must call no
        other traced function."""
        self._id(name)

        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.leaf_calls[name] += 1
                self.leaf_seconds[name] += dt
                if self._stack:
                    self.leaf_time[self._stack[-1]] += dt
            if on_return is not None:
                on_return(args, out)
            return out

        return traced

    def mark(self) -> tuple[int, Counter, Counter]:
        """Position to diff counts against (span index, leaf calls, counters)."""
        return len(self.start), Counter(self.leaf_calls), Counter(self.counters)

    def calls_since(self, mark=None) -> Counter:
        """Calls per span name and counter values since `mark` (default: the
        start)."""
        first, leaf_calls, counters = mark or (0, Counter(), Counter())
        out = Counter()
        ids = np.frombuffer(self.name_of, dtype=np.int32)[first:]
        for nid, c in enumerate(np.bincount(ids, minlength=len(self.names))):
            out[self.names[nid]] += int(c)
        out.update(self.leaf_calls)
        out.subtract(leaf_calls)
        out.update(self.counters)
        out.subtract(counters)
        return out

    def times(self) -> tuple[dict[str, float], dict[str, float], float]:
        """(self seconds per name, inclusive seconds per name, root seconds).

        A span's self time is its duration minus its child spans and the
        aggregated leaves it called; self times partition the root spans.
        """
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        ids = np.frombuffer(self.name_of, dtype=np.int32)
        child = parent >= 0
        own = dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        own -= np.frombuffer(self.leaf_time, dtype=np.float64)
        k = len(self.names)
        self_s = np.bincount(ids, weights=own, minlength=k)
        total_s = np.bincount(ids, weights=dur, minlength=k)
        self_by = {n: float(self_s[i]) for i, n in enumerate(self.names)}
        total_by = {n: float(total_s[i]) for i, n in enumerate(self.names)}
        for n, s in self.leaf_seconds.items():
            self_by[n] = total_by[n] = float(s)
        return self_by, total_by, float(dur[~child].sum())

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_of=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            leaf_time=np.frombuffer(self.leaf_time, dtype=np.float64),
        )

    def span_count(self) -> int:
        return len(self.start)

    def leaf_count(self) -> int:
        return sum(self.leaf_calls.values())


@contextlib.contextmanager
def patched(patches):
    """Set `(owner, attribute, replacement)` triples; restore on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def layer_patches(tracer: Tracer, sp) -> list:
    """Wrappers around the public functions of every layer, at the names the
    program calls them by. `sp` is the imported `swarmplan` package."""
    cli, rhp, mrf, trajopt = sp.cli, sp.rhp, sp.mrf, sp.trajopt
    count = tracer.counters

    def validate_done(args, report):
        count["trajopt.validate.passed"] += not report

    def prune_done(args, pruned):
        count["paths.cells_in"] += sum(len(p.cells) for p in args[0])
        count["paths.waypoints_kept"] += sum(len(p.waypoints) for p in pruned)

    def icm_done(args, cell):
        state, i = args[0], args[1]
        count["mrf.moved"] += cell != state.positions[i]

    sav = rhp.smooth_and_validate

    def smooth_and_validate(*args, **kwargs):
        # the caller tells the two uses apart: full-horizon lookahead in
        # plan_horizon, the executed fraction in execute_fraction
        use = "lookahead" if tracer.current() == "rhp.plan_horizon" else "executed"
        i = tracer.open(f"trajopt.smooth_and_validate.{use}")
        try:
            return sav(*args, **kwargs)
        except trajopt.UnrepairableError:
            count["trajopt.unrepairable"] += 1
            raise
        finally:
            tracer.close(i)

    w, leaf = tracer.wrap, tracer.wrap_leaf
    graph = w("graph.build_interaction_graph", mrf.build_interaction_graph)
    return [
        (cli, "build_scenario", w("cli.build_scenario", cli.build_scenario)),
        (cli, "generate_scenario", w("cli.generate_scenario", cli.generate_scenario)),
        (cli, "sample_start", w("cli.sample_start", cli.sample_start)),
        (cli, "build_obstacle_field", w("fields.build_obstacle_field", cli.build_obstacle_field)),
        (cli, "build_goal_field", w("fields.build_goal_field", cli.build_goal_field)),
        (cli, "build_interaction_graph", graph),
        (rhp, "run", w("rhp.run", rhp.run)),
        (rhp, "plan_horizon", w("rhp.plan_horizon", rhp.plan_horizon)),
        (rhp, "execute_fraction", w("rhp.execute_fraction", rhp.execute_fraction)),
        (rhp, "optimize", w("mrf.optimize", rhp.optimize)),
        (rhp, "prune", w("paths.prune", rhp.prune, prune_done)),
        (rhp, "smooth_and_validate", smooth_and_validate),
        (mrf, "optimize", w("mrf.optimize", mrf.optimize)),
        (mrf, "build_interaction_graph", graph),
        (mrf, "local_search_space", w("mrf.local_search_space", mrf.local_search_space)),
        (mrf, "apply_heuristics", w("mrf.apply_heuristics", mrf.apply_heuristics)),
        (mrf, "swarm_energy", w("mrf.swarm_energy", mrf.swarm_energy)),
        (mrf, "icm_update", leaf("mrf.icm_update", mrf.icm_update, icm_done)),
        (mrf, "disk_cells", leaf("grid.disk_cells", mrf.disk_cells)),
        (trajopt, "validate", w("trajopt.validate", trajopt.validate, validate_done)),
        (trajopt, "repair", w("trajopt.repair", trajopt.repair)),
        (trajopt, "min_snap", w("trajopt.min_snap", trajopt.min_snap)),
        (trajopt, "build_qp", leaf("trajopt.build_qp", trajopt.build_qp)),
        (trajopt, "solve_qp", leaf("trajopt.solve_qp", trajopt.solve_qp)),
        (trajopt.PolynomialTrajectory, "eval", leaf("trajopt.eval", trajopt.PolynomialTrajectory.eval)),
    ]


def _noop(x):
    return x


def calibrate(n: int = 20000) -> tuple[float, float]:
    """Seconds a span and an aggregated leaf add to one call, measured on a
    no-op function with a throwaway tracer (median of five batches)."""
    def batch(fn):
        t0 = perf_counter()
        for i in range(n):
            fn(i)
        return (perf_counter() - t0) / n

    bare, spans, leaves = [], [], []
    for _ in range(5):
        t = Tracer()
        bare.append(batch(_noop))
        spans.append(batch(t.wrap("span", _noop)))
        leaves.append(batch(t.wrap_leaf("leaf", _noop)))
    b = float(np.median(bare))
    return max(float(np.median(spans)) - b, 0.0), max(float(np.median(leaves)) - b, 0.0)
