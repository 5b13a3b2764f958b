"""The benchmark's own checks of what the program produced, and digests that
pin a plan so that a change which alters it shows."""

from __future__ import annotations

import hashlib
import math

import numpy as np

SEPARATION_TOL = 1e-9


def check_pipeline(result, scenario, cfg) -> tuple[list[str], list[str]]:
    """Check an executed `rhp.run` result.

    Returns (safety failures, goal failures): executed pairwise separation
    below `d_safe`, or an executed sample in an occupied or out-of-map cell,
    is unsafe; a final cell farther than `goal_radius` from the goal is a
    missed goal.
    """
    unsafe: list[str] = []
    grid = scenario.grid
    pos = result.pos  # (robots, samples, 2), cell units
    if pos.shape[1]:
        # pair by pair, so the check adds little to the peak memory measured
        closest = min(
            float(np.linalg.norm(pos[i] - pos[j], axis=-1).min()) * grid.resolution
            for i in range(len(pos))
            for j in range(i + 1, len(pos))
        )
        if closest < cfg.d_safe - SEPARATION_TOL:
            unsafe.append(f"separation {closest:.4f} m < d_safe {cfg.d_safe} m")
        cells = np.rint(pos).astype(int)
        x, y = cells[..., 0], cells[..., 1]
        inside = (x >= 0) & (x < grid.width) & (y >= 0) & (y < grid.height)
        if not inside.all():
            unsafe.append(f"{int((~inside).sum())} executed samples outside the map")
        free = grid.free_mask()
        blocked = int((~free[y[inside], x[inside]]).sum())
        if blocked:
            unsafe.append(f"{blocked} executed samples in occupied cells")

    missed: list[str] = []
    gx, gy = scenario.goal
    for r, cells in enumerate(result.discrete):
        c = cells[-1]
        dist = math.hypot(c[0] - gx, c[1] - gy)
        if dist > cfg.goal_radius:
            missed.append(f"robot {r} ends {dist:.1f} cells from goal")
    return unsafe, missed


def check_formation(paths, trace, scenario, order: int) -> list[str]:
    """Check `mrf.optimize` output: every step's cells are free, in the map
    and pairwise distinct, every move stays in the order-`order` disk, and
    the energy trace has one finite entry per step."""
    grid = scenario.grid
    cells = np.array([p.cells for p in paths])  # (robots, steps, 2)
    bad: list[str] = []
    if len(trace.energies) != cells.shape[1] or not np.all(np.isfinite(trace.energies)):
        bad.append("energy trace does not match the paths")
    x, y = cells[..., 0], cells[..., 1]
    inside = (x >= 0) & (x < grid.width) & (y >= 0) & (y < grid.height)
    if not inside.all() or not grid.free_mask()[y, x].all():
        bad.append("a path cell is occupied or outside the map")
    for step in cells.transpose(1, 0, 2):
        if len({tuple(c) for c in step}) != len(step):
            bad.append("two robots share a cell")
            break
    moves = np.diff(cells, axis=1)
    if np.any((moves**2).sum(axis=-1) > order):
        bad.append("a move leaves the search disk")
    return bad


def digest(*parts) -> str:
    """Short SHA-256 over arrays and plain values, in order."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(str(p.shape).encode())
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def pipeline_digest(result) -> str:
    return digest(result.status, result.horizons, result.discrete, result.t, result.pos)


def formation_digest(paths, trace) -> str:
    return digest(trace.status, [p.cells for p in paths], np.array(trace.energies))
