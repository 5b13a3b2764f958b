"""
Full receding-horizon run through a narrow corridor
===================================================

Five robots start in a tight cluster below a wall with a narrow gap and
must regroup on the far side. Each horizon: a few coordinate-descent
sweeps over the swarm energy, then partial execution as transitions of the
whole swarm between its formation shapes, each checked exactly for
separation and run on one smoothstep timing.
"""

import numpy as np

from swarmplan.cli import ScenarioConfig, build_scenario, rhp_config
from swarmplan.rhp import metrics, run

scenario, cfg = build_scenario(ScenarioConfig(scenario="corridor", seed=0))
print(f"map {scenario.grid.width}x{scenario.grid.height}, goal {scenario.goal}")
print("start cells:", [tuple(c) for c in scenario.start])

result = run(scenario, rhp_config(cfg))
print(f"\nstatus: {result.status} after {result.horizons} horizons")

m = metrics(result)
print(f"executed samples: {len(m.t)}  (t = 0 .. {m.t[-1]:.2f} s)")
print(f"min inter-robot distance over the run: {m.min_dist.min():.3f} m")
print("path lengths:", np.round(m.path_lengths, 2))

# the classic profile: the cluster expands first, squeezes through the
# corridor, then regroups
third = len(m.t) // 3
print(f"min distance at t=0:            {m.min_dist[0]:.3f} m")
print(f"max min-distance, first third:  {m.min_dist[:third].max():.3f} m")

# coarse trace of the swarm centroid
for idx in range(0, len(m.t), max(1, len(m.t) // 12)):
    c = result.pos[:, idx, :].mean(axis=0)
    print(f"  t={m.t[idx]:7.2f}  centroid ({c[0]:5.1f}, {c[1]:5.1f})  min_d {m.min_dist[idx]:.2f}")
