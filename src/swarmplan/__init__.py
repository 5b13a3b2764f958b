"""Multi-robot swarm path planning.

Potential-field swarm energies minimized over a k-nearest interaction
graph's maximal cliques (coordinate descent), executed under a
receding-horizon loop as synchronized straight-line transitions of the
whole swarm; waypoint paths can be smoothed into minimum-snap polynomial
trajectories.
"""

from .fields import (
    GoalParams,
    InteractionParams,
    ObstacleParams,
    ScalarField,
    build_goal_field,
    build_obstacle_field,
    equilibrium_distance,
    goal_energy,
    interaction_energy,
    static_field,
    zero_field,
)
from .graph import (
    InteractionGraph,
    build_interaction_graph,
    check_connectivity_condition,
    maximal_cliques,
)
from .grid import (
    BinaryObstacleMap,
    Cell,
    OccupancyGrid,
    disk_cells,
    load_map,
    threshold_map,
)
from .mrf import (
    DiscretePath,
    EnergyTrace,
    OptimizeConfig,
    Sweep,
    SwarmState,
    apply_heuristics,
    clique_energy,
    icm_update,
    local_search_space,
    make_state,
    optimize,
    paths_noncrossing_check,
    swarm_energy,
    sweeps,
)
from .paths import PrunedPath, line_of_sight, prune, segments_intersect, supercover_cells
from .rhp import RhpConfig, RunResult, Scenario, execute_fraction, metrics, plan_horizon, run
from .trajopt import (
    PolynomialTrajectory,
    TimeAllocation,
    allocate_times,
    build_qp,
    min_snap,
    sample,
    solve_qp,
    validate,
)

__version__ = "0.1.0"
