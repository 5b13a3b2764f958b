"""Potential-field tests: Morse pair interaction, goal attractor, Gaussian
obstacle smoothing, and field composition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmplan.fields import (
    GoalParams,
    InteractionParams,
    ObstacleParams,
    ScalarField,
    build_goal_field,
    build_obstacle_field,
    dump_field,
    equilibrium_distance,
    equilibrium_distance_of,
    gaussian_kernel,
    goal_energy,
    interaction_energy,
    min_offset,
    morse_potential,
    render_combined_field,
    static_field,
    zero_field,
)
from swarmplan.grid import BinaryObstacleMap, OccupancyGrid, threshold_map


DEFAULTS = (0.7, 0.9, 14.0, 4.0)


def test_morse_potential_formula_point_values():
    # [DERIVED] hand-evaluated: -0.7*exp(-10/14) + 0.9*exp(-10/4)
    a, b, la, lr = DEFAULTS
    expected = -a * math.exp(-10 / la) + b * math.exp(-10 / lr)
    assert morse_potential(10.0, *DEFAULTS) == pytest.approx(expected, abs=1e-15)


def test_morse_potential_at_zero_is_amplitude_difference():
    # [TRIVIAL] both exponentials are 1 at distance zero.
    a, b, *_ = DEFAULTS
    assert morse_potential(0.0, *DEFAULTS) == pytest.approx(b - a, abs=1e-15)


def test_morse_potential_accepts_arrays():
    d = np.array([0.0, 5.0, 10.0])
    vals = morse_potential(d, *DEFAULTS)
    assert vals.shape == (3,)
    for x, v in zip(d, vals):
        assert v == pytest.approx(morse_potential(float(x), *DEFAULTS))


def test_equilibrium_distance_matches_dense_scan():
    # [DERIVED] oracle: scan distances on a 1e-3 grid and take the argmin,
    # independent of the closed-form expression under test.
    d_star = equilibrium_distance_of(*DEFAULTS)
    grid = np.arange(0.001, 30.0, 0.001)
    vals = morse_potential(grid, *DEFAULTS)
    scan_min = float(grid[np.argmin(vals)])
    assert d_star == pytest.approx(scan_min, abs=1e-3)
    assert d_star == pytest.approx(8.4228, abs=1e-3)


def test_equilibrium_is_stationary_point():
    d_star = equilibrium_distance_of(*DEFAULTS)
    h = 1e-6
    deriv = (
        morse_potential(d_star + h, *DEFAULTS) - morse_potential(d_star - h, *DEFAULTS)
    ) / (2 * h)
    assert abs(deriv) < 1e-9


@given(
    a=st.floats(0.1, 2.0),
    ratio=st.floats(1.0, 3.0),
    lr=st.floats(1.0, 6.0),
    stretch=st.floats(1.5, 6.0),
)
@settings(max_examples=60, deadline=None)
def test_equilibrium_scan_property(a, ratio, lr, stretch):
    b = a * ratio
    la = lr * stretch
    if not (b * lr) / (a * la) < 1:
        return
    d_star = equilibrium_distance_of(a, b, la, lr)
    grid = np.arange(0.001, max(60.0, 3 * d_star), 0.001)
    vals = morse_potential(grid, a, b, la, lr)
    assert d_star == pytest.approx(float(grid[np.argmin(vals)]), abs=2e-3)


def test_min_offset_is_well_depth():
    depth = min_offset(*DEFAULTS)
    d_star = equilibrium_distance_of(*DEFAULTS)
    assert depth == pytest.approx(-morse_potential(d_star, *DEFAULTS), abs=1e-12)
    assert depth > 0


def test_default_offset_makes_energy_strictly_positive():
    params = InteractionParams()
    assert params.offset == pytest.approx(1.1 * min_offset(*DEFAULTS))
    d = np.arange(0.0, 100.0, 0.01)
    vals = morse_potential(d, *DEFAULTS) + params.offset
    assert np.all(vals > 0)


def test_interaction_energy_uses_euclidean_distance():
    params = InteractionParams()
    e = interaction_energy((0.0, 0.0), (3.0, 4.0), params)
    expected = morse_potential(5.0, *DEFAULTS) + params.offset
    assert e == pytest.approx(expected, abs=1e-15)
    # symmetric in its arguments
    assert e == interaction_energy((3.0, 4.0), (0.0, 0.0), params)


def test_equilibrium_distance_of_params():
    params = InteractionParams()
    assert equilibrium_distance(params) == pytest.approx(
        equilibrium_distance_of(*DEFAULTS)
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"attract_amp": 0.0},
        {"repulse_amp": -1.0},
        {"attract_len": 0.0},
        {"repulse_len": -2.0},
        {"attract_amp": 1.0, "repulse_amp": 0.5},  # repulse < attract
        {"attract_len": 4.0, "repulse_len": 4.0},  # lengths not ordered
        {"attract_amp": 0.7, "repulse_amp": 0.9, "attract_len": 5.0, "repulse_len": 4.0},
        {"offset": 0.0},  # below the well depth
    ],
)
def test_interaction_params_validation(kwargs):
    with pytest.raises(ValueError):
        InteractionParams(**kwargs)


def test_goal_energy_minimum_at_goal():
    params = GoalParams(goal=(4.0, 7.0))
    assert goal_energy((4.0, 7.0), params) == pytest.approx(params.amp)
    assert goal_energy((5.0, 7.0), params) > params.amp


def test_goal_energy_formula():
    params = GoalParams(goal=(0.0, 0.0), amp=2.0, length_scale=10.0)
    assert goal_energy((6.0, 8.0), params) == pytest.approx(2.0 * math.exp(1.0))


# NaN fails every comparison, so the checks test `not x > 0`
@pytest.mark.parametrize("kwargs", [{"amp": 0.0}, {"length_scale": -1.0}, {"amp": math.nan}, {"length_scale": math.nan}])
def test_goal_params_validation(kwargs):
    with pytest.raises(ValueError):
        GoalParams(goal=(0.0, 0.0), **kwargs)


def test_gaussian_kernel_normalized_and_symmetric():
    for sigma in (0.5, 1.0, 2.3):
        k = gaussian_kernel(sigma)
        r = math.ceil(3 * sigma)
        assert k.shape == (2 * r + 1, 2 * r + 1)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(k, k.T)
        assert np.allclose(k, k[::-1, ::-1])
        assert k[r, r] == k.max()


def test_obstacle_field_matches_direct_convolution():
    # [DERIVED] oracle: direct double-loop convolution with constant padding,
    # written independently of scipy.
    grid = OccupancyGrid(
        prob=np.array(
            [
                [0.0, 0.0, 0.9, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 0.0],
                [0.0, 0.6, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 0.0],
            ]
        ),
        resolution=1.0,
    )
    params = ObstacleParams(sigma=1.0, occupied_value=5.0)
    m_hat = threshold_map(grid, params.occupied_value)
    out = build_obstacle_field(m_hat, params).value

    k = gaussian_kernel(params.sigma)
    r = k.shape[0] // 2
    h, w = m_hat.value.shape
    expected = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    yy, xx = y + dy, x + dx
                    src = (
                        m_hat.value[yy, xx]
                        if 0 <= yy < h and 0 <= xx < w
                        else params.occupied_value
                    )
                    acc += src * k[r + dy, r + dx]
            expected[y, x] = acc
    assert np.allclose(out, expected, atol=1e-12)


def test_obstacle_field_border_padding_repels():
    # An all-free map still has positive energy near the border because
    # out-of-map cells are treated as occupied.
    grid = OccupancyGrid(prob=np.zeros((9, 9)), resolution=1.0)
    params = ObstacleParams(sigma=1.0, occupied_value=5.0)
    out = build_obstacle_field(threshold_map(grid, params.occupied_value), params)
    assert out.at((0, 0)) > out.at((4, 4))
    assert out.at((0, 0)) > 0


def test_obstacle_field_peak_on_occupied_cell():
    prob = np.zeros((11, 11))
    prob[5, 5] = 1.0
    grid = OccupancyGrid(prob=prob, resolution=1.0)
    params = ObstacleParams(sigma=1.0, occupied_value=5.0)
    out = build_obstacle_field(threshold_map(grid, params.occupied_value), params)
    inner = out.value[2:-2, 2:-2]  # away from border padding
    assert np.unravel_index(np.argmax(inner), inner.shape) == (3, 3)


@pytest.mark.parametrize(
    "kwargs", [{"sigma": 0.0}, {"occupied_value": -1.0}, {"sigma": math.nan}, {"occupied_value": math.nan}]
)
def test_obstacle_params_validation(kwargs):
    with pytest.raises(ValueError):
        ObstacleParams(**kwargs)


def test_build_goal_field_samples_goal_energy_at_cells():
    grid = OccupancyGrid(prob=np.zeros((4, 6)), resolution=1.0)
    params = GoalParams(goal=(2.5, 1.5), amp=3.0, length_scale=20.0)
    f = build_goal_field(grid, params)
    assert f.value.shape == (4, 6)
    for y in range(4):
        for x in range(6):
            assert f.at((x, y)) == pytest.approx(goal_energy((x, y), params))


def test_static_field_is_cellwise_sum():
    a = ScalarField(value=np.ones((3, 3)))
    b = ScalarField(value=np.full((3, 3), 2.0))
    assert np.array_equal(static_field(a, b).value, np.full((3, 3), 3.0))


def test_static_field_rejects_shape_mismatch():
    a = ScalarField(value=np.ones((3, 3)))
    b = ScalarField(value=np.ones((3, 4)))
    with pytest.raises(ValueError):
        static_field(a, b)


def test_zero_field_matches_grid_shape():
    grid = OccupancyGrid(prob=np.zeros((5, 7)), resolution=1.0)
    f = zero_field(grid)
    assert f.value.shape == (5, 7)
    assert not f.value.any()


def test_scalar_field_validation():
    with pytest.raises(ValueError):
        ScalarField(value=np.array([1.0, 2.0]))  # not 2D
    with pytest.raises(ValueError):
        ScalarField(value=np.array([[-0.1]]))  # negative


def test_render_combined_field_adds_pair_terms():
    static = ScalarField(value=np.zeros((6, 6)))
    iparams = InteractionParams()
    out = render_combined_field(static, [(1.0, 1.0), (4.0, 4.0)], iparams)
    # Oracle: evaluate the two pair terms at one cell by hand.
    expected = sum(
        interaction_energy((2.0, 3.0), p, iparams) for p in [(1.0, 1.0), (4.0, 4.0)]
    )
    assert out.at((2, 3)) == pytest.approx(expected, abs=1e-12)


def test_dump_field_format():
    f = ScalarField(value=np.array([[0.0, 1.5], [2.0, 3.25]]))
    text = dump_field(f)
    lines = text.splitlines()
    assert lines[0] == "field 2 2"
    assert [float(v) for v in lines[1].split()] == [0.0, 1.5]
    assert [float(v) for v in lines[2].split()] == [2.0, 3.25]
    assert text.endswith("\n")


def test_binary_obstacle_map_validation():
    with pytest.raises(ValueError):
        BinaryObstacleMap(value=np.array([[0.0, 2.0]]), occupied_value=5.0)
    with pytest.raises(ValueError):
        BinaryObstacleMap(value=np.zeros((2, 2)), occupied_value=0.0)
