import dataclasses
import math

import numpy as np
import pytest

from nlfem import ConfigError, get_case
from nlfem.cli import RunConfig, _execute


def test_sin_1d_values():
    case = get_case("sin1d")
    assert case.source(np.array([[0.25]]))[0] == pytest.approx(4 * math.pi**2)
    assert case.solution(np.array([[0.0]]))[0] == pytest.approx(0.0, abs=1e-15)
    d = 0.02
    assert case.solution(np.array([[-d]]))[0] == pytest.approx(math.sin(-2 * math.pi * d))
    assert case.solution_and_gradient(np.array([[0.0]]))[1][0][0] == pytest.approx(2 * math.pi)


def test_linear_1d_values():
    case = get_case("linear1d")
    pts = np.array([[0.3], [1.02], [-0.02]])
    assert np.allclose(case.source(pts), 0.0)
    assert case.solution(np.array([[1.02]]))[0] == pytest.approx(1.02)
    assert np.allclose(case.solution_and_gradient(pts)[1][0], 1.0)


def test_sin_2d_values():
    case = get_case("sin2d")
    p = np.array([[0.25, 0.25]])
    assert case.source(p)[0] == pytest.approx(8 * math.pi**2)
    edge = np.array([[0.0, 0.3], [1.0, 0.7]])
    assert np.allclose(case.solution(edge), 0.0, atol=1e-12)
    assert np.allclose(case.solution_and_gradient(p)[1], 0.0, atol=1e-12)


@pytest.mark.parametrize("name", ["sin1d", "linear1d", "sin2d"])
def test_solution_and_gradient_share_one_evaluation(name):
    """The gradient of the one evaluation matches differences of its values."""
    case = get_case(name)
    pts = np.random.default_rng(7).uniform(-0.05, 1.05, size=(200, case.dim))
    _, grad = case.solution_and_gradient(pts)
    assert len(grad) == case.dim
    step = 1e-6
    for axis, g in enumerate(grad):
        e = np.zeros(case.dim)
        e[axis] = step
        assert g.shape == (len(pts),)
        fd = (case.solution(pts + e) - case.solution(pts - e)) / (2 * step)
        assert np.abs(g - fd).max() <= 1e-7 * max(np.abs(g).max(), 1.0)


@pytest.mark.parametrize("name", ["sin1d", "linear1d", "sin2d"])
def test_source_is_negative_laplacian(name):
    case = get_case(name)
    rng = np.random.default_rng(123)
    pts = rng.uniform(0.05, 0.95, size=(100, case.dim))
    step = 1e-4
    lap = np.zeros(len(pts))
    for axis in range(case.dim):
        e = np.zeros(case.dim)
        e[axis] = step
        lap += (case.solution(pts + e) - 2 * case.solution(pts)
                + case.solution(pts - e)) / step**2
    scale = np.abs(case.source(pts)).max()
    assert np.abs(-lap - case.source(pts)).max() <= 1e-5 * max(scale, 1.0)


@pytest.mark.parametrize("name,h,delta", [
    ("sin1d", 0.125, 0.25),
    ("sin2d", 0.25, 0.25),
])
def test_boundary_data_equals_solution_on_constraint_nodes(name, h, delta):
    """A run takes its Dirichlet layer data from the case's solution."""
    case = get_case(name)
    config = RunConfig.from_dict({"dimension": case.dim, "kernel": "constant", "case": name,
                                  "m": round(delta / h), "h": [h], "outer_points": 1,
                                  "points_per_radius": 2})
    result = _execute(config, h)
    mesh = result.system.mesh
    constraint = mesh.constraint_nodes
    assert np.array_equal(result.node_values[constraint],
                          case.solution(mesh.nodes[constraint]))


@pytest.mark.parametrize("name, eigenvalue", [
    ("sin1d", 4.0 * math.pi**2), ("linear1d", 0.0), ("sin2d", 8.0 * math.pi**2),
])
def test_get_case_returns_one_shared_case(name, eigenvalue):
    case = get_case(name)
    assert case is get_case(name) and case.eigenvalue == eigenvalue
    with pytest.raises(dataclasses.FrozenInstanceError):
        case.eigenvalue = 1.0


def test_source_is_the_closed_form_bit_for_bit():
    """λ * solution keeps the bits of the closed-form sources; linear1d's
    0.0 * x is +0.0 at every point of the box, as np.zeros was."""
    pts = np.random.default_rng(5).uniform(0.0, 1.0, size=(500, 2))
    x, y = 2.0 * math.pi * pts[:, 0], 2.0 * math.pi * pts[:, 1]
    sin1d = get_case("sin1d").source(pts[:, :1])
    assert np.array_equal(sin1d, 4.0 * math.pi**2 * np.sin(x))
    sin2d = get_case("sin2d").source(pts)
    assert np.array_equal(sin2d, 8.0 * math.pi**2 * (np.sin(x) * np.sin(y)))
    linear = get_case("linear1d").source(np.vstack([pts[:, :1], [[0.0], [1.0]]]))
    assert np.array_equal(linear, np.zeros(502)) and not np.signbit(linear).any()


def test_unknown_case_rejected():
    with pytest.raises(ConfigError, match="unknown case"):
        get_case("cubic3d")
