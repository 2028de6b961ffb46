import math

import numpy as np
import pytest
from scipy import integrate

from _oracles import unit_moments
from nlfem import BallNorm, Kernel, KernelError, KernelKind, QuadratureError
from nlfem.quadrature import _constraint_matrix

ALL_KINDS = [(KernelKind.CONSTANT, 1), (KernelKind.RATIONAL, 1),
             (KernelKind.CONSTANT, 2), (KernelKind.RATIONAL, 2)]


def test_default_scalings():
    assert Kernel(KernelKind.CONSTANT, 1, 0.1).scaling == pytest.approx(1.5)
    assert Kernel(KernelKind.RATIONAL, 1, 0.1).scaling == pytest.approx(1.0)
    assert Kernel(KernelKind.CONSTANT, 2, 0.1).scaling == pytest.approx(4 / math.pi)
    assert Kernel(KernelKind.RATIONAL, 2, 0.1).scaling == pytest.approx(3 / math.pi)


def test_strength_1d_constant():
    k = Kernel(KernelKind.CONSTANT, 1, 0.02)
    assert k.strength(0.01) == pytest.approx(3 / (2 * 0.02**3))


def test_strength_2d_rational():
    k = Kernel(KernelKind.RATIONAL, 2, 0.1)
    val = k.strength(0.05)
    assert val == pytest.approx((3 / math.pi) / (0.1**3 * 0.05))
    assert val == pytest.approx(19098.59, rel=1e-4)


def test_rational_singularity_rejected():
    # an inner point at the ball center would put 1/0 into the constraint matrix
    k = Kernel(KernelKind.RATIONAL, 1, 0.1)
    offsets = np.array([[0.0], [0.05]])
    with pytest.raises(QuadratureError, match="singular"):
        _constraint_matrix(k, offsets)


def test_support_boundary():
    # the support is the closed ball: an offset on the sphere has length exactly
    # the horizon, which quadrature._ball_grid keeps (test_ball_grid_keeps_the_sphere)
    offsets = np.array([[0.1, 0.0], [0.1 + 1e-12, 0.0]])
    for norm in BallNorm:
        assert (norm.length(offsets) <= 0.1).tolist() == [True, False]


def _oracle_moments(kernel: Kernel) -> np.ndarray:
    """Adaptive-quadrature reference for the second moments, in x^2, xy, y^2 order."""
    d = kernel.horizon
    if kernel.dim == 1:
        val, _ = integrate.quad(lambda s: float(kernel.strength(abs(s))) * s * s,
                                -d, d, points=[0.0], limit=200)
        return np.array([val])
    out = []
    for i, j in ((0, 0), (0, 1), (1, 1)):
        if kernel.ball_norm is BallNorm.EUCLIDEAN:
            def f(theta, r):
                s = (r * math.cos(theta), r * math.sin(theta))
                return float(kernel.strength(r)) * s[i] * s[j] * r
            val, _ = integrate.dblquad(f, 0.0, d, 0.0, 2 * math.pi,
                                       epsabs=1e-13, epsrel=1e-13)
        else:
            # On the triangle |s2| <= s1 the max norm is s1, so the rational
            # kernel is smooth there; its four quarter turns tile the square.
            def f(s2, s1):
                turns = ((s1, s2), (-s2, s1), (-s1, -s2), (s2, -s1))
                return float(kernel.strength(s1)) * sum(t[i] * t[j] for t in turns)
            val, _ = integrate.dblquad(f, 0.0, d, lambda s1: -s1, lambda s1: s1,
                                       epsabs=1e-13, epsrel=1e-13)
        out.append(val)
    return np.array(out)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("kind,dim", ALL_KINDS)
def test_moments_match_quadrature_oracle(kind, dim):
    # every scaling table entry makes the full-ball second moments delta_ij
    for ball_norm in BallNorm:
        ref = _oracle_moments(Kernel(kind, dim, 0.07, ball_norm))
        assert np.allclose(ref, unit_moments(dim), rtol=1e-12, atol=1e-12)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("kind,dim", ALL_KINDS)
def test_default_scaling_normalizes_diagonal_moments(kind, dim):
    # at another horizon too: the scaling divides out horizon^(d+2)
    ref = _oracle_moments(Kernel(kind, dim, 0.3))
    assert np.allclose(ref, unit_moments(dim), rtol=1e-12, atol=1e-12)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("kind,dim", ALL_KINDS)
def test_max_norm_default_scaling_normalizes_diagonal_moments(kind, dim):
    kernel = Kernel(kind, dim, 0.3, ball_norm=BallNorm.MAX)
    assert np.allclose(_oracle_moments(kernel), unit_moments(dim), rtol=1e-12, atol=1e-12)
    # the 1D max-norm ball is the Euclidean one, so is its scaling
    if dim == 1:
        assert kernel.scaling == Kernel(kind, 1, 0.3).scaling


def test_invalid_kernel_parameters():
    with pytest.raises(KernelError):
        Kernel(KernelKind.CONSTANT, 3, 0.1)
    with pytest.raises(KernelError):
        Kernel(KernelKind.CONSTANT, 1, -0.1)


@pytest.mark.parametrize("kind, ball_norm", [
    ("constant", BallNorm.EUCLIDEAN), (KernelKind.CONSTANT, "max"),
    (KernelKind.CONSTANT, 1.5), (KernelKind.CONSTANT, ["max"]),
])
def test_kernel_rejects_kind_or_ball_norm_outside_the_enums(kind, ball_norm):
    # strength() tests `kind is KernelKind.CONSTANT`, so a string kind would give a rational kernel
    with pytest.raises(KernelError, match="kind must be a KernelKind and ball_norm a BallNorm"):
        Kernel(kind, 1, 0.1, ball_norm)


@pytest.mark.parametrize("dim, horizon, message", [
    (True, 0.25, "dimension must be an integer, got True"),
    (1.0, 0.25, "dimension must be an integer, got 1.0"),
    ("1", 0.25, "dimension must be an integer, got '1'"), (np.float64(2.0), 0.25, "dimension"),
    (1, math.inf, "horizon must be finite, got inf"),
    (2, math.nan, "horizon must be finite, got nan"),
    (1, 10**400, "horizon must be finite, got 1000"),  # exact, no OverflowError
    (1, "0.25", "horizon must be a real number, got '0.25'"),
    (1, True, "horizon must be a real number, got True"),
    (2, np.bool_(True), "horizon must be a real number, got np.True_|True"),
    (1, 0.25j, "horizon must be a real number, got 0.25j"),
], ids=["bool-dim", "float-dim", "str-dim", "numpy-float-dim", "inf-horizon",
        "nan-horizon", "huge-int-horizon", "str-horizon", "bool-horizon", "numpy-bool-horizon", "complex-horizon"])
def test_kernel_rejects_non_integer_dimension_and_non_finite_parameters(dim, horizon, message):
    # True, 1.0 and 2.0 hash like 1 and 2, so the scaling table lookup would let them through
    with pytest.raises(KernelError, match=message):
        Kernel(KernelKind.RATIONAL, dim, horizon)


@pytest.mark.parametrize("horizon", [np.float64(0.25), np.float32(0.25), 1])
def test_kernel_accepts_numpy_and_integer_parameters(horizon):
    kernel = Kernel(KernelKind.RATIONAL, 2, horizon)
    assert kernel.strength(np.array([0.5]))[0] == pytest.approx(
        (3 / math.pi) / (horizon ** 3 * 0.5))


@pytest.mark.parametrize("dim", [np.int64(1), np.int32(2)])
def test_kernel_accepts_numpy_integer_dimension(dim):
    kernel = Kernel(KernelKind.RATIONAL, dim, 0.25)
    assert kernel == Kernel(KernelKind.RATIONAL, int(dim), 0.25)
