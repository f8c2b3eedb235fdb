import math
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import norm

from orthres.mollify import (CATALOG, MAXLOG, TerminalMap, digital_box,
                             from_catalog, indicator_halfspace, l2_gap,
                             lipschitz_scan, mollify, ndtr, sine, square)
from orthres.models import ModelConfig, build

from reference import clamp


def dense_convolution(F, x, eps, half_width=8.0, n=20001):
    """Brute-force Gaussian convolution oracle on a dense grid."""
    s = np.sqrt(eps)
    g = np.linspace(-half_width * s, half_width * s, n)
    w = norm.pdf(g, scale=s)
    w /= w.sum()
    out = np.array([w @ F((xi - g)[:, None]) for xi in np.atleast_1d(x)])
    return out


def test_halfspace_closed_form_matches_dense_convolution():
    F = indicator_halfspace(threshold=0.3)
    Fe = mollify(F, 0.04)
    x = np.linspace(-1.5, 2.0, 25)
    npt.assert_allclose(Fe(x[:, None]), norm.cdf((x - 0.3) / 0.2), atol=1e-12)
    npt.assert_allclose(Fe(x[:, None]), dense_convolution(F, x, 0.04),
                        atol=1e-3)


def test_quadrature_path_analytic_oracles():
    # Gaussian average of sin: e^{-omega^2 eps / 2} sin(omega x)
    eps, omega = 0.09, 2.0
    Fe = mollify(sine(omega=omega), eps)
    x = np.linspace(-1.5, 1.5, 21)
    npt.assert_allclose(Fe(x[:, None]),
                        np.exp(-omega ** 2 * eps / 2) * np.sin(omega * x),
                        atol=1e-10)
    # Gaussian average of x^3: x^3 + 3 eps x (polynomials are exact for GH)
    Fc = mollify(from_catalog("custom_polynomial",
                              coeffs=[1.0, 0.0, 0.0, 0.0]), eps)
    npt.assert_allclose(Fc(x[:, None]), x ** 3 + 3 * eps * x, atol=1e-10)


def test_quadrature_path_box_near_dense_convolution():
    # discontinuous integrands converge slowly under Gauss-Hermite; this
    # only pins the error scale of the default setting
    F = digital_box(-0.4, 0.7)
    Fe = mollify(F, 0.09)
    x = np.linspace(-1.5, 1.5, 21)
    npt.assert_allclose(Fe(x[:, None]), dense_convolution(F, x, 0.09),
                        atol=7e-2)


def test_smooth_map_barely_moves():
    F = sine(omega=1.0)
    Fe = mollify(F, 1e-4)
    x = np.linspace(-2, 2, 31)
    npt.assert_allclose(Fe(x[:, None]), F(x[:, None]), atol=1e-3)


def test_square_mollification_exact_shift():
    # (x - sqrt(eps) g)^2 averaged = x^2 + eps
    F = square()
    eps = 0.25
    Fe = mollify(F, eps)
    x = np.linspace(-2, 2, 9)
    npt.assert_allclose(Fe(x[:, None]), x ** 2 + eps, atol=1e-10)


def test_mollify_preserves_bound():
    F = indicator_halfspace()
    Fe = mollify(F, 0.1)
    x = np.linspace(-5, 5, 101)[:, None]
    vals = Fe(x)
    assert np.all(vals >= -1e-12) and np.all(vals <= 1 + 1e-12)


def test_mollify_parameter_validation():
    F = square()
    with pytest.raises(ValueError):
        mollify(F, 0.0)
    with pytest.raises(ValueError):
        mollify(F, 1.0)


def test_clamp_bounds_and_id():
    F = square()
    Fc = clamp(F, 2)
    x = np.array([[-3.0], [0.5], [3.0]])
    npt.assert_allclose(Fc(x), [2.0, 0.25, 2.0])
    assert Fc.id == "square~clamp2"
    with pytest.raises(ValueError):
        clamp(F, 0)


def test_lipschitz_scan_linear_slope():
    F = TerminalMap(id="lin", arity=1, evaluator=lambda x: 3.0 * x[:, 0])
    npt.assert_allclose(lipschitz_scan(F, -1, 1, 0.01), 3.0, atol=1e-9)


def test_mollified_indicator_lipschitz_scaling():
    F = indicator_halfspace()
    lips = []
    for eps in (1e-1, 1e-2, 1e-3):
        Fe = mollify(F, eps)
        lips.append(lipschitz_scan(Fe, -1.0, 1.0, 2e-4))
        # peak slope of Phi(x / sqrt(eps)) is (2 pi eps)^{-1/2}
        npt.assert_allclose(lips[-1], 1.0 / np.sqrt(2 * np.pi * eps),
                            rtol=1e-3)
    slope = np.polyfit(np.log([1e-1, 1e-2, 1e-3]), np.log(lips), 1)[0]
    assert abs(slope + 0.5) < 0.01


def test_l2_gap_decreases_with_eps():
    built = build(ModelConfig("binary", K=8))
    F = indicator_halfspace()
    gaps = [l2_gap(built.tree, built.M, F, mollify(F, e))
            for e in (0.2, 0.05, 0.01)]
    assert gaps[0] > gaps[1] > gaps[2] >= 0


def test_catalog_complete_and_constructible():
    assert set(CATALOG) == {"indicator_halfspace", "square", "sine",
                            "digital_box", "custom_polynomial",
                            "clipped_linear"}
    F = from_catalog("custom_polynomial", coeffs=[1.0, 0.0, -2.0])
    npt.assert_allclose(F(np.array([[2.0]])), [2.0])
    with pytest.raises(KeyError):
        from_catalog("nope")


def test_halfspace_closed_form_is_the_normal_cdf_bit_for_bit():
    F = indicator_halfspace(threshold=0.0)
    Fe = mollify(F, 0.25)
    x = np.concatenate([np.random.default_rng(3).normal(0, 2, 10_000),
                        [np.inf, -np.inf, 1e-300, -1e-300, 0.0, 40.0, -40.0]])
    assert np.array_equal(Fe(x[:, None]), norm.cdf(x / 0.5))


def test_cli_import_leaves_scipy_stats_unloaded():
    code = ("import sys; import orthres.cli; "
            "print('scipy.stats' in sys.modules)")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src},
                         check=True).stdout
    assert out.strip() == "False"


# |x| where the port changes branch: erf to erfc at |x|/sqrt2 = 1/sqrt2 and
# 1, rational P/Q to R/S at 8, and erfc's underflow cut at sqrt(MAXLOG)
BRANCH_EDGES = [1.0, math.sqrt(2), 8 * math.sqrt(2), math.sqrt(2 * MAXLOG)]
PINNED = [s * v for e in BRANCH_EDGES for s in (1.0, -1.0)
          for v in (np.nextafter(e, 0.0), e, np.nextafter(e, np.inf))] + [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
    math.inf, -math.inf, math.nan]


@given(st.lists(st.floats(-45, 45) | st.sampled_from(PINNED), max_size=64),
       st.integers(0, 2 ** 32 - 1))
def test_ndtr_port_is_scipy_ndtr_bit_for_bit(xs, seed):
    # hypothesis favours simple floats; a uniform batch adds generic ones
    x = np.concatenate(
        [xs, np.random.default_rng(seed).uniform(-45, 45, 256)])
    got, want = ndtr(x), scipy.special.ndtr(x)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_cli_import_loads_no_scipy():
    code = ("import sys; import orthres.cli; print(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src},
                         check=True).stdout
    assert out.strip() == "[]"
