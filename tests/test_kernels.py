"""Kernel values, spectral densities, and Gram-matrix properties."""

import numpy as np
import pytest
from scipy.integrate import quad

from seqgp import kernels
from seqgp.config import build_kernel
from seqgp.errors import ConfigurationError, ShapeError

# the worked four-point example: kappa(t, t') = exp(-(t - t')^2),
# i.e. unit variance and 2 l^2 = 1
WORKED_KERNEL = kernels.se(sigma_f2=1.0, lengthscale=1.0 / np.sqrt(2.0))
WORKED_TIMES = np.array([0.0, 1.0, 2.0, 2.5])
WORKED_COV = np.array([
    [1.000, 0.368, 0.018, 0.002],
    [0.368, 1.000, 0.368, 0.105],
    [0.018, 0.368, 1.000, 0.779],
    [0.002, 0.105, 0.368, 1.000],
])
WORKED_COV[3, 2] = 0.779  # symmetric counterpart


def kernel_zoo():
    return [
        kernels.se(1.3, 0.7),
        kernels.matern12(0.8, 1.4),
        kernels.matern32(2.0, 0.9),
        kernels.spectral_mixture([(0.6, 2.0, 0.25), (0.4, 5.0, 1.0)]),
        kernels.hida_matern([(0.7, 3.0, 0.5, 1.2, 1.1), (0.3, 0.0, 1.5, 0.6, 0.5)]),
    ]


class TestEvalKernel:
    def test_worked_example_entries(self):
        assert kernels.eval_kernel(WORKED_KERNEL, 0.0, 1.0) == pytest.approx(0.368, abs=5e-4)
        assert kernels.eval_kernel(WORKED_KERNEL, 2.0, 2.5) == pytest.approx(0.779, abs=5e-4)

    def test_zero_distance_is_total_variance(self):
        for k in kernel_zoo():
            for x in (-3.0, 0.0, 1.7):
                assert kernels.eval_kernel(k, x, x) == pytest.approx(k.total_variance, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for k in kernel_zoo():
            for _ in range(20):
                a, b = rng.uniform(-5, 5, size=2)
                assert kernels.eval_kernel(k, a, b) == kernels.eval_kernel(k, b, a)

    def test_hida_matern_zero_phase_reduces_to_matern(self):
        hm = kernels.hida_matern([(1.0, 0.0, 0.5, 1.3, 0.9)])
        m = kernels.matern12(0.9, 1.3)
        for r in np.linspace(0.0, 5.0, 23):
            assert kernels.eval_kernel(hm, 0.0, r) == pytest.approx(kernels.eval_kernel(m, 0.0, r), rel=1e-14)

    def test_multivariate_isotropic(self):
        k = kernels.se(1.0, 0.5)
        a, b = np.array([1.0, 2.0]), np.array([0.0, 0.5])
        r = np.linalg.norm(a - b)
        assert kernels.eval_kernel(k, a, b) == pytest.approx(float(kernels.kappa_of_distance(k, r)))

    def test_nonpositive_hyperparameters_rejected(self):
        with pytest.raises(ConfigurationError):
            kernels.se(sigma_f2=0.0)
        with pytest.raises(ConfigurationError):
            kernels.matern32(lengthscale=-1.0)
        with pytest.raises(ConfigurationError):
            kernels.spectral_mixture([(0.5, 1.0, 0.0)])
        with pytest.raises(ConfigurationError):
            kernels.hida_matern([(1.0, -0.1, 0.5, 1.0, 1.0)])
        with pytest.raises(ConfigurationError):
            kernels.hida_matern([(1.0, 0.0, 2.5, 1.0, 1.0)])

    @pytest.mark.parametrize("build, param", [
        (lambda: kernels.se(sigma_f2=0.0), "sigma_f2"),
        (lambda: kernels.matern32(lengthscale=1e-300), "lengthscale"),
        (lambda: kernels.se(lengthscale=1e200), "lengthscale"),
        (lambda: kernels.se(1.0, 1e154), "lengthscale"),  # l**2 is finite, 2 * l**2 is not
        (lambda: kernels.spectral_mixture([(0.5, 1.0, 0.0)]), "sm_components"),
        (lambda: kernels.hida_matern([(1.0, 0.0, 0.5, 1e-300, 1.0)]), "hm_components"),
        (lambda: kernels.hida_matern([(1e308, 0.0, 1.5, 1.0, 10.0)]), "hm_components"),  # weight * sigma2 overflows
        (lambda: kernels.hida_matern([(1e308, 0.0, 1.5, 1.0, 1.0)] * 2), "hm_components"),  # so does their sum
        (lambda: kernels.hida_matern([(float("nan"), 0.0, 1.5, 1.0, 1.0)]), "hm_components"),
    ])
    def test_errors_carry_the_field(self, build, param):
        with pytest.raises(ConfigurationError) as info:
            build()
        assert info.value.param == param

    def test_se_lengthscale_whose_exponent_scale_overflows_is_rejected(self):
        # l**2 is finite up to 1.34e154, but the SE exponent divides by 2 * l**2, which is inf above
        # about 9.5e153: every Gram entry would read exp(-0) = sigma_f2
        with pytest.raises(ConfigurationError, match=r"^lengthscale 1e\+154 overflows 2 \* l\*\*2 in the SE exponent$"):
            kernels.se(1.0, 1e154)
        assert kernels.matern32(1.0, 1e154).lengthscale == 1e154  # no 2 * l**2 there: still a valid kernel
        k = kernels.se(1.0, 9e153)
        assert k.gram([[0.0], [1.3e154]])[0, 1] == pytest.approx(np.exp(-0.5 * (1.3e154 / 9e153) ** 2), rel=1e-12)

    def test_build_kernel_names_prefixed_keys(self):
        cfg = {"spatial.kernel.family": "se", "spatial.kernel.lengthscale": "0"}
        with pytest.raises(ConfigurationError, match=r"^spatial\.kernel\.lengthscale: lengthscale must") as info:
            build_kernel(cfg, prefix="spatial.kernel.")
        assert info.value.param is None

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            kernels.eval_kernel(kernels.se(), np.array([1.0, 2.0]), np.array([1.0]))


class TestPsd:
    def test_se_integrates_to_variance(self):
        # trapezoid over s in [-40/l, 40/l] must land within 1e-6 of sigma_f^2
        k = kernels.se(1.7, 0.6)
        s = np.linspace(-40.0 / k.lengthscale, 40.0 / k.lengthscale, 200_001)
        total = np.trapezoid(kernels.eval_psd(k, s), s)
        assert total == pytest.approx(k.sigma_f2, abs=1e-6)

    def test_matern12_is_cauchy(self):
        k = kernels.matern12(1.3, 0.8)
        lam = 1.0 / k.lengthscale
        assert kernels.eval_psd(k, 0.0) == pytest.approx(k.sigma_f2 * k.lengthscale / np.pi, rel=1e-12)
        for s in (0.3, 1.0, 4.0):
            expected = k.sigma_f2 * (lam / np.pi) / (lam**2 + s**2)
            assert kernels.eval_psd(k, s) == pytest.approx(expected, rel=1e-12)

    def test_even_and_nonnegative(self):
        s = np.linspace(-20.0, 20.0, 501)
        for k in kernel_zoo():
            S = kernels.eval_psd(k, s)
            np.testing.assert_allclose(S, S[::-1], rtol=0, atol=1e-14)
            assert np.all(S >= 0.0)

    @pytest.mark.parametrize("k", kernel_zoo(), ids=lambda k: k.family)
    def test_fourier_duality(self, k):
        # independent oracle: adaptive Fourier quadrature of S recovers kappa(r)
        ell = max([k.lengthscale] + [c.lengthscale for c in k.hm_components]) if k.family != "spectral_mixture" else 1.0
        for r in np.arange(0.0, 5.0 * ell + 1e-12, 0.5 * ell):
            val, _ = quad(lambda s: kernels.eval_psd(k, s), 0.0, np.inf,
                          weight="cos", wvar=r, limit=400)
            recovered = 2.0 * val
            target = float(kernels.kappa_of_distance(k, r))
            assert abs(recovered - target) < 1e-4 * k.total_variance


class TestGram:
    @pytest.mark.parametrize("k", kernel_zoo(), ids=lambda k: k.family)
    def test_far_apart_points_get_the_limit_without_a_warning(self, k):
        # 1e200 - 1 squares to inf, and 1e308 - (-1e308) is inf itself: kappa's limit there is 0
        X = np.array([[1e200, 0.0], [1.0, 0.0], [-1e308, 0.0], [1e308, 0.0]])
        with np.errstate(all="raise"):
            K = k.gram(X)
            at_zero = float(kernels.kappa_of_distance(k, 0.0))
            assert kernels.kappa_of_distance(k, np.inf) == 0.0
        np.testing.assert_array_equal(K, at_zero * np.eye(4))

    def test_worked_example_matrix(self):
        G = kernels.gram(WORKED_KERNEL, WORKED_TIMES)
        np.testing.assert_allclose(G, WORKED_COV, atol=5e-4)

    def test_single_point(self):
        k = kernels.matern32(2.5, 1.0)
        G = kernels.gram(k, [1.3])
        assert G.shape == (1, 1)
        assert G[0, 0] == pytest.approx(2.5)

    def test_cross_transpose(self):
        rng = np.random.default_rng(1)
        X, X2 = rng.uniform(-2, 2, 7), rng.uniform(-2, 2, 4)
        for k in kernel_zoo():
            np.testing.assert_allclose(kernels.gram(k, X, X2), kernels.gram(k, X2, X).T, atol=0)

    def test_positive_semidefinite_with_jitter(self):
        rng = np.random.default_rng(7)
        for k in kernel_zoo():
            X = rng.uniform(-4.0, 4.0, size=64)
            G = kernels.gram(k, X)
            min_eig = float(np.linalg.eigvalsh(G).min())
            assert min_eig >= -1e-9 * k.total_variance
            np.linalg.cholesky(G + 1e-8 * k.total_variance * np.eye(64))

    def test_mixture_linearity(self):
        comps = [(0.7, 3.0, 0.5, 1.2, 1.1), (0.3, 1.0, 1.5, 0.6, 0.5)]
        hm = kernels.hida_matern(comps)
        r = np.linspace(0.0, 6.0, 50)
        expected = np.zeros_like(r)
        for w, b, nu, ell, s2 in comps:
            single = kernels.hida_matern([(1.0, b, nu, ell, s2)])
            expected += w * kernels.kappa_of_distance(single, r)
        np.testing.assert_allclose(kernels.kappa_of_distance(hm, r), expected, rtol=1e-15)

    def test_empty_or_mismatched_inputs(self):
        with pytest.raises(ShapeError):
            kernels.gram(kernels.se(), np.zeros((0, 1)))
        with pytest.raises(ShapeError):
            kernels.gram(kernels.se(), np.zeros((3, 1)), np.zeros((3, 2)))
