"""Random Fourier features and the Hilbert-space eigenbasis."""

import numpy as np
import pytest

from seqgp import features, kernels
from seqgp.errors import ConfigurationError, ShapeError, UnsupportedKernelError


class TestRff:
    def test_unit_norm(self):
        fmap = features.sample_rff(kernels.se(2.0, 0.5), 64, seed=0)
        for x in (-3.1, 0.0, 0.77, 12.0):
            phi = features.featurize(fmap, x)
            assert float(phi @ phi) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_given_seed(self):
        a = features.sample_rff(kernels.matern12(1.0, 1.0), 32, seed=42)
        b = features.sample_rff(kernels.matern12(1.0, 1.0), 32, seed=42)
        assert np.array_equal(a.frequencies, b.frequencies)
        c = features.sample_rff(kernels.matern12(1.0, 1.0), 32, seed=43)
        assert not np.array_equal(a.frequencies, c.frequencies)

    def test_at_zero_sin_cos_pattern(self):
        fmap = features.sample_rff(kernels.se(), 16, seed=1)
        phi = features.featurize(fmap, 0.0)
        np.testing.assert_allclose(phi[0::2], 0.0, atol=0)
        np.testing.assert_allclose(phi[1::2], np.sqrt(2.0 / 16.0), atol=0)

    def test_odd_feature_count_rejected(self):
        with pytest.raises(ConfigurationError):
            features.sample_rff(kernels.se(), 15, seed=0)

    def test_hida_matern_sampling_unsupported(self):
        hm = kernels.hida_matern([(1.0, 2.0, 0.5, 1.0, 1.0)])
        with pytest.raises(UnsupportedKernelError):
            features.sample_rff(hm, 16, seed=0)

    @pytest.mark.parametrize(
        "kernel",
        [
            kernels.se(1.0, 1.0),
            kernels.matern12(1.3, 0.8),
            kernels.matern32(0.7, 1.2),
            kernels.spectral_mixture([(0.6, 2.0, 0.25), (0.4, 5.0, 1.0)]),
        ],
        ids=lambda k: k.family,
    )
    def test_monte_carlo_kernel_oracle(self, kernel):
        # mean over 50 seeds of sigma_f^2 phi(x).phi(x') must sit within
        # 3 standard errors of kappa(x, x')
        x, x2 = 0.3, 1.1
        vals = np.array([
            kernel.total_variance
            * float(features.featurize(fm, x) @ features.featurize(fm, x2))
            for fm in (features.sample_rff(kernel, 512, seed) for seed in range(50))
        ])
        err = abs(vals.mean() - kernels.eval_kernel(kernel, x, x2))
        assert err < 3.0 * vals.std(ddof=1) / np.sqrt(50)

    def test_reconstruction_tail_bound(self):
        # F = 2048: max |sigma_f^2 phi.phi' - kappa| over 200 pairs stays
        # under 0.05 sigma_f^2 on at least 49 of 50 fixed seeds
        k = kernels.se(1.0, 1.0)
        rng = np.random.default_rng(12345)
        xa, xb = rng.uniform(0, 1, 200), rng.uniform(0, 1, 200)
        target = kernels.kappa_of_distance(k, np.abs(xa - xb))
        passed = 0
        for seed in range(50):
            fm = features.sample_rff(k, 2048, seed)
            pa, pb = features.featurize_many(fm, xa), features.featurize_many(fm, xb)
            if np.abs(np.sum(pa * pb, axis=1) - target).max() < 0.05:
                passed += 1
        assert passed >= 49

    def test_multidimensional_inputs(self):
        fmap = features.sample_rff(kernels.se(1.0, 0.5), 32, seed=0)
        assert fmap.input_dim == 1
        with pytest.raises(ShapeError):
            features.featurize(fmap, np.array([1.0, 2.0]))


    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_a_row_does_not_depend_on_its_batch(self, dim):
        rng = np.random.default_rng(dim)
        fmap = features.FeatureMap("rff", 14, dim, 1.0, frequencies=rng.standard_normal((7, dim)))
        X = rng.uniform(-3.0, 3.0, (40, dim))
        rows = np.array([features.featurize(fmap, x) for x in X])
        for size in (2, 3, 40):
            batched = np.vstack([features.featurize_many(fmap, X[i : i + size]) for i in range(0, 40, size)])
            np.testing.assert_array_equal(batched, rows)


class TestHsgp:
    def test_a_row_does_not_depend_on_its_batch(self):
        fmap = features.build_hsgp(kernels.matern32(1.0, 0.4), 21, 5.0)
        X = np.random.default_rng(4).uniform(-4.0, 4.0, 40)
        rows = np.array([features.featurize(fmap, x) for x in X])
        np.testing.assert_array_equal(features.featurize_many(fmap, X), rows)

    def test_first_basis_value_at_origin(self):
        # k=1, L=1, x=0: sin(pi/2) = 1, so phi_1(0) = sqrt(S(pi/2))
        k = kernels.se(1.0, 0.5)
        fmap = features.build_hsgp(k, 4, 1.0)
        phi = features.featurize(fmap, 0.0)
        assert phi[0] == pytest.approx(float(fmap.spectral_weights[0]), rel=1e-14)
        assert fmap.spectral_weights[0] == pytest.approx(
            np.sqrt(2.0 * np.pi * float(kernels.eval_psd(k, np.pi / 2.0))), rel=1e-14
        )

    def test_boundary_vanishes(self):
        fmap = features.build_hsgp(kernels.se(1.0, 0.5), 64, 2.5)
        for edge in (-2.5, 2.5):
            np.testing.assert_allclose(features.featurize(fmap, edge), 0.0, atol=1e-12)

    def test_kernel_reconstruction(self):
        # F=256, L = 4x the data half-range: the basis reconstructs kappa to
        # 1e-2 for |x - x'| <= 2 l inside [-L/2, L/2]
        ell = 0.5
        k = kernels.se(1.0, ell)
        fmap = features.build_hsgp(k, 256, 4.0)  # data in [-1, 1]
        xs = np.linspace(-2.0, 2.0, 41)
        Phi = features.featurize_many(fmap, xs)
        approx = Phi @ Phi.T
        exact_gram = kernels.gram(k, xs)
        mask = np.abs(xs[:, None] - xs[None, :]) <= 2.0 * ell
        assert np.abs(approx - exact_gram)[mask].max() < 1e-2

    def test_prior_variance_within_five_percent(self):
        ell = 0.5
        fmap = features.build_hsgp(kernels.se(1.0, ell), 256, 4.0)
        xs = np.linspace(-2.0, 2.0, 17)
        Phi = features.featurize_many(fmap, xs)
        prior_var = np.sum(Phi * Phi, axis=1) * fmap.weight_prior_var
        np.testing.assert_allclose(prior_var, 1.0, rtol=0.05)

    def test_rff_prior_variance_within_five_percent(self):
        fmap = features.sample_rff(kernels.se(1.0, 0.5), 256, seed=0)
        xs = np.linspace(-2.0, 2.0, 17)
        Phi = features.featurize_many(fmap, xs)
        prior_var = np.sum(Phi * Phi, axis=1) * fmap.weight_prior_var
        np.testing.assert_allclose(prior_var, 1.0, rtol=0.05)

    def test_config_errors(self):
        with pytest.raises(ConfigurationError):
            features.build_hsgp(kernels.se(), 0, 1.0)
        with pytest.raises(ConfigurationError):
            features.build_hsgp(kernels.se(), 8, -1.0)


class TestDegenerateKernel:
    def test_gram_is_feature_inner_product(self):
        fmap = features.sample_rff(kernels.se(1.3, 0.8), 64, seed=9)
        dk = features.DegenerateKernel(fmap)
        X = np.linspace(0, 2, 5)
        G = dk.gram(X)
        Phi = features.featurize_many(fmap, X)
        np.testing.assert_allclose(G, 1.3 * Phi @ Phi.T, rtol=1e-14)
        assert dk.total_variance == pytest.approx(1.3)
