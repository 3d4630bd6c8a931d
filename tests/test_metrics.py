import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from parseq import (
    GaussianOptimalPredictor,
    InsufficientDataError,
    NumericDomainError,
    ShapeError,
    gaussian_w2,
    make_linear_beta_schedule,
    sample_moments,
    select_subsequence,
    sequential_rollout,
    stream,
)
from parseq.schedule import c1_for_pair

params = hnp.arrays(
    np.float64,
    3,
    elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
)
variances = hnp.arrays(
    np.float64,
    3,
    elements=st.floats(min_value=0.01, max_value=9, allow_nan=False),
)


class TestSampleMoments:
    def test_two_samples(self):
        m = sample_moments(np.array([[0.0], [2.0]]))
        np.testing.assert_array_equal(m.mean, [1.0])
        np.testing.assert_array_equal(m.var_diag, [2.0])
        assert m.n == 2

    def test_constant_samples(self):
        m = sample_moments(np.full((7, 3), 4.2))
        np.testing.assert_array_equal(m.var_diag, np.zeros(3))

    def test_standard_normal_clt_bound(self):
        n = 10_000
        draws = stream(0, "scratch").standard_normal((n, 4))
        m = sample_moments(draws)
        assert np.all(np.abs(m.mean) <= 4.0 / np.sqrt(n))
        assert np.all(np.abs(m.var_diag - 1.0) <= 6.0 / np.sqrt(n))

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            sample_moments(np.ones((1, 3)))

    def test_shape_check(self):
        with pytest.raises(ShapeError):
            sample_moments(np.ones(5))

    def test_to_dict(self):
        d = sample_moments(np.array([[0.0, 1.0], [2.0, 3.0]])).to_dict()
        assert d == {"mean": [1.0, 2.0], "var_diag": [2.0, 2.0], "n": 2}


class TestGaussianW2:
    def test_identical_is_zero(self):
        mu, var = np.array([1.0, -2.0]), np.array([0.5, 3.0])
        assert gaussian_w2(mu, var, mu, var) == 0.0

    def test_pure_mean_shift(self):
        assert gaussian_w2([0.0], [1.0], [3.0], [1.0]) == pytest.approx(3.0, rel=1e-15)

    def test_pure_variance_gap(self):
        assert gaussian_w2([0.0], [1.0], [0.0], [4.0]) == pytest.approx(1.0, rel=1e-15)

    def test_negative_variance_rejected(self):
        with pytest.raises(NumericDomainError):
            gaussian_w2([0.0], [-0.1], [0.0], [1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            gaussian_w2([0.0], [1.0], [0.0, 1.0], [1.0, 1.0])

    @given(mu1=params, var1=variances, mu2=params, var2=variances)
    @settings(max_examples=50, deadline=None)
    def test_symmetric(self, mu1, var1, mu2, var2):
        a = gaussian_w2(mu1, var1, mu2, var2)
        b = gaussian_w2(mu2, var2, mu1, var1)
        assert a == pytest.approx(b, abs=1e-12)
        assert a >= 0.0

    @given(
        mu1=params, var1=variances, mu2=params, var2=variances,
        mu3=params, var3=variances,
    )
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, mu1, var1, mu2, var2, mu3, var3):
        ab = gaussian_w2(mu1, var1, mu2, var2)
        bc = gaussian_w2(mu2, var2, mu3, var3)
        ac = gaussian_w2(mu1, var1, mu3, var3)
        assert ac <= ab + bc + 1e-9


class TestGeneratedEnsemble:
    def test_long_chain_matches_target_distribution(self):
        # 2000 terminal draws pushed through the S=100 chain land close to
        # the predictor's target Gaussian; 0.15 leaves >3x margin over the
        # measured 0.044 (finite-S discretization bias plus sampling error).
        T, S, D, n = 1000, 100, 4, 2000
        sched = make_linear_beta_schedule(T, 1e-4, 0.02)
        sub = select_subsequence(T, S, "linear")
        mu = np.array([0.5, -0.3, 1.0, 0.0])
        var = np.array([1.2, 0.6, 1.0, 2.0])
        pred = GaussianOptimalPredictor(mu, var, sched)
        alpha = sched.alpha_by_t[[0, *sub.indices]]

        # closed-form batched rollout (the predictor is affine per
        # coordinate); verified row-by-row against the library below
        X = stream(0, "x_T").standard_normal((n, D))
        ensemble = X.copy()
        for p in range(S, 0, -1):
            a_prev, a = alpha[p - 1], alpha[p]
            eps = np.sqrt(1.0 - a) * (ensemble - np.sqrt(a) * mu) / (a * var + (1.0 - a))
            ensemble = (np.sqrt(a_prev) / np.sqrt(a)) * ensemble + c1_for_pair(
                a_prev, a, sched.eta) * eps
        for i in (0, 700, 1999):
            lib = sequential_rollout(X[i], sched, sub, pred)[-1]
            np.testing.assert_allclose(ensemble[i], lib, rtol=0, atol=1e-14)

        m = sample_moments(ensemble)
        assert gaussian_w2(m.mean, m.var_diag, mu, var) <= 0.15
