import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parseq import (
    ConfigError,
    DiffusionSchedule,
    NumericDomainError,
    make_linear_beta_schedule,
    select_subsequence,
)
from parseq.schedule import TimestepSubsequence, c1_for_pair, sigma_for_pair


class TestLinearBetaSchedule:
    def test_single_step(self):
        sched = make_linear_beta_schedule(1, 0.02, 0.02)
        assert sched.betas.tolist() == [0.02]
        assert sched.alpha_by_t[1:].tolist() == [pytest.approx(0.98, abs=1e-15)]

    def test_two_step_products_by_hand(self):
        # (1 - 0.1) = 0.9 and 0.9 * (1 - 0.3) = 0.63.
        sched = make_linear_beta_schedule(2, 0.1, 0.3)
        np.testing.assert_allclose(sched.alpha_by_t[1:], [0.9, 0.63], rtol=1e-15)

    def test_long_schedule_against_running_product(self):
        sched = make_linear_beta_schedule(1000, 1e-4, 0.02)
        prod = 1.0
        for b in sched.betas:
            prod *= 1.0 - b
        assert sched.alpha_by_t[-1] == pytest.approx(prod, rel=1e-12)
        assert sched.alpha_by_t[-1] < 0.01
        assert np.all(np.diff(sched.alpha_by_t[1:]) < 0)

    def test_alpha_bar_boundary_and_range(self):
        sched = make_linear_beta_schedule(10, 0.01, 0.05)
        assert sched.alpha_bar(0) == 1.0
        assert sched.alpha_bar(1) == pytest.approx(1 - sched.betas[0])
        with pytest.raises(IndexError):
            sched.alpha_bar(11)
        with pytest.raises(IndexError):
            sched.alpha_bar(-1)

    def test_alpha_by_t_is_the_read_only_table_behind_alpha_bar(self):
        sched = make_linear_beta_schedule(40, 1e-3, 0.05)
        table = sched.alpha_by_t
        assert table.shape == (41,) and table[0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            table[1] = 0.5
        for t in range(41):
            assert sched.alpha_bar(t) == table[t]
        for t in (-1, 41):
            with pytest.raises(IndexError):
                sched.alpha_bar(t)

    def test_schedules_compare_and_hash_by_identity(self):
        a, b = make_linear_beta_schedule(10), make_linear_beta_schedule(10)
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2

    def test_underflowing_product_is_named(self):
        # With the default betas the product reaches subnormals and stops
        # decreasing: alpha_bar(85547) rounds to alpha_bar(85546).
        with pytest.raises(ConfigError, match=r"alpha_bar\(85547\) does not fall below "
                           r"alpha_bar\(85546\); the signal product underflows float64"):
            DiffusionSchedule(np.linspace(1e-4, 0.02, 100_000))

    @pytest.mark.parametrize("T, beta_start, beta_end", [
        (74_074, 1e-4, 0.02), (100_000, 1e-4, 0.02), (2**59, 1e-4, 0.02), (1490, 0.5, 0.5)])
    def test_certain_underflow_is_refused_before_any_array(self, T, beta_start, beta_end,
                                                           monkeypatch):
        # The betas sum past -ln(5e-324), so the product underflows whatever
        # the rounding; no array of length T is built to find that out.
        monkeypatch.setattr(np, "linspace", None)
        with pytest.raises(ConfigError, match=r"sum to .* past -ln\(5e-324\) = 744\.44; "
                           r"the signal product underflows float64$"):
            make_linear_beta_schedule(T, beta_start, beta_end)

    def test_schedules_below_the_bound_are_built_and_checked(self):
        # The bound is sound, not tight: 73_252 steps are the longest
        # default schedule that holds, and 74_073 is left to the stall check.
        assert make_linear_beta_schedule(73_252).alpha_by_t[-1] > 0.0
        with pytest.raises(ConfigError, match="does not fall below"):
            make_linear_beta_schedule(74_073)

    def test_non_decreasing_products_without_underflow(self):
        # 1 - 1e-17 rounds to 1, so alpha_bar(2) equals alpha_bar(1) = 0.9.
        with pytest.raises(ConfigError, match=r"alpha_bar\(2\) does not fall below "
                           r"alpha_bar\(1\)$"):
            DiffusionSchedule(np.array([0.1, 1e-17]))

    def test_products_are_derived_from_betas_alone(self):
        betas = np.linspace(1e-4, 0.02, 50)
        sched = DiffusionSchedule(betas, 0.5)
        assert sched.eta == 0.5
        assert sched.alpha_by_t[0] == 1.0
        assert sched.alpha_by_t[1:].tobytes() == np.cumprod(1.0 - betas).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            sched.alpha_by_t[1] = 0.5
        with pytest.raises(TypeError):
            DiffusionSchedule(betas, alpha_by_t=np.cumprod(1.0 - betas))

    def test_alpha_by_t_is_the_one_table(self):
        sched = make_linear_beta_schedule(50)
        assert not hasattr(sched, "alpha_bars")
        assert [sched.alpha_bar(t) for t in range(51)] == sched.alpha_by_t.tolist()

    @pytest.mark.parametrize("T", [2**62, 10**30])
    def test_length_beyond_any_float64_array_is_refused(self, T):
        with pytest.raises(ConfigError, match="too large for a float64 array"):
            make_linear_beta_schedule(T)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(T=0),
            dict(T=5, beta_start=0.0),
            dict(T=5, beta_start=-0.1),
            dict(T=5, beta_start=0.3, beta_end=0.2),
            dict(T=5, beta_start=0.5, beta_end=1.0),
            dict(T=5, eta=-0.5),
            dict(T=5, eta=float("nan")),
            dict(T=5, eta=float("inf")),
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            make_linear_beta_schedule(**kwargs)

    @pytest.mark.parametrize("betas, message", [
        ([], "betas must be a non-empty 1-d array"),
        ([0.1, 1.0], r"every beta must lie in \(0, 1\)"),
        ([0.1, 0.0], r"every beta must lie in \(0, 1\)"),
        # 0.001**200 = 1e-600 underflows to 0
        ([0.999] * 200, r"every alpha_bar must lie in \(0, 1\)"),
    ], ids=["empty", "one", "zero", "underflow"])
    def test_bad_betas_rejected(self, betas, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            DiffusionSchedule(np.array(betas))

    @given(
        T=st.integers(min_value=1, max_value=200),
        b0=st.floats(min_value=1e-5, max_value=0.05),
        spread=st.floats(min_value=1.0, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_recurrence_invariant(self, T, b0, spread):
        sched = make_linear_beta_schedule(T, b0, min(b0 * spread, 0.5))
        for t in range(1, T + 1):
            lhs = sched.alpha_bar(t)
            rhs = sched.alpha_bar(t - 1) * (1.0 - sched.betas[t - 1])
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestTransitionCoefficients:
    def test_sigma_worked_value(self):
        # eta=1, prev 0.9, cur 0.8: sqrt(0.1/0.2) * sqrt(1 - 8/9) = sqrt(0.5)/3.
        expected = math.sqrt(0.5) / 3.0
        assert sigma_for_pair(0.9, 0.8, 1.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.23570226039551584, rel=1e-15)

    def test_sigma_zero_at_eta_zero(self):
        assert sigma_for_pair(0.9, 0.8, 0.0) == 0.0

    def test_sigma_zero_at_boundary(self):
        # Predecessor at the t=0 boundary has product 1, so no noise remains.
        assert sigma_for_pair(1.0, 0.7, 1.0) == 0.0

    def test_c1_worked_value(self):
        expected = math.sqrt(0.1) - math.sqrt(0.9 * 0.2 / 0.8)
        assert c1_for_pair(0.9, 0.8, 0.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(-0.15811388300841897, rel=1e-15)

    def test_c1_at_boundary_matches_closed_form(self):
        for at in (0.3, 0.7, 0.98):
            assert c1_for_pair(1.0, at, 0.0) == pytest.approx(
                -math.sqrt((1 - at) / at), rel=1e-14
            )
            assert c1_for_pair(1.0, at, 1.0) == pytest.approx(
                -math.sqrt((1 - at) / at), rel=1e-14
            )

    def test_c1_with_eta_one_uses_sigma(self):
        s = sigma_for_pair(0.9, 0.8, 1.0)
        expected = math.sqrt(1 - 0.9 - s * s) - math.sqrt(0.9 * 0.2 / 0.8)
        assert c1_for_pair(0.9, 0.8, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_excess_eta_leaves_domain(self):
        with pytest.raises(NumericDomainError):
            c1_for_pair(0.9, 0.5, 3.0)

    def test_excess_eta_names_the_first_bad_pair_of_an_array(self):
        # The boundary pair has sigma 0 and stays admissible at any eta.
        prev, cur = np.array([1.0, 0.9, 0.8]), np.array([0.7, 0.5, 0.3])
        with pytest.raises(NumericDomainError, match=r"alpha_bar_prev=0\.9, eta=3"):
            c1_for_pair(prev, cur, 3.0)

    @given(
        T=st.integers(min_value=2, max_value=100),
        eta=st.floats(min_value=0.0, max_value=1.0),
        t=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=80, deadline=None)
    def test_radicand_stays_real_for_admissible_eta(self, T, eta, t):
        sched = make_linear_beta_schedule(T, 1e-4, 0.05, eta=eta)
        t = 1 + t % T
        pair = (sched.alpha_bar(t - 1), sched.alpha_bar(t), eta)
        s = sigma_for_pair(*pair)
        assert s >= 0.0
        assert 1.0 - sched.alpha_bar(t - 1) - s * s >= -1e-12
        # c1 must evaluate without a domain error anywhere in eta <= 1.
        c1_for_pair(*pair)


class TestSubsequence:
    def test_linear_example(self):
        sub = select_subsequence(1000, 10, "linear")
        assert list(sub.indices) == [100 * i for i in range(1, 11)]

    def test_quadratic_example(self):
        sub = select_subsequence(1000, 10, "quadratic")
        assert list(sub.indices) == [10, 40, 90, 160, 250, 360, 490, 640, 810, 1000]

    def test_identity(self):
        sub = select_subsequence(7, 7, "linear")
        assert list(sub.indices) == [1, 2, 3, 4, 5, 6, 7]

    def test_quadratic_dedupes(self):
        sub = select_subsequence(10, 10, "quadratic")
        assert len(sub.indices) < 10
        assert list(sub.indices) == sorted(set(sub.indices))

    def test_s_larger_than_t_rejected(self):
        with pytest.raises(ConfigError):
            select_subsequence(10, 11, "linear")
        with pytest.raises(ConfigError):
            select_subsequence(10, 0, "linear")

    @pytest.mark.parametrize("indices, message", [
        ((), "subsequence must select at least one timestep"),
        ((0, 5), "subsequence indices must be >= 1"),
        ((2, 5, 5), "subsequence indices must be strictly increasing"),
        ((3, 2), "subsequence indices must be strictly increasing"),
    ], ids=["empty", "from-zero", "repeat", "decreasing"])
    def test_bad_indices_rejected(self, indices, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            TimestepSubsequence(indices)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            select_subsequence(10, 5, "cubic")

    @given(
        T=st.integers(min_value=1, max_value=2000),
        S=st.integers(min_value=1, max_value=2000),
        kind=st.sampled_from(["linear", "quadratic"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_subsequence_properties(self, T, S, kind):
        if S > T:
            S = 1 + S % T
        sub = select_subsequence(T, S, kind)
        idx = list(sub.indices)
        assert idx[0] >= 1
        assert idx[-1] <= T
        assert all(b > a for a, b in zip(idx, idx[1:]))
        assert len(idx) <= S
        if kind == "linear":
            assert len(idx) == S
            assert idx[-1] == T

