import math

import numpy as np
import pytest

from parseq import (
    Chain,
    ConfigError,
    DiffusionSchedule,
    DivergenceError,
    GaussianOptimalPredictor,
    InversionConfig,
    ShapeError,
    SolverConfig,
    ZeroPredictor,
    chain_coefficients,
    ddim_step,
    h_tilde,
    h_tilde_vjp,
    identity_subsequence,
    init_stack,
    invert,
    make_linear_beta_schedule,
    random_mlp,
    select_subsequence,
    sequential_rollout,
    solve_stack,
)
from parseq import chain, gradients
from parseq.schedule import c1_for_pair, sigma_for_pair

from gradcheck import ConstantPredictor, central_difference_grad


def pair_coefficients(schedule, subsequence):
    """(taus, alpha, sqrt_alpha, c1, sigma) by position, slot 0 being the
    boundary (tau = 0, alpha = 1), built from the schedule's alpha table
    and the pair functions alone: the references below read none of the
    arrays a ``Chain`` builds."""
    taus = np.array((0, *subsequence.indices))
    alpha = schedule.alpha_by_t[taus]
    pairs = (alpha[:-1], alpha[1:], schedule.eta)
    c1 = np.concatenate([[0.0], c1_for_pair(*pairs)])
    sigma = np.concatenate([[0.0], sigma_for_pair(*pairs)])
    return taus, alpha, np.sqrt(alpha), c1, sigma


def h_tilde_reference(states, x_T, schedule, subsequence, predictor, noise=None):
    """Literal double-sum evaluation of the simultaneous update.

    Quadratic in S; used only to pin the O(S) production path on small
    chains.  Position j sums every transition above it with an explicit
    sqrt(A_j / A_t) ratio instead of the shared suffix accumulation.
    """
    taus, alpha, _, c1, sigma = pair_coefficients(schedule, subsequence)
    S = subsequence.S
    if noise is None:
        noise = np.zeros_like(states)
    out = np.empty_like(states)
    for j in range(S):
        acc = math.sqrt(alpha[j] / alpha[S]) * x_T
        for t in range(j, S):
            x_in = states[S - 2 - t] if t + 1 < S else x_T
            eps = predictor.predict(x_in, int(taus[t + 1]))
            acc = acc + math.sqrt(alpha[j] / alpha[t]) * (
                c1[t + 1] * eps + sigma[t + 1] * noise[t]
            )
        out[S - 1 - j] = acc
    return out


def h_tilde_serial(states, x_T, schedule, subsequence, predictor, noise=None):
    """The scaled-coordinate carry written out row by row: y starts at
    x_T / sqrt(A_S), gains u_p = (c1_p eps_p + sigma_p e_p) / sqrt(A_{p-1})
    at each transition, and the row below transition p is sqrt(A_{p-1}) y.
    This is the plain form the production sweep must match bit for bit.
    Noise whose every sigma is zero is left out, as ``Chain`` leaves it out.
    The predictions come from the same one batched call."""
    taus, _, sqrt_alpha, c1, sigma = pair_coefficients(schedule, subsequence)
    S = subsequence.S
    if not sigma.any():
        noise = None
    inputs = np.concatenate([states[: S - 1][::-1], x_T[None]])
    eps = predictor.predict(inputs, taus[1:])
    out = np.empty_like(states)
    y = x_T / sqrt_alpha[S]
    for p in range(S, 0, -1):
        u = (c1[p] / sqrt_alpha[p - 1]) * eps[p - 1]
        if noise is not None:
            u = u + (sigma[p] / sqrt_alpha[p - 1]) * noise[p - 1]
        y = y + u
        out[S - p] = sqrt_alpha[p - 1] * y
    return out


def h_tilde_horner(states, x_T, schedule, subsequence, predictor, noise=None):
    """The earlier unscaled form of the carry, x <- (sqrt(A_{p-1}) / sqrt(A_p)) x
    + c1_p eps_p + sigma_p e_p, row by row.  It rounds differently from
    the scaled prefix sum, so the sweep must agree with it only closely."""
    taus, _, sqrt_alpha, c1, sigma = pair_coefficients(schedule, subsequence)
    S = subsequence.S
    noise = np.zeros_like(states) if noise is None else noise
    inputs = np.concatenate([states[: S - 1][::-1], x_T[None]])
    eps = predictor.predict(inputs, taus[1:])
    out = np.empty_like(states)
    carry = x_T
    for p in range(S, 0, -1):
        carry = (
            (sqrt_alpha[p - 1] / sqrt_alpha[p]) * carry
            + c1[p] * eps[p - 1]
            + sigma[p] * noise[p - 1]
        )
        out[S - p] = carry
    return out


def h_tilde_vjp_serial(states, x_T, schedule, subsequence, predictor, u):
    """Running prefix sums and per-row scaling, one row at a time, around
    the same one batched predictor vjp for the stack and a one-row vjp at
    x_T."""
    taus, _, sqrt_alpha, c1, _ = pair_coefficients(schedule, subsequence)
    S = subsequence.S
    prefixes = np.empty_like(states)
    acc = np.zeros(x_T.size)
    for p in range(1, S + 1):
        acc = acc + sqrt_alpha[p - 1] * u[S - p]
        prefixes[p - 1] = acc
    inputs = np.concatenate([states[: S - 1][::-1], x_T[None]])
    pulled = predictor.vjp(inputs, taus[1:], prefixes)
    cot_states = np.zeros_like(states)
    for p in range(1, S):
        cot_states[S - 1 - p] = (c1[p] / sqrt_alpha[p - 1]) * pulled[p - 1]
    cot_x_T = prefixes[S - 1] / sqrt_alpha[S] + (
        c1[S] / sqrt_alpha[S - 1]
    ) * predictor.vjp(x_T, int(taus[S]), prefixes[S - 1])
    return cot_states, cot_x_T


@pytest.fixture
def sched():
    return make_linear_beta_schedule(100, 1e-4, 0.03)


@pytest.fixture
def gaussian(sched):
    rng = np.random.default_rng(5)
    return GaussianOptimalPredictor(
        rng.normal(size=3), np.abs(rng.normal(size=3)) + 0.4, sched
    )


class TestDdimStep:
    def test_constant_predictor_worked_value(self):
        # prev 0.9, cur 0.8, eta 0, eps = 1, x = 1:
        # sqrt(0.9/0.8)*1 + (sqrt(0.1) - sqrt(0.225))*1.
        sched = make_linear_beta_schedule(2, 0.1, 1.0 - 0.8 / 0.9)
        np.testing.assert_allclose(sched.alpha_by_t[1:], [0.9, 0.8], rtol=1e-12)
        out = ddim_step(np.array([1.0]), 2, sched, ConstantPredictor(np.array([1.0])))
        expected = math.sqrt(1.125) + math.sqrt(0.1) - math.sqrt(0.225)
        assert expected == pytest.approx(0.9025462887714022, rel=1e-13)
        assert out[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_predictor_is_pure_rescaling(self, sched):
        x = np.array([2.0, -1.0])
        out = ddim_step(x, 50, sched, ZeroPredictor(2))
        ratio = math.sqrt(sched.alpha_bar(49) / sched.alpha_bar(50))
        np.testing.assert_allclose(out, ratio * x, rtol=1e-14)

    @pytest.mark.parametrize("t_prev", [50, 51])
    def test_rejects_a_step_that_does_not_go_down(self, sched, t_prev):
        with pytest.raises(ConfigError, match=f"t_prev={t_prev} is not below t=50"):
            ddim_step(np.array([1.0]), 50, sched, ZeroPredictor(1), t_prev=t_prev)

    def test_non_finite_prediction_is_a_divergence(self, sched):
        class ExplodingPredictor(ZeroPredictor):
            def predict(self, x, t):
                return np.full(np.shape(x), np.inf)

        with pytest.raises(DivergenceError, match=r"^non-finite state after the step from t=50$"):
            ddim_step(np.ones(2), 50, sched, ExplodingPredictor(2))

    def test_noise_term_enters_linearly(self):
        sched = make_linear_beta_schedule(10, 0.01, 0.2, eta=1.0)
        x = np.array([0.5])
        eps = np.array([2.0])
        p = ZeroPredictor(1)
        base = ddim_step(x, 5, sched, p, eps_t=None)
        noisy = ddim_step(x, 5, sched, p, eps_t=eps)
        sigma = sigma_for_pair(sched.alpha_bar(4), sched.alpha_bar(5), 1.0)
        assert noisy[0] - base[0] == pytest.approx(2.0 * sigma, rel=1e-13)


class TestSequentialRollout:
    def test_zero_predictor_telescopes(self, sched):
        # With no noise and no predicted noise every step rescales, so
        # x_0 = x_T / sqrt(alpha_bar_T).
        x_T = np.array([1.0, -0.5])
        stack = sequential_rollout(x_T, sched, identity_subsequence(100), ZeroPredictor(2))
        np.testing.assert_allclose(
            stack[-1], x_T / math.sqrt(sched.alpha_bar(100)), rtol=1e-12
        )
        assert stack.shape == (100, 2)

    def test_golden_vector(self):
        # Recorded once from this rollout; the chain is the oracle here and
        # any drift in conventions must show up as a diff against it.
        sched = make_linear_beta_schedule(5, 0.05, 0.25)
        pred = GaussianOptimalPredictor(
            np.array([1.0, -1.0]), np.array([0.5, 2.0]), sched
        )
        stack = sequential_rollout(np.array([0.8, -1.3]), sched, identity_subsequence(5), pred)
        golden = np.array(
            [
                [0.894233971702669, -1.42747069205604],
                [0.9756754650245485, -1.5413783719822274],
                [1.039436394442831, -1.6330299051477979],
                [1.0820904309407227, -1.6955134425959155],
                [1.0997059897966601, -1.720597008599123],
            ]
        )
        np.testing.assert_allclose(stack, golden, rtol=1e-14)

    def test_single_step_subsequence_matches_ddim_step(self, sched, gaussian):
        x_T = np.array([0.3, 1.1, -0.4])
        sub = select_subsequence(100, 1, "linear")
        assert list(sub.indices) == [100]
        stack = sequential_rollout(x_T, sched, sub, gaussian)
        step = ddim_step(x_T, 100, sched, gaussian, t_prev=0)
        np.testing.assert_allclose(stack[0], step, rtol=1e-14)

    def test_matches_full_chain_stepper(self, sched, gaussian):
        x_T = np.array([0.3, 1.1, -0.4])
        stack = sequential_rollout(x_T, sched, identity_subsequence(100), gaussian)
        x = x_T
        for t in range(100, 0, -1):
            x = ddim_step(x, t, sched, gaussian)
        np.testing.assert_allclose(stack[-1], x, rtol=1e-12)


class TestHTilde:
    def test_t1_residual_from_zero_stack(self):
        # T=1, alpha_bar=0.98, zero predictor, x_T=[1], zero stack:
        # the update returns 1/sqrt(0.98) and the residual equals it.
        sched = make_linear_beta_schedule(1, 0.02, 0.02)
        states = np.zeros((1, 1))
        g = h_tilde(states, np.array([1.0]), sched, identity_subsequence(1), ZeroPredictor(1))
        g -= states
        norm = float(np.linalg.norm(g))
        assert g[0, 0] == pytest.approx(1.0 / math.sqrt(0.98), rel=1e-14)
        assert g[0, 0] == pytest.approx(1.0101525445522107, rel=1e-14)
        assert norm == pytest.approx(abs(g[0, 0]), rel=1e-15)

    def test_rollout_stack_is_fixed_point(self, sched, gaussian):
        for S in (1, 5, 25):
            sub = select_subsequence(100, S, "linear")
            x_T = np.random.default_rng(S).standard_normal(3)
            stack = sequential_rollout(x_T, sched, sub, gaussian)
            out = h_tilde(stack, x_T, sched, sub, gaussian)
            np.testing.assert_allclose(out, stack, rtol=0, atol=1e-10)

    def test_matches_literal_double_sum(self, sched):
        rng = np.random.default_rng(8)
        mlp = random_mlp(3, [8], rng, t_max=100)
        sub = select_subsequence(100, 7, "linear")
        states = rng.standard_normal((7, 3))
        x_T = rng.standard_normal(3)
        noise = rng.standard_normal((7, 3))
        sched_s = make_linear_beta_schedule(100, 1e-4, 0.03, eta=0.8)
        fast = h_tilde(states, x_T, sched_s, sub, mlp, noise)
        slow = h_tilde_reference(states, x_T, sched_s, sub, mlp, noise)
        np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("S", [1, 2, 7])
    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_matches_serial_carry_bitwise(self, S, eta):
        # A -0.0 column in the stack and x_T makes signed-zero sums, whose
        # sign the batched sweep must leave as the serial carry does.
        sched = make_linear_beta_schedule(100, 1e-4, 0.03, eta=eta)
        rng = np.random.default_rng(18)
        sub = select_subsequence(100, S, "linear")
        x_T = rng.standard_normal(3)
        x_T[0] = -0.0
        states = rng.standard_normal((S, 3))
        states[:, 0] = -0.0
        for pred in (ZeroPredictor(3), random_mlp(3, [8], rng, t_max=100)):
            for noise in (None, rng.standard_normal((S, 3))):
                out = h_tilde(states, x_T, sched, sub, pred, noise)
                serial = h_tilde_serial(states, x_T, sched, sub, pred, noise)
                np.testing.assert_array_equal(np.signbit(out), np.signbit(serial))
                np.testing.assert_array_equal(out, serial)
                # The unscaled carry and the double sum round differently:
                # close, not bitwise.
                np.testing.assert_allclose(
                    out, h_tilde_horner(states, x_T, sched, sub, pred, noise), rtol=1e-13
                )
                np.testing.assert_allclose(
                    out, h_tilde_reference(states, x_T, sched, sub, pred, noise),
                    rtol=1e-10, atol=1e-12,
                )

    def test_first_row_exact_after_one_application(self, sched, gaussian):
        # Row 0 depends on nothing but x_T, so any input stack fixes it.
        sub = select_subsequence(100, 6, "linear")
        x_T = np.random.default_rng(1).standard_normal(3)
        truth = sequential_rollout(x_T, sched, sub, gaussian)
        junk = np.random.default_rng(2).standard_normal((6, 3)) * 10
        out = h_tilde(junk, x_T, sched, sub, gaussian)
        np.testing.assert_allclose(out[0], truth[0], rtol=1e-12)

    def test_s_applications_reach_rollout(self, sched):
        # Strict triangularity: one row locks per sweep, so S sweeps from
        # arbitrary finite junk equal the sequential rollout.
        rng = np.random.default_rng(3)
        for S, D in [(1, 1), (5, 8), (25, 4)]:
            sub = select_subsequence(100, S, "linear")
            predictor = random_mlp(D, [8], rng, t_max=100)
            x_T = rng.standard_normal(D)
            truth = sequential_rollout(x_T, sched, sub, predictor)
            cur = rng.standard_normal((S, D)) * 7
            for _ in range(S):
                cur = h_tilde(cur, x_T, sched, sub, predictor)
            np.testing.assert_allclose(cur, truth, rtol=0, atol=1e-8)

    def test_elementwise_predictors_reach_rollout_bitwise(self):
        # The batched call of an elementwise predictor gives each row the
        # bits of its per-row call, so S sweeps reproduce the rollout exactly.
        sched = make_linear_beta_schedule(100, 1e-4, 0.03, eta=1.0)
        rng = np.random.default_rng(17)
        sub = select_subsequence(100, 12, "linear")
        x_T = rng.standard_normal(3)
        x_T[0] = -0.0  # checks the signed zeros too
        noise = rng.standard_normal((12, 3))
        for pred in (
            ZeroPredictor(3),
            ConstantPredictor(rng.standard_normal(3)),
            GaussianOptimalPredictor(rng.standard_normal(3), rng.uniform(0.3, 2.0, 3), sched),
        ):
            for pinned in (noise, None):
                cur = init_stack(x_T, 12)
                for _ in range(12):
                    cur = h_tilde(cur, x_T, sched, sub, pred, pinned)
                rollout = sequential_rollout(x_T, sched, sub, pred, pinned)
                np.testing.assert_array_equal(np.signbit(cur), np.signbit(rollout))
                np.testing.assert_array_equal(cur, rollout)

    def test_fixed_noise_equivalence_eta_one(self):
        sched = make_linear_beta_schedule(100, 1e-4, 0.03, eta=1.0)
        rng = np.random.default_rng(4)
        pred = GaussianOptimalPredictor(np.zeros(2), np.ones(2), sched)
        sub = select_subsequence(100, 10, "linear")
        x_T = rng.standard_normal(2)
        noise = rng.standard_normal((10, 2))
        truth = sequential_rollout(x_T, sched, sub, pred, noise)
        cur = init_stack(x_T, 10)
        for _ in range(11):
            cur = h_tilde(cur, x_T, sched, sub, pred, noise)
        np.testing.assert_allclose(cur, truth, rtol=1e-6, atol=1e-12)

    def test_eta_zero_ignores_noise_bitwise(self, sched, gaussian):
        # With a -0.0 column, adding the zero noise terms would turn signed
        # zeros into +0.0, so the sign bits show that the noise is left out.
        sub = select_subsequence(100, 8, "linear")
        rng = np.random.default_rng(9)
        states = rng.standard_normal((8, 3))
        x_T = rng.standard_normal(3)
        states[:, 0] = x_T[0] = -0.0
        noise = rng.standard_normal((8, 3))
        assert Chain(sched, sub, gaussian, noise).scaled_noise is None
        for pred in (gaussian, ZeroPredictor(3)):
            a = h_tilde(states, x_T, sched, sub, pred)
            b = h_tilde(states, x_T, sched, sub, pred, noise)
            np.testing.assert_array_equal(np.signbit(a), np.signbit(b))
            np.testing.assert_array_equal(a, b)

    def test_shape_errors(self, sched, gaussian):
        sub = select_subsequence(100, 4, "linear")
        with pytest.raises(ShapeError):
            h_tilde(np.zeros((5, 3)), np.zeros(3), sched, sub, gaussian)
        with pytest.raises(ShapeError):
            h_tilde(np.zeros((4, 3)), np.zeros(3), sched, sub, gaussian,
                    noise=np.zeros((3, 3)))

    def test_divergence_detected(self, sched):
        class ExplodingPredictor(ZeroPredictor):
            def predict(self, x, t):
                return np.full(np.shape(x), np.inf)

        sub = select_subsequence(100, 3, "linear")
        with pytest.raises(DivergenceError):
            h_tilde(np.zeros((3, 2)), np.ones(2), sched, sub, ExplodingPredictor(2))

    @pytest.mark.parametrize("method", ["picard", "anderson"])
    def test_solve_divergence_detected(self, sched, method):
        # The sweep leaves the finiteness check to the solver.
        class ExplodingPredictor(ZeroPredictor):
            def predict(self, x, t):
                return np.full(np.shape(x), np.inf)

        sub = select_subsequence(100, 3, "linear")
        with pytest.raises(DivergenceError):
            solve_stack(Chain(sched, sub, ExplodingPredictor(2)), np.ones(2),
                        cfg=SolverConfig(method=method))


class TestHTildeVjp:
    def test_zero_predictor_closed_form(self, sched):
        # Only the direct x_T column survives: sum_k sqrt(A_{pos k} / A_S) u_k.
        sub = select_subsequence(100, 5, "linear")
        _, alpha, _, _, _ = pair_coefficients(sched, sub)
        rng = np.random.default_rng(12)
        u = rng.standard_normal((5, 2))
        states = rng.standard_normal((5, 2))
        x_T = rng.standard_normal(2)
        cot_states, cot_x_T = h_tilde_vjp(
            states, x_T, sched, sub, ZeroPredictor(2), u
        )
        np.testing.assert_array_equal(cot_states, np.zeros((5, 2)))
        expected = sum(
            math.sqrt(alpha[5 - 1 - k] / alpha[5]) * u[k]
            for k in range(5)
        )
        np.testing.assert_allclose(cot_x_T, expected, rtol=1e-12)

    def test_zero_cotangent_maps_to_zero(self, sched, gaussian):
        sub = select_subsequence(100, 4, "linear")
        rng = np.random.default_rng(13)
        cs, cx = h_tilde_vjp(
            rng.standard_normal((4, 3)),
            rng.standard_normal(3),
            sched,
            sub,
            gaussian,
            np.zeros((4, 3)),
        )
        np.testing.assert_array_equal(cs, np.zeros((4, 3)))
        np.testing.assert_array_equal(cx, np.zeros(3))

    @pytest.mark.parametrize(
        "predictor_kind, S, eta",
        [
            ("gaussian", 3, 0.0),
            ("mlp", 3, 0.0),
            *[(kind, S, 1.0) for kind in ("gaussian", "mlp") for S in (1, 2, 3)],
        ],
        ids=["gaussian", "mlp", *[f"{kind}-S{S}-eta1" for kind in ("gaussian", "mlp")
                                  for S in (1, 2, 3)]],
    )
    def test_matches_finite_differences(self, predictor_kind, S, eta):
        # The noise stack enters h_tilde additively, so at eta = 1 the
        # differences see it and the vjp, which never reads it, must agree.
        sched = make_linear_beta_schedule(100, 1e-4, 0.03, eta=eta)
        rng = np.random.default_rng(14)
        if predictor_kind == "gaussian":
            predictor = GaussianOptimalPredictor(
                rng.normal(size=2), np.abs(rng.normal(size=2)) + 0.3, sched
            )
        else:
            predictor = random_mlp(2, [6], rng, t_max=100)
        sub = select_subsequence(100, S, "linear")
        states = rng.standard_normal((S, 2))
        x_T = rng.standard_normal(2)
        u = rng.standard_normal((S, 2))
        noise = rng.standard_normal((S, 2)) if eta > 0.0 else None
        cot_states, cot_x_T = h_tilde_vjp(states, x_T, sched, sub, predictor, u)

        def through_states(flat):
            out = h_tilde(flat.reshape(S, 2), x_T, sched, sub, predictor, noise)
            return float((out * u).sum())

        def through_x_T(xv):
            out = h_tilde(states, xv, sched, sub, predictor, noise)
            return float((out * u).sum())

        fd_states = central_difference_grad(through_states, states.ravel())
        fd_x_T = central_difference_grad(through_x_T, x_T)
        np.testing.assert_allclose(
            cot_states.ravel(), fd_states, rtol=1e-5, atol=1e-8
        )
        np.testing.assert_allclose(cot_x_T, fd_x_T, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("S", [1, 2, 7])
    def test_matches_serial_prefix_bitwise(self, sched, S):
        # A leading -0.0 cotangent row checks that the prefix sums start
        # from +0.0 as a running sum does.
        rng = np.random.default_rng(19)
        predictor = random_mlp(3, [8], rng, t_max=100)
        sub = select_subsequence(100, S, "linear")
        states = rng.standard_normal((S, 3))
        x_T = rng.standard_normal(3)
        u = rng.standard_normal((S, 3))
        u[S - 1] = -0.0
        for pred in (ZeroPredictor(3), predictor):
            fast = h_tilde_vjp(states, x_T, sched, sub, pred, u)
            slow = h_tilde_vjp_serial(states, x_T, sched, sub, pred, u)
            for a, b in zip(fast, slow):
                np.testing.assert_array_equal(np.signbit(a), np.signbit(b))
                np.testing.assert_array_equal(a, b)

    def test_denoised_row_gets_no_cotangent(self, sched, gaussian):
        # No output reads the stack's bottom row, so nothing flows back to it.
        sub = select_subsequence(100, 5, "linear")
        rng = np.random.default_rng(15)
        cs, _ = h_tilde_vjp(
            rng.standard_normal((5, 3)),
            rng.standard_normal(3),
            sched,
            sub,
            gaussian,
            rng.standard_normal((5, 3)),
        )
        np.testing.assert_array_equal(cs[4], np.zeros(3))

    def test_single_transition(self, sched):
        # At S = 1 the stack feeds no transition: the update reads only
        # x_T, and the whole cotangent lands on x_T.
        rng = np.random.default_rng(16)
        predictor = random_mlp(2, [6], rng, t_max=100)
        sub = select_subsequence(100, 1, "linear")
        states = rng.standard_normal((1, 2))
        x_T = rng.standard_normal(2)
        u = rng.standard_normal((1, 2))
        out = h_tilde(states, x_T, sched, sub, predictor)
        np.testing.assert_allclose(
            out, sequential_rollout(x_T, sched, sub, predictor), rtol=1e-12
        )
        cot_states, cot_x_T = h_tilde_vjp(states, x_T, sched, sub, predictor, u)
        np.testing.assert_array_equal(cot_states, np.zeros((1, 2)))

        def through_x_T(xv):
            return float((h_tilde(states, xv, sched, sub, predictor) * u).sum())

        np.testing.assert_allclose(
            cot_x_T, central_difference_grad(through_x_T, x_T), rtol=1e-5, atol=1e-8
        )


class TestChainCoefficients:
    """The constants a ``Chain`` keeps, against the pair functions."""

    def test_boundary_and_labels(self, sched):
        sub = select_subsequence(100, 4, "linear")
        chain_ = Chain(sched, sub, ZeroPredictor(2), np.ones((4, 2)))
        assert chain_.sqrt_alpha[0] == 1.0 and chain_.scaled_c1[0] == 0.0
        assert chain_.timesteps.tolist() == [25, 50, 75, 100]
        assert chain_.scaled_noise is None  # eta = 0: every sigma is zero
        for i, tau in enumerate(sub.indices, start=1):
            assert chain_.sqrt_alpha[i] == math.sqrt(sched.alpha_bar(tau))

    @pytest.mark.parametrize("kind", ["linear", "quadratic", "full"])
    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
    def test_transition_coefficients_match_pair_functions(self, eta, kind):
        # The whole-array build equals the scalar formulas bit for bit,
        # signed zeros included.
        sched = make_linear_beta_schedule(50, 1e-3, 0.04, eta=eta)
        sub = identity_subsequence(50) if kind == "full" else select_subsequence(50, 5, kind)
        noise = np.random.default_rng(5).standard_normal((sub.S, 2))
        chain_ = Chain(sched, sub, ZeroPredictor(2), noise)
        pairs = [(sched.alpha_bar(t_prev), sched.alpha_bar(t), eta)
                 for t_prev, t in zip((0, *sub.indices), sub.indices)]
        sqrt_alpha = np.sqrt([1.0] + [pair[1] for pair in pairs])
        assert chain_.sqrt_alpha.tobytes() == sqrt_alpha.tobytes()
        scaled_c1 = [0.0] + [c1_for_pair(*pair) / np.sqrt(pair[0]) for pair in pairs]
        assert chain_.scaled_c1.tobytes() == np.array(scaled_c1).tobytes()
        if eta == 0.0:
            assert chain_.scaled_noise is None
        else:
            scaled_noise = [sigma_for_pair(*pair) / np.sqrt(pair[0]) * row
                            for pair, row in zip(pairs, noise)]
            assert chain_.scaled_noise.tobytes() == np.array(scaled_noise).tobytes()

    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    def test_no_negative_zero_at_eta_zero(self, kind):
        sched = make_linear_beta_schedule(1000, eta=0.0)
        sub = select_subsequence(1000, 100, kind)
        chain_ = Chain(sched, sub, ZeroPredictor(2), np.ones((sub.S, 2)))
        for arr in (chain_.sqrt_alpha, chain_.scaled_c1):
            assert not np.any((arr == 0.0) & np.signbit(arr))
        assert chain_.scaled_noise is None

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_the_benchmark_build_gives_the_chain_arrays(self, eta):
        # The whole-array build a caller times on its own returns the
        # arrays a chain keeps, and the sigma its noise is scaled by.
        sched = make_linear_beta_schedule(1000, eta=eta)
        sub = select_subsequence(1000, 100, "linear")
        noise = np.random.default_rng(6).standard_normal((100, 3))
        chain_ = Chain(sched, sub, ZeroPredictor(3), noise)
        timesteps, sqrt_alpha, scaled_c1, sigma = chain_coefficients(sched, sub)
        assert timesteps.tobytes() == chain_.timesteps.tobytes()
        assert sqrt_alpha.tobytes() == chain_.sqrt_alpha.tobytes()
        assert scaled_c1.tobytes() == chain_.scaled_c1.tobytes()
        assert sigma[0] == 0.0 and sigma.size == 101
        if eta == 0.0:
            assert not sigma.any() and chain_.scaled_noise is None
        else:
            scaled_noise = (sigma[1:] / sqrt_alpha[:-1])[:, None] * noise
            assert scaled_noise.tobytes() == chain_.scaled_noise.tobytes()

    def test_built_without_scalar_lookups(self, monkeypatch):
        # Every position's product comes from the schedule's table in one
        # indexing operation, not from a per-position alpha_bar call.
        calls = []
        lookup = DiffusionSchedule.alpha_bar
        monkeypatch.setattr(DiffusionSchedule, "alpha_bar",
                            lambda self, t: calls.append(t) or lookup(self, t))
        sched = make_linear_beta_schedule(1000, eta=1.0)
        Chain(sched, select_subsequence(1000, 100, "linear"), ZeroPredictor(2))
        assert calls == []

    def test_scaled_c1_is_c1_over_the_lower_sqrt_alpha(self, sched):
        sub = select_subsequence(100, 9, "quadratic")
        _, _, sqrt_alpha, c1, _ = pair_coefficients(sched, sub)
        chain_ = Chain(sched, sub, ZeroPredictor(2))
        assert chain_.scaled_c1[0] == 0.0
        for p in range(1, chain_.S + 1):
            assert chain_.scaled_c1[p] == c1[p] / sqrt_alpha[p - 1]

    def test_arrays_are_read_only(self, sched):
        # One chain serves every sweep of a solve, so no sweep may edit it.
        sched = make_linear_beta_schedule(100, 1e-4, 0.03, eta=1.0)
        chain_ = Chain(sched, select_subsequence(100, 4, "linear"), ZeroPredictor(2),
                       np.ones((4, 2)))
        for name in ("timesteps", "sqrt_alpha", "scaled_c1", "noise", "scaled_noise"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(chain_, name)[1] = 0

    @pytest.mark.parametrize("method", ["picard", "anderson"])
    @pytest.mark.parametrize("max_iters", [1, 3, 6])
    def test_built_once_per_call(self, monkeypatch, method, max_iters):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return chain_coefficients(*args, **kwargs)

        for module in (chain, gradients):
            monkeypatch.setattr(module, "chain_coefficients", counting, raising=False)
        sched = make_linear_beta_schedule(100, 1e-4, 0.03)
        sub = select_subsequence(100, 8, "linear")
        rng = np.random.default_rng(20)
        pred = random_mlp(3, [8], rng, t_max=100)
        x_T = rng.standard_normal(3)
        cfg = SolverConfig(method=method, max_iters=max_iters, tol=0.0)
        pinned = Chain(sched, sub, pred)
        assert len(calls) == 1
        result = solve_stack(pinned, x_T, cfg)
        assert result.iters == max_iters
        target = rng.standard_normal(3)
        for grad in (gradients.exact_ift_grad, gradients.phantom_grad):
            grad(pinned, result.states, x_T, target)
        assert len(calls) == 1
        # The per-call wrappers build a fresh chain each.
        seed_stack = np.zeros_like(result.states)
        seed_stack[-1] = 1.0
        _, deltas = gradients.adjoint_solve(
            result.states, x_T, seed_stack, sched, sub, pred, tol=1e-12
        )
        assert deltas == []
        assert len(calls) == 2
        gradients.rollout_backprop_grad(x_T, target, sched, sub, pred)
        assert len(calls) == 3

    def test_identity_subsequence_spans_chain(self, sched):
        chain_ = Chain(sched, identity_subsequence(100), ZeroPredictor(2))
        assert chain_.S == 100 and chain_.sqrt_alpha.size == 101
        assert chain_.timesteps[-1] == 100


class TestChain:
    def test_the_full_chain_is_the_identity_subsequence(self, sched, gaussian):
        sub = identity_subsequence(100)
        full = Chain(sched, sub, gaussian)
        assert full.subsequence is sub
        assert full.S == 100 and full.timesteps.tolist() == list(range(1, 101))
        assert full.noise is None

    def test_noise_checked_against_S_and_predictor_dimension(self, sched, gaussian):
        sub = select_subsequence(100, 4, "linear")
        chain = Chain(sched, sub, gaussian, [[0.5] * 3] * 4)
        assert chain.noise.dtype == np.float64 and chain.noise.shape == (4, 3)
        with pytest.raises(ValueError, match="read-only"):
            chain.noise[0, 0] = 1.0
        for shape in ((3, 3), (4, 2)):
            with pytest.raises(ShapeError, match="noise shape"):
                Chain(sched, sub, gaussian, np.zeros(shape))

    def test_subsequence_beyond_T_is_rejected(self, gaussian):
        short = make_linear_beta_schedule(50, 1e-4, 0.03)
        with pytest.raises(ShapeError, match="beyond T=50"):
            Chain(short, select_subsequence(100, 4, "linear"), gaussian)


class DelegatingCounter:
    """A counting proxy that is no NoisePredictor: it counts predict calls
    and hands every other attribute, ``prepare`` included, to the wrapped
    predictor, as a tracing wrapper does."""

    def __init__(self, inner):
        self._inner = inner
        self.predict_calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def predict(self, x, t):
        self.predict_calls += 1
        return self._inner.predict(x, t)


def _gaussian_chain(sched, S, seed, noise=False):
    rng = np.random.default_rng(seed)
    pred = GaussianOptimalPredictor(rng.standard_normal(5), rng.uniform(0.3, 2.0, 5), sched)
    sub = select_subsequence(sched.T, S, "linear")
    stack = rng.standard_normal((S, 5)) if noise else None
    return Chain(sched, sub, pred, stack), rng.standard_normal(5)


class TestPreparedPredictor:
    """A chain holds the labels its predictor prepared; they change no bits,
    and no predictor keeps anything."""

    @staticmethod
    def count_builds(monkeypatch):
        builds = []
        terms = GaussianOptimalPredictor._terms
        monkeypatch.setattr(GaussianOptimalPredictor, "_terms",
                            lambda self, t: builds.append(t) or terms(self, t))
        return builds

    def test_chain_prepares_once_and_a_proxy_still_sees_every_sweep(self, monkeypatch):
        # The proxy forwards prepare and passes t through untouched, so the
        # chain's labels reach the predictor and every sweep is counted.
        sched = make_linear_beta_schedule(100, 1e-4, 0.05, eta=1.0)
        gauss, x_T = _gaussian_chain(sched, 12, 1, noise=True)
        prepared = []
        prepare = GaussianOptimalPredictor.prepare

        def recording(self, timesteps):
            prepared.append((timesteps, prepare(self, timesteps)))
            return prepared[-1][1]

        monkeypatch.setattr(GaussianOptimalPredictor, "prepare", recording)
        builds = self.count_builds(monkeypatch)
        proxy = DelegatingCounter(gauss.predictor)
        chain_ = Chain(sched, gauss.subsequence, proxy, gauss.noise)
        assert len(prepared) == 1 and prepared[0][0] is chain_.timesteps
        assert chain_.labels is prepared[0][1]
        assert chain_.timesteps.tolist() == list(gauss.subsequence.indices)
        assert not chain_.timesteps.flags.writeable
        assert len(builds) == 1
        res = solve_stack(chain_, x_T, SolverConfig(method="anderson", max_iters=50))
        assert res.converged and proxy.predict_calls == res.iters
        assert len(prepared) == 1 and len(builds) == 1

    def test_shared_predictor_serves_two_chains_bitwise(self):
        # One predictor shared by two chains must give each chain the bits
        # an unshared predictor gives it, sweep after sweep.
        sched = make_linear_beta_schedule(100, 1e-4, 0.05, eta=1.0)
        rng = np.random.default_rng(2)
        mu, var, x_T = rng.standard_normal(5), rng.uniform(0.3, 2.0, 5), rng.standard_normal(5)
        shared = GaussianOptimalPredictor(mu, var, sched)
        pairs = []
        for S in (10, 7):
            sub, noise = select_subsequence(100, S, "linear"), rng.standard_normal((S, 5))
            pairs.append((Chain(sched, sub, shared, noise),
                          Chain(sched, sub, GaussianOptimalPredictor(mu, var, sched), noise)))
        target = np.linspace(-1.0, 1.0, 5)
        for _ in range(2):
            for mine, ref in pairs:
                stack = chain._rollout(ref, x_T)
                assert chain._rollout(mine, x_T).tobytes() == stack.tobytes()
                assert (chain._sweep(mine, stack, x_T).tobytes()
                        == chain._sweep(ref, stack, x_T).tobytes())
                got = gradients.exact_ift_grad(mine, stack, x_T, target)
                want = gradients.exact_ift_grad(ref, stack, x_T, target)
                assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()

    def test_built_chain_computes_no_gaussian_terms(self, monkeypatch):
        # The cost count behind the per-chain terms: once the chain is
        # built, a full Anderson solve, its exact and phantom gradients, a
        # rollout, a naive rollout gradient and a few inversion epochs build
        # no gain or shift at all, even after other chains were built on
        # the same predictor.
        sched = make_linear_beta_schedule(1000, eta=1.0)
        gauss, x_T = _gaussian_chain(sched, 100, 3, noise=True)
        pred = gauss.predictor
        Chain(sched, select_subsequence(1000, 50, "linear"), pred)
        Chain(sched, gauss.subsequence, pred, gauss.noise)  # the same timesteps
        sequential_rollout(x_T, sched, gauss.subsequence, pred, gauss.noise)
        builds = self.count_builds(monkeypatch)
        res = solve_stack(gauss, x_T, SolverConfig(method="anderson", max_iters=50))
        assert res.converged and res.iters > 10
        target = np.zeros(5)
        gradients.exact_ift_grad(gauss, res.states, x_T, target)
        gradients.phantom_grad(gauss, res.states, x_T, target)
        gradients.exact_ift_grad(gauss, chain._rollout(gauss, x_T), x_T, target)
        gradients._rollout_grad(gauss, x_T, target)
        for mode in ("naive", "phantom", "exact"):
            run = invert(target, InversionConfig(epochs=3, gradient_mode=mode), gauss)
            assert run.epochs_run == 3
        assert builds == []
        Chain(sched, gauss.subsequence, pred, gauss.noise)
        assert len(builds) == 1  # every chain builds its own terms once
        Chain(sched, select_subsequence(1000, 50, "linear"), pred)
        assert len(builds) == 2

    @pytest.mark.parametrize("kind", ["zero", "constant", "gaussian", "mlp"])
    def test_no_predictor_keeps_state(self, kind):
        # Building a chain and running a solve, both gradients and a rollout
        # on it leave every attribute of the predictor the object it was.
        sched = make_linear_beta_schedule(100, 1e-4, 0.05, eta=1.0)
        rng = np.random.default_rng(5)
        pred = {
            "zero": lambda: ZeroPredictor(3),
            "constant": lambda: ConstantPredictor(rng.standard_normal(3)),
            "gaussian": lambda: GaussianOptimalPredictor(
                rng.standard_normal(3), rng.uniform(0.3, 2.0, 3), sched),
            "mlp": lambda: random_mlp(3, [8], rng, t_max=100, scale=0.5),
        }[kind]()
        before = dict(vars(pred))
        chain_ = Chain(sched, select_subsequence(100, 9, "linear"), pred,
                       rng.standard_normal((9, 3)))
        x_T, target = rng.standard_normal(3), rng.standard_normal(3)
        res = solve_stack(chain_, x_T, SolverConfig(method="anderson", max_iters=50))
        gradients.exact_ift_grad(chain_, res.states, x_T, target)
        gradients.phantom_grad(chain_, res.states, x_T, target)
        gradients._rollout_grad(chain_, x_T, target)
        chain._rollout(chain_, x_T)
        after = vars(pred)
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)

    @pytest.mark.parametrize("kind", ["zero", "constant", "gaussian"])
    def test_positional_slices_give_the_full_batch_rows(self, kind, monkeypatch):
        # ROADMAP item 4's half-window gate in bits: a slice of the chain's
        # batch label gives the full batch's rows for predict and vjp, and
        # builds no terms; so does each row label for its row.
        sched = make_linear_beta_schedule(1000, eta=1.0)
        rng = np.random.default_rng(6)
        pred = {
            "zero": lambda: ZeroPredictor(5),
            "constant": lambda: ConstantPredictor(rng.standard_normal(5)),
            "gaussian": lambda: GaussianOptimalPredictor(
                rng.standard_normal(5), rng.uniform(0.3, 2.0, 5), sched),
        }[kind]()
        S = 40
        chain_ = Chain(sched, select_subsequence(1000, S, "linear"), pred)
        batch, rows = chain_.labels
        x, u = rng.standard_normal((S, 5)), rng.standard_normal((S, 5))
        builds = self.count_builds(monkeypatch)
        eps, pulled = pred.predict(x, batch), pred.vjp(x, batch, u)
        for part in (slice(0, S // 2), slice(S // 2, S), slice(7, 31), slice(None, None, -1),
                     slice(3, 4)):
            assert pred.predict(x[part], batch[part]).tobytes() == eps[part].tobytes()
            assert pred.vjp(x[part], batch[part], u[part]).tobytes() == pulled[part].tobytes()
            assert batch[part].tolist() == chain_.timesteps[part].tolist()
        for i in range(S):
            assert pred.predict(x[i], rows[i]).tobytes() == eps[i].tobytes()
            assert pred.vjp(x[i], rows[i], u[i]).tobytes() == pulled[i].tobytes()
        assert builds == []


class TestInitStack:
    def test_x_T_broadcast(self):
        x_T = np.array([1.0, 2.0])
        stack = init_stack(x_T, 3)
        assert stack.shape == (3, 2)
        for row in stack:
            np.testing.assert_array_equal(row, x_T)

    def test_zero_init(self):
        stack = init_stack(np.ones(2), 3, kind="zero")
        np.testing.assert_array_equal(stack, np.zeros((3, 2)))

    def test_unknown_kind_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"^unknown init kind 'ones'$"):
            init_stack(np.ones(2), 3, kind="ones")


class TestStackChecks:
    """The shape checks every public stack function shares."""

    def test_x_T_must_be_one_state(self, gaussian):
        chain_ = Chain(gaussian.schedule, select_subsequence(100, 3, "linear"), gaussian)
        with pytest.raises(ShapeError, match=r"^x_T must be 1-d, got shape \(1, 3\)$"):
            solve_stack(chain_, np.zeros((1, 3)), SolverConfig(), np.zeros((3, 3)))

    def test_cotangent_must_have_the_stacks_shape(self, gaussian):
        sched, sub = gaussian.schedule, select_subsequence(100, 3, "linear")
        states, x_T, wrong = np.zeros((3, 3)), np.ones(3), np.ones((1, 3))
        message = r"^cotangent shape \(1, 3\) does not match stack \(3, 3\)$"
        with pytest.raises(ShapeError, match=message):
            h_tilde_vjp(states, x_T, sched, sub, gaussian, wrong)
        with pytest.raises(ShapeError, match=message):
            gradients.adjoint_solve(states, x_T, wrong, sched, sub, gaussian)


def _rollout_reference(chain_, x_T, keep=False):
    """The per-step rollout loop as it stood before its steps were made
    lean, the bitwise reference for ``chain._rollout``: numpy scalar
    coefficients read per step, a fresh y and state per step, and a full
    finiteness scan of every state.  The coefficients come from
    ``pair_coefficients``, and the noise, left out where every sigma is
    zero as ``Chain`` leaves it out, from the chain's input stack."""
    taus, _, sqrt_alpha, c1, sigma = pair_coefficients(chain_.schedule, chain_.subsequence)
    predictor, noise = chain_.predictor, chain_.noise if sigma.any() else None
    S = chain_.subsequence.S
    x = np.asarray(x_T, dtype=np.float64)
    y = x / sqrt_alpha[S]
    states = np.empty((S, x.size))
    kept = [None] * S if keep else None
    for p in range(S, 0, -1):
        t = int(taus[p])
        if kept is None:
            eps = predictor.predict(x, t)
        else:
            eps, kept[p - 1] = predictor.predict_and_state(x, t)
        u = (c1[p] / sqrt_alpha[p - 1]) * eps
        if noise is not None:
            u += (sigma[p] / sqrt_alpha[p - 1]) * noise[p - 1]
        y = y + u
        x = states[S - p] = sqrt_alpha[p - 1] * y
        if not np.isfinite(x).all():
            raise DivergenceError(f"non-finite state after the step from t={t}")
    return states if kept is None else (states, kept)


def _state_bytes(kept):
    return [None if s is None else [a.tobytes() for a in s] for s in kept]


class TestRolloutBits:
    """``_rollout`` keeps the bits of the reference loop, states and kept
    vjp states alike, and names the first step that leaves the floats."""

    @pytest.mark.parametrize("keep", [False, True])
    @pytest.mark.parametrize("S", [1, 2, 10])
    @pytest.mark.parametrize("eta", [0.0, 1.0])
    @pytest.mark.parametrize("kind", ["zero", "gaussian", "mlp"])
    def test_matches_the_reference_loop_bytewise(self, kind, eta, S, keep):
        sched = make_linear_beta_schedule(100, 1e-4, 0.03, eta=eta)
        rng = np.random.default_rng(17)
        D = 4
        predictor = {
            "zero": lambda: ZeroPredictor(D),
            "gaussian": lambda: GaussianOptimalPredictor(
                rng.normal(size=D), rng.uniform(0.3, 2.0, D), sched),
            "mlp": lambda: random_mlp(D, [8, 8], rng, t_max=100),
        }[kind]()
        chain_ = Chain(sched, select_subsequence(100, S, "linear"), predictor,
                       rng.standard_normal((S, D)))
        x_T = rng.standard_normal(D)
        got, want = chain._rollout(chain_, x_T, keep), _rollout_reference(chain_, x_T, keep)
        if keep:
            (got, got_kept), (want, want_kept) = got, want
            assert len(got_kept) == S
            assert _state_bytes(got_kept) == _state_bytes(want_kept)
        assert got.shape == (S, D) and got.tobytes() == want.tobytes()
        assert sequential_rollout(x_T, sched, chain_.subsequence, predictor,
                                  chain_.noise).tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("keep", [False, True])
    def test_huge_finite_states_do_not_raise(self, sched, keep):
        # Every state's squared norm overflows, yet every state is finite.
        chain_ = Chain(sched, select_subsequence(100, 10, "linear"),
                       ConstantPredictor(np.array([1e200, -3e200, 2e200])))
        x_T = np.array([1e180, 0.0, -1e180])
        got, want = chain._rollout(chain_, x_T, keep), _rollout_reference(chain_, x_T, keep)
        if keep:
            got, want = got[0], want[0]
        assert np.abs(got).min(axis=1).min() > 1e154 and np.isfinite(got).all()
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_divergence_names_the_first_non_finite_step(self, sched, bad):
        # The predictor breaks down at t = 50, mid-chain; the steps above it
        # are finite, and the error names that step's label and no other.
        class BreaksAtFifty(ZeroPredictor):
            def predict(self, x, t):
                out = super().predict(x, t)
                if t == 50:
                    out[1] = bad
                return out

        sub = select_subsequence(100, 10, "linear")
        message = r"^non-finite state after the step from t=50$"
        with pytest.raises(DivergenceError, match=message):
            sequential_rollout(np.ones(3), sched, sub, BreaksAtFifty(3))
        for keep in (False, True):
            with pytest.raises(DivergenceError, match=message):
                chain._rollout(Chain(sched, sub, BreaksAtFifty(3)), np.ones(3), keep=keep)
