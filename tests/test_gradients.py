import csv

import numpy as np
import pytest

from parseq import (
    Chain,
    Adam,
    DivergenceError,
    GaussianOptimalPredictor,
    InversionConfig,
    NoisePredictor,
    NumericDomainError,
    ShapeError,
    SolverConfig,
    ZeroPredictor,
    adjoint_solve,
    draw_x_T,
    exact_ift_grad,
    h_tilde,
    h_tilde_vjp,
    identity_subsequence,
    invert,
    loss_and_seed,
    make_linear_beta_schedule,
    phantom_grad,
    random_mlp,
    rollout_backprop_grad,
    select_subsequence,
    sequential_rollout,
    solve_stack,
)
from parseq.chain import _rollout
from parseq.gradients import ADAM_BETA1, ADAM_BETA2, ADAM_EPS

from gradcheck import ConstantPredictor, central_difference_grad, write_gradcheck_report


def solved_case(S, D, seed, eta=0.0, hidden=12, T=60):
    """A chain with a random MLP predictor solved to machine tolerance."""
    sched = make_linear_beta_schedule(T, 1e-4, 0.03, eta=eta)
    sub = select_subsequence(T, S, "linear")
    rng = np.random.default_rng(seed)
    pred = random_mlp(D, [hidden], rng, t_max=T)
    x_T = rng.standard_normal(D)
    noise = rng.standard_normal((S, D)) if eta > 0 else None
    res = solve_stack(
        Chain(sched, sub, pred, noise), x_T,
        SolverConfig(method="picard", max_iters=S + 2, tol=1e-13),
    )
    target = rng.standard_normal(D)
    return sched, sub, pred, x_T, noise, res.states, target


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        opt = Adam()
        x = np.array([1.0, -2.0])
        for _ in range(5):
            x = opt.step(x, np.zeros(2))
        np.testing.assert_array_equal(x, [1.0, -2.0])

    def test_first_step_is_normalized_gradient(self):
        # Bias correction makes m_hat = g and v_hat = g*g on step one, so
        # the update is exactly lr * g / (|g| + eps).
        g = np.array([1.0, -2.0, 0.5])
        x0 = np.array([0.3, 0.3, 0.3])
        opt = Adam(lr=0.01)
        x1 = opt.step(x0, g)
        expected = x0 - 0.01 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(x1, expected, rtol=1e-14)
        assert opt.t == 1

    def test_quadratic_reaches_tolerance_in_100_steps(self):
        c = np.array([0.3, -0.7, 1.1])
        rng = np.random.default_rng(0)
        u = rng.standard_normal(3)
        x = c + 0.1 * u / np.linalg.norm(u)
        opt = Adam(lr=0.01)
        for _ in range(100):
            x = opt.step(x, 2.0 * (x - c))
        assert np.linalg.norm(x - c) < 1e-3

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Adam().step(np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("name", ["beta1", "beta2", "eps"])
    def test_only_the_learning_rate_is_a_setting(self, name):
        # The decay rates and eps are module constants; Adam takes only lr.
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)
        with pytest.raises(TypeError, match=name):
            Adam(**{name: 0.5})


class TestLossAndSeed:
    def test_squared_values(self):
        loss, seed = loss_and_seed(np.array([1.0, 2.0]), np.zeros(2))
        assert loss == 5.0
        np.testing.assert_array_equal(seed, [2.0, 4.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss_and_seed(np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("D", [1, 16, 4096])
    def test_loss_has_the_bits_of_the_dot_product(self, D):
        rng = np.random.default_rng(D)
        for _ in range(20):
            x0, target = rng.standard_normal(D), rng.standard_normal(D)
            r = x0 - target
            loss, seed = loss_and_seed(x0, target)
            assert np.float64(loss).tobytes() == np.float64(r @ r).tobytes()
            assert seed.tobytes() == (2.0 * r).tobytes()

    def test_overflowing_loss_is_a_domain_error_and_no_warning(self):
        # Every entry is finite and only the sum of squares overflows; the
        # guard raises, and no overflow warning comes first.
        with pytest.raises(NumericDomainError, match="not finite"):
            loss_and_seed(np.array([1e200, -1e200]), np.zeros(2))


class TestCentralDifference:
    def test_quadratic(self):
        x = np.array([0.5, -1.5, 2.0])
        got = central_difference_grad(lambda z: float(z @ z), x)
        np.testing.assert_allclose(got, 2 * x, rtol=1e-9)


class TestPhantomGrad:
    def test_zero_at_optimum(self):
        sched, sub, pred, x_T, _, stack, _ = solved_case(5, 2, 0)
        loss, grad = phantom_grad(Chain(sched, sub, pred), stack, x_T, stack[-1].copy())
        assert loss <= 1e-20
        assert np.linalg.norm(grad) <= 1e-12

    def test_zero_predictor_single_step_closed_form(self):
        sched = make_linear_beta_schedule(1, 0.02, 0.02)
        x_T = np.array([0.7, -0.4])
        stack = sequential_rollout(x_T, sched, identity_subsequence(1), ZeroPredictor(2))
        target = np.array([0.1, 0.2])
        tau = 0.3
        loss, grad = phantom_grad(
            Chain(sched, identity_subsequence(1), ZeroPredictor(2)), stack, x_T, target, tau=tau
        )
        expected = tau * 2.0 * (stack[0] - target) / np.sqrt(0.98)
        np.testing.assert_allclose(grad, expected, rtol=1e-14)

    @pytest.mark.parametrize("predictor_kind", ["gaussian", "mlp"])
    def test_matches_finite_differences_of_damped_step(self, predictor_kind):
        # The scalar function phantom_grad differentiates: the damped
        # one-step loss with the solver output held constant.
        sched, sub, pred, x_T, _, stack, target = solved_case(5, 2, 1)
        if predictor_kind == "gaussian":
            pred = GaussianOptimalPredictor(
                np.array([0.4, -0.2]), np.array([1.2, 0.7]), sched
            )
            stack = solve_stack(
                Chain(sched, sub, pred), x_T,
                cfg=SolverConfig(method="picard", max_iters=7, tol=1e-13),
            ).states
        tau = 0.1

        def one_step_loss(xt):
            y = tau * h_tilde(stack, xt, sched, sub, pred) + (1 - tau) * stack
            r = y[-1] - target
            return float(r @ r)

        _, grad = phantom_grad(Chain(sched, sub, pred), stack, x_T, target, tau=tau)
        fd = central_difference_grad(one_step_loss, x_T)
        assert rel_err(grad, fd) < 1e-4

    def test_matches_finite_differences_with_noise(self):
        sched, sub, pred, x_T, noise, stack, target = solved_case(4, 3, 2, eta=0.9)

        def one_step_loss(xt):
            y = 0.1 * h_tilde(stack, xt, sched, sub, pred, noise) + 0.9 * stack
            r = y[-1] - target
            return float(r @ r)

        _, grad = phantom_grad(Chain(sched, sub, pred, noise), stack, x_T, target, tau=0.1)
        fd = central_difference_grad(one_step_loss, x_T)
        assert rel_err(grad, fd) < 1e-4

    def test_loss_value_is_damped_step_loss(self):
        sched, sub, pred, x_T, _, stack, target = solved_case(5, 2, 3)
        loss, _ = phantom_grad(Chain(sched, sub, pred), stack, x_T, target, tau=0.1)
        y = 0.1 * h_tilde(stack, x_T, sched, sub, pred) + 0.9 * stack
        assert loss == pytest.approx(float((y[-1] - target) @ (y[-1] - target)), rel=1e-12)

    def test_stack_not_mutated(self):
        sched, sub, pred, x_T, _, stack, target = solved_case(5, 2, 4)
        before = stack.copy()
        phantom_grad(Chain(sched, sub, pred), stack, x_T, target)
        np.testing.assert_array_equal(stack, before)

    def test_non_finite_sweep_is_divergence(self):
        class ExplodingPredictor(ZeroPredictor):
            def predict(self, x, t):
                return np.full(np.shape(x), np.inf)

        sched, sub, _, x_T, _, stack, target = solved_case(5, 2, 4)
        with pytest.raises(DivergenceError):
            phantom_grad(Chain(sched, sub, ExplodingPredictor(2)), stack, x_T, target)


class CountingPredictor(NoisePredictor):
    """Forwards to a predictor and records the rows of each call."""

    def __init__(self, inner):
        self.inner, self.dim = inner, inner.dim
        self.predict_rows, self.vjp_rows = [], []

    def predict(self, x, t):
        self.predict_rows.append(np.shape(x)[0] if np.ndim(x) == 2 else 1)
        return self.inner.predict(x, t)

    def vjp_from(self, state, x, t, cotangent):
        self.vjp_rows.append(np.shape(x)[0] if np.ndim(x) == 2 else 1)
        return self.inner.vjp(x, t, cotangent)


class TestAdjointSolve:
    @pytest.mark.parametrize("S", [1, 2, 7, 25])
    @pytest.mark.parametrize("kind", ["zero", "constant", "gaussian", "mlp"])
    def test_is_the_fixed_point_of_one_sweep(self, kind, S):
        # v = seed + (the stack cotangent of one vjp sweep at v), the
        # system the back-substitution solves; -0.0 seed rows check that
        # signed zeros come out as the sweep makes them.
        sched, sub, pred, x_T, _, stack, _ = solved_case(S, 3, 5, T=100)
        pred = {
            "zero": ZeroPredictor(3),
            "constant": ConstantPredictor(np.array([0.3, -0.1, 0.2])),
            "gaussian": GaussianOptimalPredictor(
                np.array([0.4, -0.2, 0.1]), np.array([1.2, 0.7, 0.9]), sched
            ),
            "mlp": pred,
        }[kind]
        seed_stack = np.random.default_rng(S).standard_normal((S, 3))
        seed_stack[0] = seed_stack[-1] = -0.0
        v, deltas = adjoint_solve(stack, x_T, seed_stack, sched, sub, pred)
        assert deltas == []
        pulled, _ = h_tilde_vjp(stack, x_T, sched, sub, pred, v)
        expected = seed_stack + pulled
        if kind == "mlp":
            assert rel_err(v, expected) <= 1e-12
        else:
            assert v.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("S", [1, 2, 7])
    def test_one_vjp_row_per_position(self, S):
        sched, sub, pred, x_T, _, stack, target = solved_case(S, 2, 6)
        counting = CountingPredictor(pred)
        seed_stack = np.zeros_like(stack)
        seed_stack[-1] = np.ones(2)
        adjoint_solve(stack, x_T, seed_stack, sched, sub, counting)
        assert counting.vjp_rows == [1] * (S - 1)
        assert counting.predict_rows == []
        counting.vjp_rows.clear()
        exact_ift_grad(Chain(sched, sub, counting), stack, x_T, target)
        assert counting.vjp_rows == [1] * S
        assert counting.predict_rows == []

    def test_non_finite_vjp_is_divergence(self):
        class BrokenVjp(ZeroPredictor):
            def vjp_from(self, state, x, t, cotangent):
                return np.full(np.shape(x), np.inf)

        sched, sub, _, x_T, _, stack, target = solved_case(5, 2, 6)
        with pytest.raises(DivergenceError, match="adjoint"):
            exact_ift_grad(Chain(sched, sub, BrokenVjp(2)), stack, x_T, target)
        seed_stack = np.zeros_like(stack)
        seed_stack[-1] = 1.0
        with pytest.raises(DivergenceError, match="adjoint"):
            adjoint_solve(stack, x_T, seed_stack, sched, sub, BrokenVjp(2))


class TestExactIftGrad:
    def test_zero_predictor_closed_form(self):
        sched = make_linear_beta_schedule(40, 1e-3, 0.05)
        sub = select_subsequence(40, 5, "linear")
        pred = ZeroPredictor(2)
        x_T = np.array([0.8, -1.1])
        stack = sequential_rollout(x_T, sched, sub, pred)
        target = np.array([-0.3, 0.6])
        _, grad = exact_ift_grad(Chain(sched, sub, pred), stack, x_T, target)
        sqrt_aT = np.sqrt(sched.alpha_bar(40))
        expected = 2.0 * (stack[-1] - target) / sqrt_aT
        np.testing.assert_allclose(grad, expected, rtol=1e-12)

    @pytest.mark.parametrize("predictor_kind", ["gaussian", "mlp"])
    def test_matches_finite_differences_of_rollout(self, predictor_kind):
        # Valid oracle because the fixed point equals the rollout: the IFT
        # gradient and the rollout loss gradient are the same function.
        sched, sub, pred, x_T, _, stack, target = solved_case(5, 2, 7)
        if predictor_kind == "gaussian":
            pred = GaussianOptimalPredictor(
                np.array([-0.5, 0.3]), np.array([0.9, 1.4]), sched
            )
            stack = solve_stack(
                Chain(sched, sub, pred), x_T,
                cfg=SolverConfig(method="picard", max_iters=7, tol=1e-13),
            ).states

        def rollout_loss(xt):
            r = sequential_rollout(xt, sched, sub, pred)[-1] - target
            return float(r @ r)

        _, grad = exact_ift_grad(Chain(sched, sub, pred), stack, x_T, target)
        fd = central_difference_grad(rollout_loss, x_T)
        assert rel_err(grad, fd) < 1e-3

    @pytest.mark.parametrize("S,D", [(1, 1), (5, 2), (25, 4)])
    def test_equals_rollout_backprop(self, S, D):
        sched, sub, pred, x_T, _, stack, target = solved_case(S, D, 8, T=100)
        loss_i, grad_i = exact_ift_grad(Chain(sched, sub, pred), stack, x_T, target)
        loss_r, grad_r = rollout_backprop_grad(x_T, target, sched, sub, pred)
        assert loss_i == pytest.approx(loss_r, rel=1e-9)
        assert rel_err(grad_i, grad_r) < 1e-12

    def test_zero_at_optimum(self):
        sched, sub, pred, x_T, _, stack, _ = solved_case(5, 2, 9)
        loss, grad = exact_ift_grad(Chain(sched, sub, pred), stack, x_T, stack[-1].copy())
        assert loss <= 1e-20
        assert np.linalg.norm(grad) <= 1e-12

    def test_differs_from_phantom_in_general(self):
        sched, sub, pred, x_T, _, stack, target = solved_case(5, 2, 10)
        _, g_exact = exact_ift_grad(Chain(sched, sub, pred), stack, x_T, target)
        _, g_phantom = phantom_grad(Chain(sched, sub, pred), stack, x_T, target, tau=1.0)
        assert np.linalg.norm(g_exact - g_phantom) > 1e-6

    def test_stack_not_mutated(self):
        sched, sub, pred, x_T, _, stack, target = solved_case(5, 2, 11)
        before = stack.copy()
        exact_ift_grad(Chain(sched, sub, pred), stack, x_T, target)
        np.testing.assert_array_equal(stack, before)


class TestRolloutBackpropGrad:
    def test_zero_predictor_closed_form(self):
        sched = make_linear_beta_schedule(30, 1e-3, 0.04)
        sub = select_subsequence(30, 3, "linear")
        x_T = np.array([1.2, -0.5])
        target = np.zeros(2)
        loss, grad = rollout_backprop_grad(x_T, target, sched, sub, ZeroPredictor(2))
        x0 = x_T / np.sqrt(sched.alpha_bar(30))
        np.testing.assert_allclose(grad, 2.0 * x0 / np.sqrt(sched.alpha_bar(30)), rtol=1e-12)
        assert loss == pytest.approx(float(x0 @ x0), rel=1e-12)

    def test_matches_finite_differences(self):
        sched, sub, pred, x_T, _, _, target = solved_case(6, 3, 12)

        def rollout_loss(xt):
            r = sequential_rollout(xt, sched, sub, pred)[-1] - target
            return float(r @ r)

        _, grad = rollout_backprop_grad(x_T, target, sched, sub, pred)
        fd = central_difference_grad(rollout_loss, x_T)
        assert rel_err(grad, fd) < 1e-4

    def test_matches_finite_differences_with_noise(self):
        sched, sub, pred, x_T, noise, _, target = solved_case(4, 2, 13, eta=1.0)

        def rollout_loss(xt):
            r = sequential_rollout(xt, sched, sub, pred, noise)[-1] - target
            return float(r @ r)

        _, grad = rollout_backprop_grad(x_T, target, sched, sub, pred, noise)
        fd = central_difference_grad(rollout_loss, x_T)
        assert rel_err(grad, fd) < 1e-4

    def test_single_step_equals_exact_ift(self):
        sched, sub, pred, x_T, _, stack, target = solved_case(1, 2, 14)
        _, grad_r = rollout_backprop_grad(x_T, target, sched, sub, pred)
        _, grad_i = exact_ift_grad(Chain(sched, sub, pred), stack, x_T, target)
        np.testing.assert_allclose(grad_r, grad_i, rtol=1e-10)


def _rollout_and_exact(chain, x_T, target):
    """Naive backprop, and the exact implicit gradient on the rollout's stack."""
    naive = rollout_backprop_grad(
        x_T, target, chain.schedule, chain.subsequence, chain.predictor, chain.noise)
    return naive, exact_ift_grad(chain, _rollout(chain, x_T), x_T, target)


_SUBSEQUENCES = [(S, kind) for kind in ("linear", "quadratic") for S in (1, 2, 10, 100)]


class TestRolloutBackpropIsTheBackSubstitution:
    """Naive backprop is the exact implicit gradient on the rollout's stack,
    so the two agree bit for bit for every predictor."""

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    @pytest.mark.parametrize("S, kind", [*_SUBSEQUENCES, (None, "full")],
                             ids=[f"{k}-{S}" for S, k in _SUBSEQUENCES] + ["full-1000"])
    @pytest.mark.parametrize("name", ["zero", "constant", "gaussian"])
    def test_elementwise_predictors_agree_bit_for_bit(self, name, S, kind, eta):
        sched = make_linear_beta_schedule(1000, eta=eta)
        sub = identity_subsequence(1000) if S is None else select_subsequence(1000, S, kind)
        rng = np.random.default_rng(31)
        pred = {
            "zero": ZeroPredictor(3),
            "constant": ConstantPredictor(rng.standard_normal(3)),
            "gaussian": GaussianOptimalPredictor(
                rng.standard_normal(3), rng.uniform(0.3, 2.0, 3), sched),
        }[name]
        noise = rng.standard_normal((sub.S, 3)) if eta > 0 else None
        (loss_n, grad_n), (loss_e, grad_e) = _rollout_and_exact(
            Chain(sched, sub, pred, noise), rng.standard_normal(3), rng.standard_normal(3))
        assert np.float64(loss_n).tobytes() == np.float64(loss_e).tobytes()
        assert grad_n.tobytes() == grad_e.tobytes()

    def test_signed_zeros_agree(self):
        sched = make_linear_beta_schedule(50)
        chain = Chain(sched, select_subsequence(50, 4, "linear"), ZeroPredictor(3))
        x_T, target = np.array([-0.0, 1.0, 0.0]), np.array([0.0, 0.5, 0.0])
        # x_0 carries the -0.0 of x_T, so the loss seed does too.
        assert np.signbit(_rollout(chain, x_T)[-1][0])
        (_, grad_n), (_, grad_e) = _rollout_and_exact(chain, x_T, target)
        assert grad_n.tobytes() == grad_e.tobytes()

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    @pytest.mark.parametrize("S, kind", [(1, "linear"), (10, "linear"), (100, "quadratic"),
                                         (None, "full")])
    def test_mlp_agrees_bit_for_bit(self, S, kind, eta):
        sched = make_linear_beta_schedule(1000, eta=eta)
        sub = identity_subsequence(1000) if S is None else select_subsequence(1000, S, kind)
        rng = np.random.default_rng(32)
        pred = random_mlp(4, [16, 16], rng, t_max=1000)
        noise = rng.standard_normal((sub.S, 4)) if eta > 0 else None
        (loss_n, grad_n), (loss_e, grad_e) = _rollout_and_exact(
            Chain(sched, sub, pred, noise), rng.standard_normal(4), rng.standard_normal(4))
        assert np.float64(loss_n).tobytes() == np.float64(loss_e).tobytes()
        assert grad_n.tobytes() == grad_e.tobytes()

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    @pytest.mark.parametrize("S", [1, 2, 10])
    @pytest.mark.parametrize("name", ["zero", "gaussian", "mlp"])
    def test_naive_is_exact_on_the_sequential_stack(self, name, S, eta):
        # The public calls: rollout_backprop_grad against exact_ift_grad on
        # sequential_rollout's stack, five draws of x_T, target and pinned
        # noise per case, loss and gradient compared byte for byte.
        sched = make_linear_beta_schedule(1000, eta=eta)
        sub = select_subsequence(1000, S, "linear")
        rng = np.random.default_rng(33)
        pred = {
            "zero": lambda: ZeroPredictor(4),
            "gaussian": lambda: GaussianOptimalPredictor(
                rng.standard_normal(4), rng.uniform(0.3, 2.0, 4), sched),
            "mlp": lambda: random_mlp(4, [16, 16], rng, t_max=1000),
        }[name]()
        for _ in range(5):
            noise = rng.standard_normal((S, 4)) if eta > 0 else None
            x_T, target = rng.standard_normal(4), rng.standard_normal(4)
            loss, grad = rollout_backprop_grad(x_T, target, sched, sub, pred, noise)
            stack = sequential_rollout(x_T, sched, sub, pred, noise)
            want_loss, want_grad = exact_ift_grad(
                Chain(sched, sub, pred, noise), stack, x_T, target)
            assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
            assert grad.tobytes() == want_grad.tobytes()


class _Counting:
    """Records the rows of every predict and backward (``vjp_from``) call:
    0 for one state, N for an (N, D) batch."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = {"predict": [], "vjp": []}

    def predict(self, x, t):
        self.calls["predict"].append(0 if np.ndim(x) == 1 else len(x))
        return super().predict(x, t)

    def vjp_from(self, state, x, t, cotangent):
        self.calls["vjp"].append(0 if np.ndim(x) == 1 else len(x))
        return super().vjp_from(state, x, t, cotangent)


class _CountingGaussian(_Counting, GaussianOptimalPredictor):
    pass


def _forward_passes(monkeypatch, mlp):
    """The rows of every forward pass the MLP runs from now on: 0 for one
    state, N for an (N, D) batch."""
    passes = []
    layers = mlp._layers
    monkeypatch.setattr(mlp, "_layers",
                        lambda x, t: passes.append(0 if np.ndim(x) == 1 else len(x))
                        or layers(x, t))
    return passes


def _call_log(monkeypatch, pred):
    """Every predictor call from now on as (method, rows): 0 rows for one
    state, N for an (N, D) batch.  A ``vjp`` is logged before the
    ``vjp_state`` and ``vjp_from`` calls it makes."""
    log = []
    for name in ("predict", "vjp", "vjp_state", "vjp_from"):
        def logged(*args, name=name, method=getattr(pred, name)):
            x = args[1] if name == "vjp_from" else args[0]
            log.append((name, 0 if np.ndim(x) == 1 else len(x)))
            return method(*args)
        monkeypatch.setattr(pred, name, logged)
    return log


@pytest.mark.parametrize("S", [1, 2, 10])
@pytest.mark.parametrize("kind", ["gaussian", "mlp"])
def test_rollout_backprop_makes_the_rollout_calls_then_the_exact_calls(kind, S, monkeypatch):
    # The cost contract of the naive route, on every call from the first:
    # the rollout's S one-row predict calls, then exact_ift_grad's one
    # (S - 1)-row vjp_state call, its S - 1 one-row vjp_from calls and the
    # one-row vjp at x_T.  The MLP so runs S + 2 forward passes when S > 1.
    sched = make_linear_beta_schedule(100)
    if kind == "gaussian":
        pred = GaussianOptimalPredictor(np.array([0.3, -0.2]), np.array([0.8, 1.5]), sched)
    else:
        pred = random_mlp(2, [8, 8], np.random.default_rng(S), t_max=100)
        passes = _forward_passes(monkeypatch, pred)
    log = _call_log(monkeypatch, pred)
    sub = select_subsequence(100, S, "linear")
    stack_rows = [("vjp_state", S - 1)] if S > 1 else []
    want = ([("predict", 0)] * S + stack_rows + [("vjp_from", 0)] * (S - 1)
            + [("vjp", 0), ("vjp_state", 0), ("vjp_from", 0)])
    for call in range(3):
        log.clear()
        if kind == "mlp":
            passes.clear()
        rollout_backprop_grad(np.array([0.4, -1.1]) + call, np.array([0.1, 0.2]), sched, sub,
                              pred)
        assert log == want
        if kind == "mlp":
            assert passes == [0] * S + [rows for _, rows in stack_rows] + [0]


@pytest.mark.parametrize("eta", [0.0, 1.0])
@pytest.mark.parametrize("S", [1, 2, 10])
def test_naive_inversion_is_adam_on_the_rollouts_exact_gradient(S, eta, monkeypatch):
    # A naive inversion against its reference loop: Adam from the seeded
    # draw, stepped each epoch by exact_ift_grad on sequential_rollout's
    # stack, keeping the best iterate.  Each epoch runs the rollout's S
    # one-row forward passes, one (S - 1)-row pass when S > 1 and one at x_T.
    sched = make_linear_beta_schedule(1000, eta=eta)
    sub = select_subsequence(1000, S, "linear")
    rng = np.random.default_rng(60 + S)
    mlp = random_mlp(5, [16, 16], rng, t_max=1000, scale=0.5)
    noise = rng.standard_normal((S, 5)) if eta > 0 else None
    target = rng.standard_normal(5)
    cfg = InversionConfig(epochs=25, lr=0.1, gradient_mode="naive")
    x_T, adam, losses, best = draw_x_T(cfg.seed, 5), Adam(lr=cfg.lr), [], None
    for _ in range(cfg.epochs):
        loss, grad = exact_ift_grad(Chain(sched, sub, mlp, noise),
                                    sequential_rollout(x_T, sched, sub, mlp, noise), x_T, target)
        if best is None or loss < min(losses):
            best = x_T
        losses.append(loss)
        x_T = adam.step(x_T, grad)
    passes = _forward_passes(monkeypatch, mlp)
    run = invert(target, cfg, Chain(sched, sub, mlp, noise))
    assert np.array(run.loss_trace).tobytes() == np.array(losses).tobytes()
    assert run.x_T_hat.tobytes() == best.tobytes()
    assert passes == ([0] * S + [S - 1] * (S > 1) + [0]) * cfg.epochs


@pytest.mark.parametrize("S", [1, 2, 10])
@pytest.mark.parametrize("route, calls", [
    (phantom_grad, lambda S: {"predict": [S], "vjp": [0]}),
    (exact_ift_grad, lambda S: {"predict": [], "vjp": [0] * S}),
], ids=["phantom", "exact"])
def test_fixed_point_routes_make_their_counted_calls(route, calls, S):
    # Phantom: the damped step's one S-row forward call and one one-row
    # vjp at x_T.  Exact: the Gaussian vjp reads no forward state, so S
    # one-row vjp calls and no forward call.
    sched = make_linear_beta_schedule(100)
    pred = _CountingGaussian(np.array([0.3, -0.2]), np.array([0.8, 1.5]), sched)
    chain = Chain(sched, select_subsequence(100, S, "linear"), pred)
    x_T, target = np.array([0.4, -1.1]), np.array([0.1, 0.2])
    stack = _rollout(chain, x_T)
    pred.calls = {"predict": [], "vjp": []}
    route(chain, stack, x_T, target)
    assert pred.calls == calls(S)


@pytest.mark.parametrize("S", [1, 2, 10])
@pytest.mark.parametrize("route, passes", [
    (phantom_grad, lambda S: [S, 0]),
    (exact_ift_grad, lambda S: [S - 1, 0] if S > 1 else [0]),
], ids=["phantom", "exact"])
def test_fixed_point_routes_make_their_mlp_forward_passes(route, passes, S, monkeypatch):
    # Phantom: the damped step's S-row pass and the x_T vjp's one-row pass.
    # Exact: one batched pass over the S - 1 stack rows the back-substitution
    # reads, none when there are none, and the x_T vjp's one-row pass.
    sched = make_linear_beta_schedule(100)
    pred = random_mlp(2, [8, 8], np.random.default_rng(S), t_max=100)
    chain = Chain(sched, select_subsequence(100, S, "linear"), pred)
    x_T, target = np.array([0.4, -1.1]), np.array([0.1, 0.2])
    stack = _rollout(chain, x_T)
    counted = _forward_passes(monkeypatch, pred)
    route(chain, stack, x_T, target)
    assert counted == passes(S)


def _traced_phantom(stack, x_T, target, sched, sub, pred, tau):
    """The phantom gradient as perfbench/tracing.py composes it from the
    public calls: ``h_tilde`` for the damped step, then ``h_tilde_vjp``."""
    S = len(stack)
    y = tau * h_tilde(stack, x_T, sched, sub, pred) + (1.0 - tau) * stack
    loss, seed_row = loss_and_seed(y[S - 1], target)
    v = np.zeros_like(stack)
    v[S - 1] = seed_row
    return loss, tau * h_tilde_vjp(stack, x_T, sched, sub, pred, v)[1]


def _traced_exact(stack, x_T, target, sched, sub, pred):
    """The exact gradient as perfbench/tracing.py composes it from the
    public calls: ``adjoint_solve``, then ``h_tilde_vjp``."""
    S = len(stack)
    loss, seed_row = loss_and_seed(stack[S - 1], target)
    seed_stack = np.zeros_like(stack)
    seed_stack[S - 1] = seed_row
    v, _ = adjoint_solve(stack, x_T, seed_stack, sched, sub, pred)
    return loss, h_tilde_vjp(stack, x_T, sched, sub, pred, v)[1]


@pytest.mark.parametrize("S", [1, 2, 10])
@pytest.mark.parametrize("kind", ["gaussian", "mlp"])
def test_traced_compositions_give_the_gradient_bytes(kind, S):
    # The traced benchmark checks that its compositions reproduce the CLI's
    # x_T_hat bit for bit; a change that breaks that fails here first.  The
    # MLP has the benchmark's widths, at which a batched vjp row rounds
    # differently from a one-row vjp.
    sched = make_linear_beta_schedule(1000)
    sub = select_subsequence(1000, S, "linear")
    rng = np.random.default_rng(40 + S)
    pred = {
        "gaussian": GaussianOptimalPredictor(
            rng.standard_normal(16), rng.uniform(0.3, 2.0, 16), sched),
        "mlp": random_mlp(16, [64, 64], rng, t_max=1000),
    }[kind]
    chain = Chain(sched, sub, pred)
    x_T, target = rng.standard_normal(16), rng.standard_normal(16)
    stack = solve_stack(chain, x_T, SolverConfig(method="picard", max_iters=S + 1)).states
    for got, want in [
        (_traced_phantom(stack, x_T, target, sched, sub, pred, 0.1),
         phantom_grad(chain, stack, x_T, target, tau=0.1)),
        (_traced_exact(stack, x_T, target, sched, sub, pred),
         exact_ift_grad(chain, stack, x_T, target)),
    ]:
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1].tobytes() == want[1].tobytes()


class TestGradcheckReport:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "gradcheck.csv"
        rows = [
            dict(mode="phantom", S=5, D=2, rtol_measured=3.2e-6, **{"pass": True}),
            dict(mode="exact_ift", S=25, D=4, rtol_measured=1.1e-7, **{"pass": True}),
        ]
        write_gradcheck_report(str(path), rows)
        with open(path, newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["mode", "S", "D", "rtol_measured", "pass"]
        assert got[1][0] == "phantom" and got[1][4] == "true"
        assert float(got[2][3]) == 1.1e-7
