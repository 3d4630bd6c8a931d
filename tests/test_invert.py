import dataclasses
import importlib
import inspect
import os
import pkgutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parseq
from parseq import (
    Chain,
    ConfigError,
    DivergenceError,
    GaussianOptimalPredictor,
    InversionConfig,
    MlpPredictor,
    NumericDomainError,
    ShapeError,
    SolverConfig,
    TimestepSubsequence,
    ZeroPredictor,
    draw_noise_stack,
    draw_x_T,
    identity_subsequence,
    invert,
    load_mlp,
    loss_and_seed,
    make_linear_beta_schedule,
    random_mlp,
    run_report,
    save_mlp,
    select_subsequence,
    sequential_rollout,
    solve_stack,
    stream,
)

from gradcheck import ConstantPredictor

PICARD = SolverConfig(method="picard", max_iters=6, tol=1e-12)


def small_chain():
    sched = make_linear_beta_schedule(40, 1e-3, 0.05)
    sub = select_subsequence(40, 4, "linear")
    return sched, sub


class TestFrobeniusLoss:
    """The reconstruction loss every inversion epoch reports."""

    def test_identical(self):
        assert loss_and_seed(np.ones(4), np.ones(4))[0] == 0.0

    def test_worked_value(self):
        assert loss_and_seed(np.array([1.0, 2.0]), np.zeros(2))[0] == 5.0

    def test_matches_elementwise_sum(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(100), rng.standard_normal(100)
        brute = sum((x - y) ** 2 for x, y in zip(a, b))
        assert loss_and_seed(a, b)[0] == pytest.approx(brute, rel=1e-12)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epochs=0),
            dict(lr=0.0),
            dict(gradient_mode="unrolled"),
            dict(tau=0.0),
            dict(tau=1.5),
            dict(stop_loss=-1e-9),
            dict(lr=float("nan")),
            dict(lr=float("inf")),
            dict(stop_loss=float("nan")),
            dict(stop_loss=float("inf")),
            # naive and exact have one name each, the CLI's
            dict(gradient_mode="rollout"),
            dict(gradient_mode="exact_ift"),
            dict(init="ones"),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            InversionConfig(**kwargs)


class TestInvertNaive:
    def test_zero_predictor_recovery(self):
        sched, sub = small_chain()
        x_T_true = stream(77, "x_T").standard_normal(2)
        target = sequential_rollout(x_T_true, sched, sub, ZeroPredictor(2))[-1]
        run = invert(
            target,
            InversionConfig(epochs=200, lr=0.01, seed=2, gradient_mode="naive"),
            Chain(sched, sub, ZeroPredictor(2)),
        )
        assert np.linalg.norm(run.x_T_hat - x_T_true) <= 1e-3

    def test_gaussian_baseline_trends_down(self):
        sched = make_linear_beta_schedule(100, 1e-4, 0.02)
        sub = select_subsequence(100, 10, "linear")
        pred = GaussianOptimalPredictor(np.full(8, 0.25), np.full(8, 1.5), sched)
        x_T_true = stream(21, "x_T").standard_normal(8)
        target = sequential_rollout(x_T_true, sched, sub, pred)[-1]
        run = invert(
            target,
            InversionConfig(epochs=150, lr=0.01, seed=4, gradient_mode="naive"),
            Chain(sched, sub, pred),
        )
        windows = np.array(run.loss_trace).reshape(15, 10).mean(axis=1)
        assert all(a > b for a, b in zip(windows, windows[1:]))
        # regression pin for the deterministic pipeline
        assert run.loss_trace[-1] == pytest.approx(5.800204053587442, rel=1e-9)

    def test_rejects_stochastic_schedule(self):
        sched, sub = small_chain()
        noisy = dataclasses.replace(sched, eta=0.5)
        with pytest.raises(ConfigError, match="eta"):
            invert(np.zeros(2), InversionConfig(gradient_mode="naive"),
                   Chain(noisy, sub, ZeroPredictor(2)))

    def test_trace_bookkeeping(self):
        sched, sub = small_chain()
        run = invert(
            np.array([0.3, 0.1]),
            InversionConfig(epochs=7, lr=0.01, seed=0, gradient_mode="naive"),
            Chain(sched, sub, ZeroPredictor(2)),
        )
        assert run.epochs_run == 7
        assert len(run.loss_trace) == 7
        assert run.best_loss == min(run.loss_trace)

    def test_stop_loss_breaks_before_update(self):
        sched, sub = small_chain()
        x_T_true = stream(5, "x_T").standard_normal(2)
        target = sequential_rollout(x_T_true, sched, sub, ZeroPredictor(2))[-1]
        # Seeded init == truth, so the very first loss is ~0 and the run
        # must stop at epoch 1 with the estimate untouched.
        run = invert(
            target,
            InversionConfig(epochs=50, lr=0.01, seed=5, stop_loss=1e-12, gradient_mode="naive"),
            Chain(sched, sub, ZeroPredictor(2)),
        )
        assert run.epochs_run == 1
        np.testing.assert_array_equal(run.x_T_hat, x_T_true)


class TestInvertDeq:
    def test_zero_predictor_closed_form(self):
        sched, sub = small_chain()
        x0_target = np.array([0.4, -0.9])
        run = invert(
            x0_target,
            InversionConfig(epochs=200, lr=0.01, seed=2, solver=PICARD),
            Chain(sched, sub, ZeroPredictor(2)),
        )
        x_T_star = np.sqrt(sched.alpha_bar(40)) * x0_target
        assert np.linalg.norm(run.x_T_hat - x_T_star) <= 1e-3

    def test_reaches_stop_loss_within_naive_epochs(self):
        sched, sub = small_chain()
        pred = GaussianOptimalPredictor(np.zeros(2), np.ones(2), sched)
        x_T_true = stream(77, "x_T").standard_normal(2)
        target = sequential_rollout(x_T_true, sched, sub, pred)[-1]
        kwargs = dict(epochs=600, lr=0.01, seed=2, stop_loss=1e-4)
        chain = Chain(sched, sub, pred)
        run_naive = invert(target, InversionConfig(gradient_mode="naive", **kwargs), chain)
        run_deq = invert(target, InversionConfig(solver=PICARD, **kwargs), chain)
        assert run_naive.best_loss <= 1e-4
        assert run_deq.best_loss <= 1e-4
        assert run_deq.epochs_run <= run_naive.epochs_run

    def test_rejects_stochastic_schedule(self):
        sched, sub = small_chain()
        noisy = dataclasses.replace(sched, eta=1.0)
        with pytest.raises(ConfigError, match="eta"):
            invert(np.zeros(2), InversionConfig(), Chain(noisy, sub, ZeroPredictor(2)))

    def test_same_seed_reproducible(self):
        sched, sub = small_chain()
        pred = GaussianOptimalPredictor(np.array([0.2, -0.1]), np.ones(2), sched)
        cfg = dict(epochs=30, lr=0.01, seed=9, solver=PICARD)
        a = invert(np.array([0.5, 0.5]), InversionConfig(**cfg), Chain(sched, sub, pred))
        b = invert(np.array([0.5, 0.5]), InversionConfig(**cfg), Chain(sched, sub, pred))
        assert a.loss_trace == b.loss_trace
        np.testing.assert_array_equal(a.x_T_hat, b.x_T_hat)

    def test_solver_iters_recorded(self):
        sched, sub = small_chain()
        run = invert(
            np.array([0.1, 0.1]),
            InversionConfig(epochs=5, lr=0.01, seed=0, solver=PICARD),
            Chain(sched, sub, ZeroPredictor(2)),
        )
        assert len(run.solver_iters) == run.epochs_run == 5
        assert all(i >= 1 for i in run.solver_iters)

    def test_default_picard_budget_converges_every_solve(self):
        # A cold solve of this S = 100 chain needs 18 Picard sweeps and each
        # warm one 20, all more than the old default budget of 15; the
        # default of S + 1 sweeps is exact on the triangular chain.
        sched = make_linear_beta_schedule(1000)
        sub = select_subsequence(1000, 100, "linear")
        rng = np.random.default_rng(4)
        pred = GaussianOptimalPredictor(rng.standard_normal(4), rng.uniform(0.5, 2.0, 4), sched)
        chain = Chain(sched, sub, pred)
        x_T = stream(0, "x_T").standard_normal(4)  # the run's first x_T
        old_budget = SolverConfig(method="picard", max_iters=15)
        assert not solve_stack(chain, x_T, old_budget).converged
        target = np.array([0.3, -0.2, 1.1, 0.4])
        run = invert(target, InversionConfig(epochs=5, lr=0.1, seed=0), chain)
        assert run.epochs_run == 5
        assert run.solver_converged == [True] * 5
        assert all(15 < iters <= 101 for iters in run.solver_iters)
        short = invert(target, InversionConfig(epochs=5, lr=0.1, seed=0, solver=old_budget), chain)
        assert short.epochs_run == 5 and short.solver_converged == [False] * 5

    @pytest.mark.parametrize("mode", ["phantom", "exact"])
    def test_benchmark_shaped_gaussian_inversion_converges_every_solve(self, mode):
        # The default Picard solve gets S + 1 sweeps, at which it is exact.
        # A warm-started Anderson solve with its 15-iteration budget, as the
        # CLI runs it, converges in every epoch too: its ridge shrinks with
        # the residual, so the weights do not stall near the tolerance.
        sched = make_linear_beta_schedule(1000)
        sub = select_subsequence(1000, 10, "linear")
        rng = np.random.default_rng(1)
        pred = GaussianOptimalPredictor(rng.standard_normal(16), rng.uniform(0.3, 2.0, 16), sched)
        chain = Chain(sched, sub, pred)
        target = sequential_rollout(stream(7, "x_T").standard_normal(16), sched, sub, pred)[-1]
        anderson = SolverConfig(method="anderson", max_iters=15)
        cfg = dict(epochs=800, lr=0.1, gradient_mode=mode, stop_loss=1e-3, seed=0)
        run = invert(target, InversionConfig(**cfg), chain)
        assert run.best_loss <= 1e-3
        assert run.solver_converged == [True] * run.epochs_run
        assert max(run.solver_iters) <= 11
        mixed = invert(target, InversionConfig(solver=anderson, **cfg), chain)
        assert mixed.best_loss <= 1e-3
        assert mixed.solver_converged == [True] * mixed.epochs_run
        assert max(mixed.solver_iters) <= 15

    def test_exact_mode_needs_no_more_epochs_than_phantom(self):
        # Affine-diagonal chain: the two gradients differ by a constant
        # per-coordinate positive factor that Adam normalizes away, so the
        # trajectories tie exactly.
        sched = make_linear_beta_schedule(50, 1e-4, 0.04)
        sub = select_subsequence(50, 5, "linear")
        pred = GaussianOptimalPredictor(np.array([0.5, -0.5]), np.array([1.5, 0.8]), sched)
        target = sequential_rollout(stream(123, "x_T").standard_normal(2), sched, sub, pred)[-1]
        solver = SolverConfig(method="picard", max_iters=7, tol=1e-10)
        runs = {}
        for mode in ("exact", "phantom"):
            cfg = InversionConfig(
                epochs=3000, lr=0.001, gradient_mode=mode, tau=0.1,
                stop_loss=1e-4, seed=9, solver=solver,
            )
            runs[mode] = invert(target, cfg, Chain(sched, sub, pred))
        assert runs["exact"].best_loss <= 1e-4
        assert runs["phantom"].best_loss <= 1e-4
        assert runs["exact"].epochs_run <= runs["phantom"].epochs_run

    def test_exact_mode_faster_on_nonlinear_chain_and_phantom_stable(self):
        sched = make_linear_beta_schedule(50, 1e-4, 0.04)
        sub = select_subsequence(50, 5, "linear")
        pred = random_mlp(2, [16], np.random.default_rng(3), t_max=50)
        target = sequential_rollout(stream(123, "x_T").standard_normal(2), sched, sub, pred)[-1]
        solver = SolverConfig(method="picard", max_iters=7, tol=1e-10)

        def run(mode, lr):
            cfg = InversionConfig(
                epochs=2000, lr=lr, gradient_mode=mode, tau=0.1,
                stop_loss=1e-4, seed=9, solver=solver,
            )
            return invert(target, cfg, Chain(sched, sub, pred))

        exact = run("exact", 0.001)
        phantom = run("phantom", 0.001)
        assert exact.best_loss <= 1e-4 and phantom.best_loss <= 1e-4
        assert exact.epochs_run <= phantom.epochs_run
        # the damped gradient stays stable at the 10x learning rate
        fast = run("phantom", 0.01)
        assert fast.best_loss <= 1e-4
        assert fast.epochs_run < phantom.epochs_run


class PoisonedGaussian(GaussianOptimalPredictor):
    """The Gaussian predictor, except that the first batched ``predict``
    made after ``after_vjps`` vjp calls returns inf.  A phantom-gradient
    epoch ends in one vjp, so ``after_vjps=k`` poisons the first sweep of
    epoch k's solve; None poisons nothing."""

    def __init__(self, mu, var, schedule, after_vjps):
        super().__init__(mu, var, schedule)
        self.after_vjps, self.vjps, self.poisoned = after_vjps, 0, False

    def predict(self, x, t):
        if np.ndim(x) == 2 and self.vjps == self.after_vjps and not self.poisoned:
            self.poisoned = True
            return np.full(np.shape(x), np.inf)
        return super().predict(x, t)

    def vjp_from(self, state, x, t, cotangent):
        self.vjps += 1
        return super().vjp_from(state, x, t, cotangent)


class TestInvertErrorPaths:
    MU, VAR, TARGET = np.array([0.3, -0.2]), np.array([0.7, 1.4]), np.array([0.5, -0.4])

    def _run(self, after_vjps):
        # Exact Picard: S + 1 sweeps at tol 0 reach the fixed point from any init.
        sched, sub = small_chain()
        pred = PoisonedGaussian(self.MU, self.VAR, sched, after_vjps)
        cfg = InversionConfig(epochs=5, lr=0.05, seed=2,
                              solver=SolverConfig("picard", sub.S + 1, 0.0))
        return invert(self.TARGET, cfg, Chain(sched, sub, pred)), pred

    def test_diverged_warm_start_retries_from_the_stock_init(self):
        clean, _ = self._run(None)
        run, pred = self._run(1)
        assert pred.poisoned
        assert run.epochs_run == clean.epochs_run == 5
        assert run.x_T_hat.tobytes() == clean.x_T_hat.tobytes()
        assert run.loss_trace == clean.loss_trace

    def test_divergence_at_epoch_zero_is_raised(self):
        with pytest.raises(DivergenceError, match=r"^stack solve diverged at inversion epoch 0$"):
            self._run(0)

    @pytest.mark.parametrize("mode", ["naive", "phantom", "exact"])
    def test_overflowing_loss_ends_the_run(self, mode):
        # Recording the first epoch's inf loss would leave best_loss at inf
        # and x_T_hat at the unmoved initial draw.
        sched, sub = small_chain()
        chain = Chain(sched, sub, GaussianOptimalPredictor(np.zeros(2), np.ones(2), sched))
        cfg = InversionConfig(epochs=5, gradient_mode=mode)
        with pytest.raises(NumericDomainError, match="loss"):
            invert(np.array([1e200, -1e200]), cfg, chain)

    def test_target_must_be_one_state(self):
        sched, sub = small_chain()
        chain = Chain(sched, sub, ZeroPredictor(2))
        with pytest.raises(ConfigError, match="single state vector"):
            invert(np.zeros((1, 2)), InversionConfig(epochs=1), chain)

    @pytest.mark.parametrize("mode", ["naive", "phantom", "exact"])
    def test_target_must_have_the_predictors_dimension(self, mode):
        sched, sub = small_chain()
        chain = Chain(sched, sub, ZeroPredictor(2))
        cfg = InversionConfig(epochs=1, gradient_mode=mode)
        with pytest.raises(ShapeError,
                           match=r"^target dimension 3 != predictor dimension 2$"):
            invert(np.zeros(3), cfg, chain)


class TestInvertDeqStochastic:
    def test_eta_zero_bit_identical_to_deterministic(self):
        sched, sub = small_chain()
        pred = GaussianOptimalPredictor(np.array([0.3, 0.0]), np.ones(2), sched)
        cfg = InversionConfig(epochs=25, lr=0.01, seed=13, solver=PICARD)
        det = invert(np.array([0.4, -0.4]), cfg, Chain(sched, sub, pred))
        pinned = Chain(sched, sub, pred, draw_noise_stack(13, sub.S, 2))
        sto = invert(np.array([0.4, -0.4]), cfg, pinned)
        assert det.loss_trace == sto.loss_trace
        np.testing.assert_array_equal(det.x_T_hat, sto.x_T_hat)

    def test_recovers_truth_with_known_noise(self):
        # Target generated with the exact noise stack the run will draw for
        # this seed, so the noisy chain is self-consistent and invertible.
        sched, sub = small_chain()
        pred = GaussianOptimalPredictor(np.zeros(2), np.ones(2), sched)
        seed = 11
        x_T_true = stream(77, "x_T").standard_normal(2)
        known_noise = stream(seed, "noise_stack").standard_normal((sub.S, 2))
        noisy_sched = dataclasses.replace(sched, eta=1.0)
        target = sequential_rollout(x_T_true, noisy_sched, sub, pred, known_noise)[-1]
        run = invert(
            target,
            InversionConfig(epochs=800, lr=0.01, seed=seed, stop_loss=1e-6, solver=PICARD),
            Chain(noisy_sched, sub, pred, known_noise),
        )
        assert run.best_loss <= 1e-6
        assert np.linalg.norm(run.x_T_hat - x_T_true) <= 5e-3

    def test_fresh_noise_floors_above_deterministic(self):
        # A fresh noise stack cannot explain a deterministic target, so the
        # best achievable loss sits strictly above the eta=0 run's.
        sched, sub = small_chain()
        pred = GaussianOptimalPredictor(np.zeros(2), np.ones(2), sched)
        x_T_true = stream(77, "x_T").standard_normal(2)
        target = sequential_rollout(x_T_true, sched, sub, pred)[-1]
        cfg = InversionConfig(epochs=400, lr=0.01, seed=5, solver=PICARD)
        fresh = draw_noise_stack(5, sub.S, 2)
        quiet = invert(target, cfg, Chain(sched, sub, pred, fresh))
        noisy = invert(target, cfg, Chain(dataclasses.replace(sched, eta=1.0), sub, pred, fresh))
        assert noisy.best_loss > quiet.best_loss
        assert noisy.best_loss > 1e-3


class TestRunReport:
    def test_schema(self):
        sched, sub = small_chain()
        run = invert(
            np.array([0.2, 0.2]),
            InversionConfig(epochs=3, lr=0.01, seed=0, gradient_mode="naive"),
            Chain(sched, sub, ZeroPredictor(2)),
        )
        report = run_report(run, {"method": "naive"}, "x_T_hat.stack")
        assert set(report) == {
            "config", "loss_trace", "best_loss", "epochs_run", "solver_iters",
            "solver_converged", "x_T_hat_file",
        }
        assert report["epochs_run"] == 3
        assert report["solver_iters"] == []
        assert report["solver_converged"] == []
        assert len(report["loss_trace"]) == 3
        assert all(isinstance(v, float) for v in report["loss_trace"])
        assert report["x_T_hat_file"] == "x_T_hat.stack"

    @pytest.mark.parametrize("max_iters, converged", [(2, False), (40, True)])
    def test_records_whether_each_solve_converged(self, max_iters, converged):
        # A budget too small for the tolerance still yields a gradient and
        # the run goes on, warm-starting from the unconverged stack; the
        # report says which epochs stopped short.
        sched, sub = small_chain()
        pred = GaussianOptimalPredictor(np.array([0.5, -0.5]), np.array([1.5, 0.8]), sched)
        solver = SolverConfig(max_iters=max_iters, tol=1e-9)
        run = invert(
            np.array([0.2, -0.1]),
            InversionConfig(epochs=4, lr=0.01, seed=0, solver=solver),
            Chain(sched, sub, pred),
        )
        report = run_report(run, {"method": "deq"}, "x_T_hat.stack")
        assert report["solver_converged"] == [converged] * 4
        assert all(type(c) is bool for c in report["solver_converged"])
        assert (max(report["solver_iters"]) == max_iters) is not converged

    @pytest.mark.parametrize("mode", ["naive", "phantom", "exact"])
    def test_x_T_hat_rolls_out_to_the_best_loss(self, mode):
        # The loss trace turns up after epoch 2, so the best x_T is not the
        # last one measured, and Adam's step after the last epoch is never
        # measured at all.  Naive measures the rollout itself; the DEQ
        # routes read a stack solved to the default tolerance.
        sched = make_linear_beta_schedule(100)
        sub = select_subsequence(100, 10, "linear")
        pred = GaussianOptimalPredictor(np.array([0.3, -0.6]), np.array([0.8, 1.5]), sched)
        target = np.array([0.4, -0.2])
        cfg = InversionConfig(epochs=5, lr=0.1, gradient_mode=mode, seed=0)
        run = invert(target, cfg, Chain(sched, sub, pred))
        assert run.epochs_run == 5
        assert run.best_loss == min(run.loss_trace) < run.loss_trace[-1]
        x0 = sequential_rollout(run.x_T_hat, sched, sub, pred)[-1]
        loss = loss_and_seed(x0, target)[0]
        if mode == "naive":
            assert np.float64(loss).tobytes() == np.float64(run.best_loss).tobytes()
        else:
            assert loss == pytest.approx(run.best_loss, rel=SolverConfig().tol)

    def test_retained_state_is_constant_size(self):
        # The run object keeps one estimate and scalar traces only; no
        # per-epoch stacks or graphs accumulate.
        sched, sub = small_chain()
        chain = Chain(sched, sub, ZeroPredictor(2))
        short = invert(
            np.array([0.1, 0.3]), InversionConfig(epochs=2, lr=0.01, seed=0, solver=PICARD), chain
        )
        long = invert(
            np.array([0.1, 0.3]), InversionConfig(epochs=60, lr=0.01, seed=0, solver=PICARD), chain
        )
        assert long.x_T_hat.nbytes == short.x_T_hat.nbytes
        assert {k for k in vars(long)} == {
            "x_T_hat", "loss_trace", "best_loss", "epochs_run", "solver_iters",
            "solver_converged",
        }


def test_no_package_attribute_shadows_a_submodule():
    # ``import parseq.<name> as m`` must bind the module, never a function
    # of the same name re-exported by the package.  Importing ``__main__``
    # would run the CLI, so it is left out.
    for info in pkgutil.iter_modules(parseq.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"parseq.{info.name}")
        assert inspect.ismodule(module), info.name
        assert getattr(parseq, info.name, module) is module, info.name


#: Every public name of ``parseq``, by the reason it is public: a caller
#: outside ``tests/``, or a type or error the API returns or raises.
PUBLIC_NAMES = {
    # called by the CLI
    "Chain", "GaussianOptimalPredictor", "InversionConfig", "SolverConfig", "ZeroPredictor",
    "default_solver_config", "draw_noise_stack", "draw_x_T", "gaussian_w2",
    "identity_subsequence", "invert", "load_gaussian_params", "load_mlp",
    "make_linear_beta_schedule", "read_stack", "run_report", "sample_moments",
    "select_subsequence", "solve_stack", "write_residual_csv", "write_stack", "write_trace_csv",
    # called by README's Library block
    "exact_ift_grad", "phantom_grad", "rollout_backprop_grad", "sequential_rollout",
    # called by perfbench/tracing.py
    "Adam", "adjoint_solve", "chain_coefficients", "h_tilde", "h_tilde_vjp", "init_stack",
    "loss_and_seed", "solve",
    # types the API returns, and the errors it raises
    "DiffusionSchedule", "FixedPointResult", "InversionRun", "MlpPredictor", "NoisePredictor",
    "TimestepSubsequence", "ConfigError", "DivergenceError", "InsufficientDataError",
    "NumericDomainError", "ParseError", "SchemaError", "ShapeError",
    # the tests' reference stepper, the writers of the files the CLI reads,
    # and the seeded streams every draw comes from
    "ddim_step", "random_mlp", "save_gaussian", "save_mlp", "stream",
}


def test_package_exports_exactly_the_public_names():
    # A name only tests call cannot come back without this set changing.
    exported = {name for name, value in vars(parseq).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == PUBLIC_NAMES


#: Every library entry point that takes a count, a size or a seed, each fed
#: one value in 1..12 where the rest of its arguments stay valid.
def _load_mlp_with_t_max(t_max):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mlp.json")
        save_mlp(path, random_mlp(2, [3], np.random.default_rng(0)))
        return load_mlp(path, t_max=t_max)


INTEGER_ENTRY_POINTS = {
    "stream seed": lambda n: stream(n, "x_T"),
    "draw_x_T seed": lambda n: draw_x_T(n, 2),
    "draw_x_T dim": lambda n: draw_x_T(0, n),
    "draw_noise_stack S": lambda n: draw_noise_stack(0, n, 2),
    "draw_noise_stack dim": lambda n: draw_noise_stack(0, 2, n),
    "ZeroPredictor dim": lambda n: ZeroPredictor(n),
    "MlpPredictor t_max": lambda n: MlpPredictor([np.zeros((2, 3))], [np.zeros(2)], n),
    "random_mlp t_max": lambda n: random_mlp(2, [3], np.random.default_rng(0), t_max=n),
    "load_mlp t_max": _load_mlp_with_t_max,
    "InversionConfig.epochs": lambda n: InversionConfig(epochs=n),
    "InversionConfig.seed": lambda n: InversionConfig(seed=n),
    "SolverConfig.max_iters": lambda n: SolverConfig("picard", n),
    "make_linear_beta_schedule T": lambda n: make_linear_beta_schedule(n),
    "select_subsequence T": lambda n: select_subsequence(n, 1),
    "select_subsequence S": lambda n: select_subsequence(12, n),
    "identity_subsequence T": lambda n: identity_subsequence(n),
    "TimestepSubsequence.indices": lambda n: TimestepSubsequence((n,)),
}


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 12))
def test_counts_and_seeds_must_be_integers(n):
    # Python's and numpy's integers are accepted.  A bool is refused although
    # Python counts it as an int, and a float is refused however integral:
    # neither is converted, so neither can truncate or crash mid-run.
    for site, call in INTEGER_ENTRY_POINTS.items():
        for value in (n, np.int64(n)):
            call(value)
        for value in (True, np.True_, float(n), np.float64(n), n + 0.5):
            with pytest.raises(ConfigError):
                call(value)
                pytest.fail(f"{site} accepted {value!r}")


@pytest.mark.parametrize("site, value, bound", [
    ("ZeroPredictor dim", -1, 1),
    ("ZeroPredictor dim", 0, 1),
    ("draw_x_T dim", -1, 0),
    ("draw_noise_stack S", -1, 0),
    ("draw_noise_stack dim", -1, 0),
    ("random_mlp t_max", 0, 1),
    ("random_mlp t_max", -5, 1),
    ("load_mlp t_max", 0, 1),
    ("load_mlp t_max", -5, 1),
], ids=lambda v: str(v).replace(" ", "-"))
def test_sizes_below_their_bound_are_config_errors(site, value, bound):
    # An integer below its bound is refused by name, not left to numpy's
    # bare ValueError, a ZeroDivisionError or a time input of flipped sign.
    name = site.split()[-1]
    with pytest.raises(ConfigError, match=rf"^{name} must be >= {bound}, got {value}$"):
        INTEGER_ENTRY_POINTS[site](value)


def test_empty_draws_are_allowed():
    assert draw_x_T(0, 0).shape == (0,)
    assert draw_noise_stack(0, 0, 2).shape == (0, 2)
    assert draw_noise_stack(0, 2, 0).shape == (2, 0)


@settings(max_examples=100, deadline=None)
@given(
    S=st.integers(1, 12),
    eta=st.sampled_from([0.0, 0.5, 1.0]),
    kind=st.sampled_from(["zero", "constant", "gaussian"]),
    seed=st.integers(0, 2**16),
)
def test_naive_and_exact_inversion_are_one_computation_on_elementwise_chains(S, eta, kind, seed):
    # On a chain whose predictor acts row by row, the Picard solve with S + 1
    # sweeps is the rollout bit for bit and a batched forward pass gives the
    # one-row vjp states, so exact inversion is naive inversion.  (An MLP's
    # batched and one-row products round differently, so it is left out.)
    D = 3
    rng = np.random.default_rng(seed)
    sched = make_linear_beta_schedule(40, 1e-3, 0.05, eta=eta)
    pred = {
        "zero": lambda: ZeroPredictor(D),
        "constant": lambda: ConstantPredictor(rng.standard_normal(D)),
        "gaussian": lambda: GaussianOptimalPredictor(
            rng.standard_normal(D), rng.uniform(0.5, 2.0, D), sched),
    }[kind]()
    chain = Chain(sched, select_subsequence(40, S), pred, draw_noise_stack(seed, S, D))
    target = rng.standard_normal(D)
    runs = {
        mode: invert(target, InversionConfig(
            epochs=5, lr=0.1, gradient_mode=mode, seed=seed,
            solver=SolverConfig("picard", S + 1, 0.0)), chain)
        for mode in ("naive", "exact")
    }
    assert runs["naive"].x_T_hat.tobytes() == runs["exact"].x_T_hat.tobytes()
    assert runs["naive"].loss_trace == runs["exact"].loss_trace
    assert runs["exact"].solver_converged == [True] * runs["exact"].epochs_run
