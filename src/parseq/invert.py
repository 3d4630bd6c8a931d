"""Recovering the terminal state that generates a given observation.

Two training loops share the Adam outer iteration:

* ``invert_naive`` differentiates the sequential sampler end to end every
  epoch (deterministic chains only).
* ``invert_deq`` solves the joint system for the stack once per epoch and
  takes a cheap phantom or exact implicit gradient at the fixed point;
  ``invert_deq_stochastic`` is the same loop with a per-transition noise
  stack drawn once up front and held fixed, so the map stays deterministic
  within the run.

Peak retained state is one stack plus optimizer moments, independent of
the epoch count.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .chain import init_stack
from .errors import ConfigError, DivergenceError
from .gradients import Adam, exact_ift_grad, loss_and_seed, phantom_grad, rollout_backprop_grad
from .predictors import NoisePredictor
from .sampling import solve_stack
from .schedule import DiffusionSchedule, TimestepSubsequence
from .solvers import SolverConfig, default_solver_config


def frobenius_loss(a: np.ndarray, b: np.ndarray) -> float:
    """Reconstruction distance: squared l2."""
    loss, _ = loss_and_seed(np.asarray(a), np.asarray(b))
    return loss


@dataclass
class InversionConfig:
    epochs: int = 400
    lr: float = 0.01
    gradient_mode: str = "phantom"
    tau: float = 0.1
    solver: SolverConfig | None = None
    stop_loss: float = 0.0
    seed: int = 0
    warm_start: bool = True
    init: str = "x_T"

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr <= 0.0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.gradient_mode not in ("phantom", "exact_ift"):
            raise ConfigError(f"unknown gradient mode '{self.gradient_mode}'")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must lie in (0, 1], got {self.tau}")
        if self.stop_loss < 0.0:
            raise ConfigError(f"stop_loss must be >= 0, got {self.stop_loss}")


@dataclass
class InversionRun:
    x_T_hat: np.ndarray
    loss_trace: list[float] = field(default_factory=list)
    best_loss: float = float("inf")
    epochs_run: int = 0
    solver_iters: list[int] = field(default_factory=list)
    #: Whether each epoch's stack solve reached its tolerance; a solve that
    #: stops at its budget still yields a gradient and the run goes on.
    solver_converged: list[bool] = field(default_factory=list)


def run_report(run: InversionRun, config: dict, x_T_hat_file: str) -> dict:
    """JSON-ready run artifact."""
    return {
        "config": config,
        "loss_trace": [float(v) for v in run.loss_trace],
        "best_loss": float(run.best_loss),
        "epochs_run": run.epochs_run,
        "solver_iters": list(run.solver_iters),
        "solver_converged": list(run.solver_converged),
        "x_T_hat_file": x_T_hat_file,
    }


def _check_target(target: np.ndarray) -> np.ndarray:
    target = np.asarray(target, dtype=np.float64)
    if target.ndim != 1:
        raise ConfigError(f"target must be a single state vector, got {target.shape}")
    return target


def invert_naive(
    x0_target: np.ndarray,
    cfg: InversionConfig,
    schedule: DiffusionSchedule,
    subsequence: TimestepSubsequence | None,
    predictor: NoisePredictor,
) -> InversionRun:
    """Gradient descent through the full sequential rollout each epoch."""
    if schedule.eta != 0.0:
        raise ConfigError(
            f"naive inversion requires a deterministic chain (eta=0), got eta={schedule.eta}"
        )
    target = _check_target(x0_target)
    x_T = rng.stream(cfg.seed, "x_T").standard_normal(target.size)
    adam = Adam(lr=cfg.lr)
    run = InversionRun(x_T_hat=x_T)
    for _ in range(cfg.epochs):
        loss, grad = rollout_backprop_grad(x_T, target, schedule, subsequence, predictor)
        run.loss_trace.append(loss)
        run.best_loss = min(run.best_loss, loss)
        run.epochs_run += 1
        if loss <= cfg.stop_loss:
            break
        x_T = adam.step(x_T, grad)
        run.x_T_hat = x_T
    return run


def _invert_deq_core(
    target: np.ndarray,
    noise: np.ndarray | None,
    cfg: InversionConfig,
    schedule: DiffusionSchedule,
    subsequence: TimestepSubsequence | None,
    predictor: NoisePredictor,
) -> InversionRun:
    S = subsequence.S if subsequence is not None else schedule.T
    solver_cfg = cfg.solver if cfg.solver is not None else default_solver_config(schedule.eta)
    x_T = rng.stream(cfg.seed, "x_T").standard_normal(target.size)
    adam = Adam(lr=cfg.lr)
    run = InversionRun(x_T_hat=x_T)
    warm: np.ndarray | None = None
    for epoch in range(cfg.epochs):
        init = warm if (cfg.warm_start and warm is not None) else init_stack(x_T, S, cfg.init)
        try:
            result = solve_stack(
                x_T, schedule, subsequence, predictor, noise, solver_cfg, init
            )
        except DivergenceError:
            if cfg.warm_start and warm is not None:
                # A stale warm start can blow up after a large parameter
                # move; retry once from the stock initialization.
                warm = None
                result = solve_stack(
                    x_T,
                    schedule,
                    subsequence,
                    predictor,
                    noise,
                    solver_cfg,
                    init_stack(x_T, S, cfg.init),
                )
            else:
                raise DivergenceError(
                    f"stack solve diverged at inversion epoch {epoch}"
                ) from None
        stack_star = result.states
        if cfg.warm_start:
            warm = stack_star
        if cfg.gradient_mode == "phantom":
            loss, grad = phantom_grad(stack_star, x_T, target, schedule, subsequence,
                                      predictor, noise, tau=cfg.tau)
        else:
            loss, grad = exact_ift_grad(stack_star, x_T, target, schedule, subsequence,
                                        predictor)
        run.loss_trace.append(loss)
        run.best_loss = min(run.best_loss, loss)
        run.solver_iters.append(result.iters)
        run.solver_converged.append(result.converged)
        run.epochs_run += 1
        if loss <= cfg.stop_loss:
            break
        x_T = adam.step(x_T, grad)
        run.x_T_hat = x_T
    return run


def invert_deq(
    x0_target: np.ndarray,
    cfg: InversionConfig,
    schedule: DiffusionSchedule,
    subsequence: TimestepSubsequence | None,
    predictor: NoisePredictor,
) -> InversionRun:
    """Fixed-point inversion of the deterministic chain."""
    if schedule.eta != 0.0:
        raise ConfigError(
            f"invert_deq expects eta=0; use invert_deq_stochastic for eta={schedule.eta}"
        )
    target = _check_target(x0_target)
    return _invert_deq_core(target, None, cfg, schedule, subsequence, predictor)


def invert_deq_stochastic(
    x0_target: np.ndarray,
    eta: float,
    cfg: InversionConfig,
    schedule: DiffusionSchedule,
    subsequence: TimestepSubsequence | None,
    predictor: NoisePredictor,
) -> InversionRun:
    """Inversion of a noisy chain: the noise stack is drawn once from its
    own stream and pinned, making the joint map deterministic again.

    At eta = 0 every sigma vanishes, the pinned draws multiply into zeros,
    and the run reproduces invert_deq bit for bit.
    """
    target = _check_target(x0_target)
    schedule = dataclasses.replace(schedule, eta=float(eta))
    S = subsequence.S if subsequence is not None else schedule.T
    noise = rng.stream(cfg.seed, "noise_stack").standard_normal((S, target.size))
    return _invert_deq_core(target, noise, cfg, schedule, subsequence, predictor)
