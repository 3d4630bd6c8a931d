"""Recovering the terminal state that generates a given observation.

``invert`` runs one Adam loop over x_T; ``InversionConfig.gradient_mode``
picks how each epoch takes its gradient:

* ``"naive"`` differentiates the sequential sampler end to end, as
  ``rollout_backprop_grad`` does: the back-substitution of
  ``exact_ift_grad`` on the rollout's stack and its forward states.
* ``"phantom"`` and ``"exact"`` solve the joint system for the stack
  with ``solvers.solve``, the one fixed-point loop, and take a cheap
  phantom or an exact implicit gradient at the fixed point (the exact one
  is the one back-substitution of ``gradients``).  With ``warm_start``
  each epoch's solve starts from the last epoch's stack.  Without
  ``InversionConfig.solver`` it is Picard with ``solvers.picard_budget``
  sweeps, which cannot stop short of its tolerance.

A noisy chain (eta > 0) is inverted with its per-transition noise stack
pinned in the ``Chain``, which keeps the joint map deterministic within
the run.  At eta = 0 every sigma vanishes and the chain needs no noise.

The three names are the CLI's: ``invert --method naive``, and ``--method
deq`` with ``--grad phantom`` or ``--grad exact``.

Peak retained state is one stack plus optimizer moments, independent of
the epoch count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import INIT_KINDS, Chain, solve_stack
from .errors import ConfigError, DivergenceError, ShapeError
from .gradients import Adam, _rollout_grad, exact_ift_grad, phantom_grad
from .rng import draw_x_T
from .solvers import SolverConfig, picard_budget


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
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.gradient_mode not in ("phantom", "exact", "naive"):
            raise ConfigError(f"unknown gradient mode '{self.gradient_mode}'")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must lie in (0, 1], got {self.tau}")
        if not (math.isfinite(self.stop_loss) and self.stop_loss >= 0.0):
            raise ConfigError(f"stop_loss must be finite and >= 0, got {self.stop_loss}")
        if self.init not in INIT_KINDS:
            raise ConfigError(f"unknown init kind '{self.init}'")


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


def invert(x0_target: np.ndarray, cfg: InversionConfig, chain: Chain) -> InversionRun:
    """Adam on x_T against the squared distance of the chain's x_0 to the
    target, with the gradient of ``cfg.gradient_mode`` each epoch.  The
    target is one state of the predictor's dimension, or a ``ShapeError``."""
    target = np.asarray(x0_target, dtype=np.float64)
    if target.ndim != 1:
        raise ConfigError(f"target must be a single state vector, got {target.shape}")
    if target.size != chain.predictor.dim:
        raise ShapeError(
            f"target dimension {target.size} != predictor dimension {chain.predictor.dim}"
        )
    eta = chain.schedule.eta
    if eta != 0.0 and chain.noise is None:
        raise ConfigError(f"inverting a chain with eta={eta} needs its noise pinned")
    solver_cfg = cfg.solver or SolverConfig("picard", picard_budget(chain.S))
    x_T = draw_x_T(cfg.seed, target.size)
    adam = Adam(lr=cfg.lr)
    run = InversionRun(x_T_hat=x_T)
    warm: np.ndarray | None = None
    for epoch in range(cfg.epochs):
        if cfg.gradient_mode == "naive":
            loss, grad = _rollout_grad(chain, x_T, target)
        else:
            try:
                result = solve_stack(chain, x_T, solver_cfg, cfg.init if warm is None else warm)
            except DivergenceError:
                if warm is None:
                    raise DivergenceError(
                        f"stack solve diverged at inversion epoch {epoch}"
                    ) from None
                # A stale warm start can blow up after a large parameter
                # move; retry once from the stock initialization.
                result = solve_stack(chain, x_T, solver_cfg, cfg.init)
            if cfg.warm_start:
                warm = result.states
            if cfg.gradient_mode == "phantom":
                loss, grad = phantom_grad(chain, result.states, x_T, target, tau=cfg.tau)
            else:
                loss, grad = exact_ift_grad(chain, result.states, x_T, target)
            run.solver_iters.append(result.iters)
            run.solver_converged.append(result.converged)
        run.loss_trace.append(loss)
        run.best_loss = min(run.best_loss, loss)
        run.epochs_run += 1
        if loss <= cfg.stop_loss:
            break
        x_T = adam.step(x_T, grad)
        run.x_T_hat = x_T
    return run
