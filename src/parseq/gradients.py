"""Inversion: Adam on the terminal state, with gradients at the fixed point.

The loss is the squared distance of the chain's x_0 to a target
(``loss_and_seed``).  ``invert`` runs one Adam loop over x_T, and
``InversionConfig.gradient_mode`` picks the route each epoch takes its
gradient by.  The three names are the CLI's: ``invert --method naive``,
and ``--method deq`` with ``--grad phantom`` or ``--grad exact``.  Every
route returns (loss, gradient), the loss being the value of the scalar
function actually differentiated, and ends in the same one-row pullback
onto x_T (``chain._x_T_step``):

* ``"naive"``, ``rollout_backprop_grad``, backpropagates through the
  sequential sampler with its O(S D) forward stack kept.  The rollout is
  the fixed point, so this is the back-substitution of ``exact_ift_grad``
  on the rollout's stack, reading the vjp states of the rollout's own
  one-row forward passes: S forward passes in all.
* ``"phantom"``, ``phantom_grad``, backpropagates through a single damped
  application of the joint update on top of the (detached) solver output:
  y = tau * h_tilde(stack*) + (1 - tau) * stack*.  The loss row reads x_T
  only directly and through transition S, so the gradient is one one-row
  vjp.
* ``"exact"``, ``exact_ift_grad``, solves the adjoint system
  v = v J + dL/dstack* at the fixed point.  The Jacobian J of ``h_tilde``
  is strictly triangular, so ``_back_substitute`` solves it exactly from
  the x_0 row up: one batched forward pass builds the predictor's vjp
  state at the S - 1 stack rows it reads, and each position then runs
  only a one-row backward pass.  ``adjoint_solve`` is the same solve for
  any stack seed.

Phantom and exact first solve the joint system for the stack with
``chain.solve_stack``, which runs ``solvers.solve``, the one fixed-point
loop.  Each epoch's solve starts from the last epoch's stack, and from
``InversionConfig.init`` only at epoch 0 or when that warm start
diverges.  Without ``InversionConfig.solver`` it is Picard with
``solvers.picard_budget`` sweeps, which cannot stop short of its
tolerance.  A noisy chain (eta > 0) is inverted with its per-transition
noise stack pinned in the ``Chain``, which keeps the joint map
deterministic within the run; at eta = 0 every sigma vanishes and the
chain needs no noise.  Peak retained state is one stack plus the Adam
moments, independent of the epoch count.

The routes take a ``Chain``.  ``rollout_backprop_grad`` and
``adjoint_solve`` build one from their arguments, and ``adjoint_solve``
ignores ``tol`` and ``pool`` and returns ``(v, [])``, because
``perfbench/tracing.py`` calls them so, counting the list as sweeps, and
its self-test requires every traced layer to be measured (ROADMAP item 1).
The full chain is ``identity_subsequence(T)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import (
    INIT_KINDS, Chain, _check_cotangent, _check_stack, _rollout, _sweep, _x_T_step, solve_stack,
)
from .errors import ConfigError, DivergenceError, NumericDomainError, ShapeError, require_integer
from .predictors import NoisePredictor
from .rng import draw_x_T
from .schedule import DiffusionSchedule, TimestepSubsequence
from .solvers import SolverConfig, picard_budget


#: Adam's moment decay rates and the guard added to the update's denominator.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam optimizer over a single parameter array.

    Moments start at zero and are bias-corrected; the update is
    lr * m_hat / (sqrt(v_hat) + ADAM_EPS), so the very first step has
    magnitude close to lr for any nonzero gradient.  The decay rates are
    ``ADAM_BETA1`` and ``ADAM_BETA2``.
    """

    def __init__(self, lr: float = 0.01):
        self.lr = lr
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.t = 0

    def step(self, param: np.ndarray, grad: np.ndarray) -> np.ndarray:
        param = np.asarray(param, dtype=np.float64)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != param.shape:
            raise ShapeError(f"gradient shape {grad.shape} != param {param.shape}")
        if self.m is None:
            self.m = np.zeros_like(param)
            self.v = np.zeros_like(param)
        self.t += 1
        # The moments update in place, in the operation order of
        # m = b1 m + (1 - b1) g and v = b2 v + ((1 - b2) g) g.
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * grad
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * grad * grad
        m_hat = self.m / (1.0 - ADAM_BETA1**self.t)
        v_hat = self.v / (1.0 - ADAM_BETA2**self.t)
        return param - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def loss_and_seed(x0_hat: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared Frobenius reconstruction loss on the denoised row and its
    derivative there.  A loss that overflows is a ``NumericDomainError``;
    a finite one keeps the seed 2r finite too."""
    x0_hat = np.asarray(x0_hat, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if x0_hat.shape != target.shape:
        raise ShapeError(f"shapes {x0_hat.shape} and {target.shape} differ")
    r = x0_hat - target
    loss = float(r @ r)
    if not math.isfinite(loss):
        raise NumericDomainError("the loss ||x_0 - target||^2 is not finite")
    return loss, 2.0 * r


def phantom_grad(
    chain: Chain,
    stack_star: np.ndarray,
    x_T: np.ndarray,
    target_x0: np.ndarray,
    tau: float = 0.1,
) -> tuple[float, np.ndarray]:
    """Damped one-step gradient with the solver output treated as constant.

    The loss reads the bottom row of y = tau * h_tilde(stack*; x_T)
    + (1 - tau) * stack*, so x_T is the only differentiable input, and
    only that row of y is formed.  It reads x_T directly and through
    transition S alone, so the gradient is tau times ``_x_T_step`` of the
    loss seed: one one-row vjp.
    """
    S = chain.S
    stack_star, x_T = _check_stack(stack_star, x_T, S)
    y = tau * _sweep(chain, stack_star, x_T)[S - 1] + (1.0 - tau) * stack_star[S - 1]
    if not np.isfinite(y).all():
        raise DivergenceError("non-finite stack after simultaneous update")
    loss, seed = loss_and_seed(y, target_x0)
    # + 0.0 turns a -0.0 seed into +0.0, as the running sum of h_tilde_vjp does.
    return loss, tau * _x_T_step(chain, x_T, seed + 0.0)


def _back_substitute(
    chain: Chain, stack_star: np.ndarray, seed: np.ndarray, states: list | None = None
) -> tuple[np.ndarray | None, np.ndarray]:
    """Solve v = v @ dh/dstack + seed_stack at the fixed point, exactly.

    ``seed`` is the (S, D) seed stack, or only its x_0 row (D,) when every
    other seed row is zero; then no row of v is kept and v is returned as
    None.  The Jacobian is strictly triangular, so the solve is one
    back-substitution from the x_0 row up.  Nothing reads x_0, so v_0 is
    its seed; v_p = seed_p + c1_p / sqrt(A_{p-1}) vjp(x_p, tau_p, P_p)
    needs only the prefix P_p = sum_{j < p} sqrt(A_j) v_j, one one-row
    backward pass per position.  ``states[p - 1]`` is the predictor's vjp
    state at position p; without them, one batched ``vjp_state`` over the
    S - 1 stack rows read builds them, so ``exact_ift_grad`` and
    ``adjoint_solve`` see the same bits.  Sums and products run in the order of
    ``h_tilde_vjp``, so v is the fixed point of its stack cotangent up to
    the rounding of the predictor's batched forward pass.  A zero seed row
    would only turn a -0.0 in v_p into +0.0, which leaves every prefix,
    started from +0.0, unchanged; so both seed forms give the same P_S.
    Returns v and the full prefix P_S, which ``_x_T_step`` pulls onto x_T.
    """
    S, predictor = chain.S, chain.predictor
    if states is None and S > 1:
        batch = predictor.vjp_state(stack_star[S - 2::-1], chain.labels[0][: S - 1])
        states = [None if batch is None else [s[i] for s in batch] for i in range(S - 1)]
    # Python floats multiply an array faster than numpy scalars do.
    sqrt_alpha, scaled_c1 = chain.sqrt_alpha.tolist(), chain.scaled_c1.tolist()
    v = np.empty_like(seed) if seed.ndim == 2 else None
    v_p = (seed[S - 1] if v is not None else seed) + 0.0  # the sweep's +0.0 pullback
    if v is not None:
        v[S - 1] = v_p
    prefix = 0.0
    for p, t in zip(range(1, S), chain.labels[1]):
        row = S - 1 - p
        prefix = prefix + sqrt_alpha[p - 1] * v_p
        v_p = scaled_c1[p] * predictor.vjp_from(states[p - 1], stack_star[row], t, prefix)
        if v is not None:
            v_p = np.add(seed[row], v_p, out=v[row])
    return v, prefix + sqrt_alpha[S - 1] * v_p


def adjoint_solve(
    stack_star: np.ndarray,
    x_T: np.ndarray,
    seed_stack: np.ndarray,
    schedule: DiffusionSchedule,
    subsequence: TimestepSubsequence,
    predictor: NoisePredictor,
    tol: float = 1e-6,
    pool: object | None = None,
) -> tuple[np.ndarray, list[float]]:
    """The adjoint v of ``_back_substitute`` on a fresh chain.

    Returns (v, []), as a back-substitution makes no sweeps; ``tol`` and
    ``pool`` are ignored (see the module docstring).
    """
    chain = Chain(schedule, subsequence, predictor)
    stack_star, x_T = _check_stack(stack_star, x_T, chain.S)
    v, _ = _back_substitute(chain, stack_star, _check_cotangent(seed_stack, stack_star))
    if not np.isfinite(v).all():
        raise DivergenceError("non-finite adjoint; the predictor vjp broke down")
    return v, []


def exact_ift_grad(
    chain: Chain,
    stack_star: np.ndarray,
    x_T: np.ndarray,
    target_x0: np.ndarray,
    states: list | None = None,
) -> tuple[float, np.ndarray]:
    """Implicit-function gradient through the fixed point.

    Differentiating stack* = h_tilde(stack*; x_T) gives
    dL/dx_T = v @ dh/dx_T with v the adjoint solution seeded by
    dL/dstack*, which lives entirely in the denoised row.  So this is
    ``_back_substitute`` on that one-row seed, then ``_x_T_step`` of its
    prefix P_S: one batched forward pass of S - 1 rows, S - 1 one-row
    backward passes and one one-row vjp, and no ``predict`` call.
    ``states``, the predictor's vjp states at positions 1..S as
    ``_rollout`` keeps them, replace both forward passes.
    """
    S = chain.S
    stack_star, x_T = _check_stack(stack_star, x_T, S)
    loss, seed = loss_and_seed(stack_star[S - 1], target_x0)
    _, prefix = _back_substitute(chain, stack_star, seed, states)
    grad = _x_T_step(chain, x_T, prefix, None if states is None else states[S - 1])
    if not np.isfinite(grad).all():
        raise DivergenceError("non-finite adjoint; the predictor vjp broke down")
    return loss, grad


def _rollout_grad(
    chain: Chain, x_T: np.ndarray, target_x0: np.ndarray
) -> tuple[float, np.ndarray]:
    """Backprop through the sequential sampler: the rollout is the fixed
    point, so this is the implicit gradient on the rollout's stack, with
    the vjp states of the rollout's own forward passes."""
    stack, states = _rollout(chain, x_T, keep=True)
    return exact_ift_grad(chain, stack, x_T, target_x0, states)


def rollout_backprop_grad(
    x_T: np.ndarray,
    target_x0: np.ndarray,
    schedule: DiffusionSchedule,
    subsequence: TimestepSubsequence,
    predictor: NoisePredictor,
    noise: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Differentiate the sequential sampler by reverse sweep over its steps.

    Keeps the rollout's O(S D) stack and the predictor's vjp state at each
    of its S one-row forward calls, then runs the back-substitution of
    ``exact_ift_grad`` on them: the rollout is the fixed point, so backprop
    through the chain and the implicit gradient are one computation.  S
    one-row forward passes and S one-row backward passes.
    """
    return _rollout_grad(Chain(schedule, subsequence, predictor, noise), x_T, target_x0)


@dataclass
class InversionConfig:
    epochs: int = 400
    lr: float = 0.01
    gradient_mode: str = "phantom"
    tau: float = 0.1
    solver: SolverConfig | None = None
    stop_loss: float = 0.0
    seed: int = 0
    init: str = "x_T"

    def __post_init__(self) -> None:
        require_integer("epochs", self.epochs)
        require_integer("seed", self.seed)
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
    target is one state of the predictor's dimension, or a ``ShapeError``.
    The run's ``x_T_hat`` is the iterate whose loss is ``best_loss``."""
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
            warm = result.states
            if cfg.gradient_mode == "phantom":
                loss, grad = phantom_grad(chain, result.states, x_T, target, tau=cfg.tau)
            else:
                loss, grad = exact_ift_grad(chain, result.states, x_T, target)
            run.solver_iters.append(result.iters)
            run.solver_converged.append(result.converged)
        run.loss_trace.append(loss)
        if loss < run.best_loss:
            run.best_loss, run.x_T_hat = loss, x_T
        run.epochs_run += 1
        if loss <= cfg.stop_loss:
            break
        x_T = adam.step(x_T, grad)
    return run

