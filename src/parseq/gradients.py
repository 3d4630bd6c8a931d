"""Gradients of the reconstruction loss with respect to the terminal state.

Three routes, cheapest first:

* ``phantom_grad`` backpropagates through a single damped application of
  the joint update on top of the (detached) solver output:
  y = tau * h_tilde(stack*) + (1 - tau) * stack*.  One vjp sweep, which is
  one batched predictor vjp call over S rows.
* ``exact_ift_grad`` solves the adjoint system v = v J + dL/dstack* at the
  fixed point.  The Jacobian J of ``h_tilde`` is strictly triangular, so
  the system is solved exactly by one back-substitution from the x_0 row
  up, one single-row predictor vjp per position (S - 1 in all); one
  batched vjp sweep then pulls v back onto x_T.
* ``rollout_backprop_grad`` backpropagates through the sequential sampler
  with its O(S D) forward stack kept.  It runs that back-substitution in
  the same scaled coordinates and ends in a one-row vjp at x_T, so on the
  rollout's stack it is ``exact_ift_grad`` bit for bit wherever a one-row
  vjp matches the batched one.

All three return (loss, gradient) where loss is the value of the scalar
function actually differentiated.  The first two take a ``Chain``;
``rollout_backprop_grad`` and ``adjoint_solve`` keep the older per-call
form and build a fresh chain from their arguments.
"""

from __future__ import annotations

import csv

import numpy as np

from .chain import Chain, _check_cotangent, _check_stack, _rollout, _sweep, _sweep_vjp
from .errors import DivergenceError, ShapeError
from .predictors import NoisePredictor
from .schedule import DiffusionSchedule, TimestepSubsequence


class Adam:
    """Adam optimizer over a single parameter array.

    Moments start at zero and are bias-corrected; the update is
    lr * m_hat / (sqrt(v_hat) + eps), so the very first step has magnitude
    close to lr for any nonzero gradient.
    """

    def __init__(
        self,
        lr: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return param - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def loss_and_seed(x0_hat: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared Frobenius reconstruction loss on the denoised row and its
    derivative there."""
    x0_hat = np.asarray(x0_hat, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if x0_hat.shape != target.shape:
        raise ShapeError(f"shapes {x0_hat.shape} and {target.shape} differ")
    r = x0_hat - target
    return float(r @ r), 2.0 * r


def phantom_grad(
    chain: Chain,
    stack_star: np.ndarray,
    x_T: np.ndarray,
    target_x0: np.ndarray,
    tau: float = 0.1,
) -> tuple[float, np.ndarray]:
    """Damped one-step gradient with the solver output treated as constant.

    The loss reads the bottom row of y = tau * h_tilde(stack*; x_T)
    + (1 - tau) * stack*, so x_T is the only differentiable input and the
    returned gradient is tau times the x_T cotangent of one vjp sweep.
    """
    S = chain.S
    stack_star, x_T = _check_stack(stack_star, x_T, S)
    y = tau * _sweep(chain, stack_star, x_T) + (1.0 - tau) * stack_star
    if not np.isfinite(y).all():
        raise DivergenceError("non-finite stack after simultaneous update")
    loss, seed = loss_and_seed(y[S - 1], target_x0)
    cot = np.zeros_like(stack_star)
    cot[S - 1] = seed
    _, cot_x_T = _sweep_vjp(chain, stack_star, x_T, cot)
    return loss, tau * cot_x_T


def adjoint_solve(
    stack_star: np.ndarray,
    x_T: np.ndarray,
    seed_stack: np.ndarray,
    schedule: DiffusionSchedule,
    subsequence: TimestepSubsequence | None,
    predictor: NoisePredictor,
    tol: float = 1e-6,
    pool: object | None = None,
) -> tuple[np.ndarray, list[float]]:
    """Solve v = v @ dh/dstack + seed_stack at the fixed point, exactly.

    The solve is one back-substitution (see ``_adjoint_solve``), so there
    is nothing to iterate.  Returns (v, []); the empty list stands where
    per-sweep deltas used to be.  ``tol`` and ``pool`` are accepted for
    compatibility with older callers and ignored.
    """
    chain = Chain(schedule, subsequence, predictor)
    stack_star, x_T = _check_stack(stack_star, x_T, chain.S)
    return _adjoint_solve(chain, stack_star, _check_cotangent(seed_stack, stack_star)), []


def _adjoint_solve(chain: Chain, stack_star: np.ndarray, seed_stack: np.ndarray) -> np.ndarray:
    """Solve v = seed + (stack cotangent of ``_sweep_vjp`` at v) from x_0 up.

    Nothing reads x_0, so v_0 is its seed; v_p = seed_p + c1_p / sqrt(A_{p-1})
    vjp(x_p, tau_p, P_p) needs only P_p = sum_{j < p} sqrt(A_j) v_j.  Sums
    and products run in the sweep's order, so v is its fixed point bit for
    bit wherever a one-row vjp matches the batched one.
    """
    coeffs = chain.coeffs
    S = coeffs.S
    v = np.empty_like(seed_stack)
    v[S - 1] = seed_stack[S - 1] + 0.0  # the sweep adds its +0.0 pullback here
    prefix = 0.0
    for p in range(1, S):
        row = S - 1 - p
        prefix = prefix + coeffs.sqrt_alpha[p - 1] * v[row + 1]
        pulled = chain.predictor.vjp(stack_star[row], int(coeffs.taus[p]), prefix)
        v[row] = seed_stack[row] + coeffs.scaled_c1[p] * pulled
    if not np.isfinite(v).all():
        raise DivergenceError("non-finite adjoint; the predictor vjp broke down")
    return v


def exact_ift_grad(
    chain: Chain, stack_star: np.ndarray, x_T: np.ndarray, target_x0: np.ndarray
) -> tuple[float, np.ndarray]:
    """Implicit-function gradient through the fixed point.

    Differentiating stack* = h_tilde(stack*; x_T) gives
    dL/dx_T = v @ dh/dx_T with v the solution of the adjoint system seeded
    by dL/dstack*; the seed lives entirely in the denoised row.  v comes
    from one exact back-substitution (S - 1 one-row vjp calls) and its
    pullback onto x_T from one batched vjp sweep over S rows.
    """
    S = chain.S
    stack_star, x_T = _check_stack(stack_star, x_T, S)
    loss, seed = loss_and_seed(stack_star[S - 1], target_x0)
    seed_stack = np.zeros_like(stack_star)
    seed_stack[S - 1] = seed
    v = _adjoint_solve(chain, stack_star, seed_stack)
    _, cot_x_T = _sweep_vjp(chain, stack_star, x_T, v)
    return loss, cot_x_T


def rollout_backprop_grad(
    x_T: np.ndarray,
    target_x0: np.ndarray,
    schedule: DiffusionSchedule,
    subsequence: TimestepSubsequence | None,
    predictor: NoisePredictor,
    noise: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Differentiate the sequential sampler by reverse sweep over its steps.

    Keeps the forward stack (O(S D) memory) and climbs it with the prefix
    P of ``_adjoint_solve``, seeded with dL/dx_0:
    P <- P + sqrt(A_p) (c1_p / sqrt(A_{p-1})) vjp_eps(x_p, tau_p, P).
    dL/dx_T is P / sqrt(A_S) plus transition S's term, as in ``_sweep_vjp``.
    """
    return _rollout_backprop(Chain(schedule, subsequence, predictor, noise), x_T, target_x0)


def _rollout_backprop(
    chain: Chain, x_T: np.ndarray, target_x0: np.ndarray
) -> tuple[float, np.ndarray]:
    coeffs, predictor, S = chain.coeffs, chain.predictor, chain.S
    states = _rollout(chain, x_T)
    loss, seed = loss_and_seed(states[S - 1], target_x0)
    prefix = seed + 0.0  # the adjoint's running sum turns a -0.0 seed into +0.0
    for p in range(1, S):
        pulled = predictor.vjp(states[S - 1 - p], int(coeffs.taus[p]), prefix)
        prefix = prefix + coeffs.sqrt_alpha[p] * (coeffs.scaled_c1[p] * pulled)
    pulled = predictor.vjp(x_T, int(coeffs.taus[S]), prefix)
    return loss, prefix / coeffs.sqrt_alpha[S] + coeffs.scaled_c1[S] * pulled


def central_difference_grad(
    fn, x: np.ndarray, step: float = 1e-5
) -> np.ndarray:
    """Central finite differences of a scalar function, one coordinate at a
    time; the reference the analytic routes are checked against."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        out[i] = (fn(hi) - fn(lo)) / (2.0 * step)
    return out


def write_gradcheck_report(path: str, rows: list[dict]) -> None:
    """CSV report of finite-difference agreement, one row per check.

    Each row needs mode, S, D, rtol_measured, and a boolean verdict.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "S", "D", "rtol_measured", "pass"])
        for row in rows:
            writer.writerow(
                [
                    row["mode"],
                    row["S"],
                    row["D"],
                    repr(float(row["rtol_measured"])),
                    "true" if row["pass"] else "false",
                ]
            )
