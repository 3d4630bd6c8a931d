"""Gradients of the reconstruction loss with respect to the terminal state.

Three routes, cheapest first:

* ``phantom_grad`` backpropagates through a single damped application of
  the joint update on top of the (detached) solver output:
  y = tau * h_tilde(stack*) + (1 - tau) * stack*.  One vjp sweep, which is
  one batched predictor vjp call over S rows.
* ``exact_ift_grad`` solves the adjoint system v = v J + dL/dstack* at the
  fixed point by the same substitution scheme the forward solve uses; the
  strictly triangular Jacobian makes the iteration exact after at most S
  sweeps.  O(S) sweeps of one batched vjp call each, all sharing one set
  of chain coefficients.
* ``rollout_backprop_grad`` differentiates the sequential sampler step by
  step; it needs the O(S D) forward stack in memory and serves as the
  ground truth the implicit route must reproduce.

All three return (loss, gradient) where loss is the value of the scalar
function actually differentiated.  Each builds the chain coefficients once
per call and runs the sweeps through the ``chain`` kernels that take them.
"""

from __future__ import annotations

import csv

import numpy as np

from .chain import (
    ChainCoefficients,
    _check_cotangent,
    _check_noise,
    _check_stack,
    _rollout,
    _sweep,
    _sweep_vjp,
    chain_coefficients,
)
from .errors import AdjointError, ShapeError
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
    stack_star: np.ndarray,
    x_T: np.ndarray,
    target_x0: np.ndarray,
    schedule: DiffusionSchedule,
    subsequence: TimestepSubsequence | None,
    predictor: NoisePredictor,
    noise: np.ndarray | None = None,
    tau: float = 0.1,
) -> tuple[float, np.ndarray]:
    """Damped one-step gradient with the solver output treated as constant.

    The loss reads the bottom row of y = tau * h_tilde(stack*; x_T)
    + (1 - tau) * stack*, so x_T is the only differentiable input and the
    returned gradient is tau times the x_T cotangent of one vjp sweep.
    """
    coeffs = chain_coefficients(schedule, subsequence)
    S = coeffs.S
    stack_star, x_T = _check_stack(stack_star, x_T, S)
    noise = _check_noise(noise, S, x_T.size)
    y = tau * _sweep(coeffs, stack_star, x_T, predictor, noise) + (1.0 - tau) * stack_star
    loss, seed = loss_and_seed(y[S - 1], target_x0)
    cot = np.zeros_like(stack_star)
    cot[S - 1] = seed
    _, cot_x_T = _sweep_vjp(coeffs, stack_star, x_T, predictor, cot)
    return loss, tau * cot_x_T


def adjoint_solve(
    stack_star: np.ndarray,
    x_T: np.ndarray,
    seed_stack: np.ndarray,
    schedule: DiffusionSchedule,
    subsequence: TimestepSubsequence | None,
    predictor: NoisePredictor,
    tol: float = 1e-6,
    max_iters: int | None = None,
    pool: object | None = None,
) -> tuple[np.ndarray, list[float]]:
    """Solve v = v @ dh/dstack + seed_stack at the fixed point.

    Substitution mirrors the forward solver; nilpotency of the Jacobian
    terminates it within S sweeps, so the default budget of S + 5 only
    exists to catch a broken vjp.  Returns (v, per-sweep deltas).
    The chain coefficients are built once and shared by every sweep.
    ``pool`` is accepted for compatibility with older callers and ignored.
    """
    coeffs = chain_coefficients(schedule, subsequence)
    stack_star, x_T = _check_stack(stack_star, x_T, coeffs.S)
    seed_stack = _check_cotangent(seed_stack, stack_star)
    return _adjoint_solve(coeffs, stack_star, x_T, seed_stack, predictor, tol, max_iters)


def _adjoint_solve(
    coeffs: ChainCoefficients,
    stack_star: np.ndarray,
    x_T: np.ndarray,
    seed_stack: np.ndarray,
    predictor: NoisePredictor,
    tol: float,
    max_iters: int | None,
) -> tuple[np.ndarray, list[float]]:
    if max_iters is None:
        max_iters = coeffs.S + 5
    v = seed_stack.copy()
    deltas: list[float] = []
    for _ in range(max_iters):
        pulled, _ = _sweep_vjp(coeffs, stack_star, x_T, predictor, v)
        v_next = pulled + seed_stack
        delta = float(np.linalg.norm(v_next - v))
        deltas.append(delta)
        v = v_next
        if delta <= tol:
            return v, deltas
    raise AdjointError(
        f"adjoint iteration still moving after {max_iters} sweeps "
        f"(last delta {deltas[-1]:.3g})"
    )


def exact_ift_grad(
    stack_star: np.ndarray,
    x_T: np.ndarray,
    target_x0: np.ndarray,
    schedule: DiffusionSchedule,
    subsequence: TimestepSubsequence | None,
    predictor: NoisePredictor,
    adjoint_tol: float = 1e-6,
) -> tuple[float, np.ndarray]:
    """Implicit-function gradient through the fixed point.

    Differentiating stack* = h_tilde(stack*; x_T) gives
    dL/dx_T = v @ dh/dx_T with v the solution of the adjoint system seeded
    by dL/dstack*; the seed lives entirely in the denoised row.
    """
    coeffs = chain_coefficients(schedule, subsequence)
    S = coeffs.S
    stack_star, x_T = _check_stack(stack_star, x_T, S)
    loss, seed = loss_and_seed(stack_star[S - 1], target_x0)
    seed_stack = np.zeros_like(stack_star)
    seed_stack[S - 1] = seed
    v, _ = _adjoint_solve(coeffs, stack_star, x_T, seed_stack, predictor, adjoint_tol, None)
    _, cot_x_T = _sweep_vjp(coeffs, stack_star, x_T, predictor, v)
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

    The forward stack is kept (O(S D) memory); the cotangent then climbs
    one transition at a time:

        lam <- sqrt(A_{p-1} / A_p) lam + c1_p vjp_eps(x_p, tau_p, lam).
    """
    coeffs = chain_coefficients(schedule, subsequence)
    S = coeffs.S
    x_T = np.asarray(x_T, dtype=np.float64)
    states = _rollout(coeffs, x_T, predictor, noise)
    loss, lam = loss_and_seed(states[S - 1], target_x0)
    for p in range(1, S + 1):
        x_p = states[S - 1 - p] if p < S else x_T
        lam = coeffs.ratio[p] * lam + coeffs.c1[p] * predictor.vjp(x_p, int(coeffs.taus[p]), lam)
    return loss, lam


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
