"""The sampling chain as a joint fixed-point system.

A run selects S timesteps tau_1 < ... < tau_S out of 1..T and stacks the
unknown states below the terminal draw x_T.  Writing A_i for the signal
product at tau_i (with the boundary A_0 = 1) and position i for the state
at tau_i, the sequential sampler is

    x_{i-1} = sqrt(A_{i-1} / A_i) x_i + c1_i eps(x_i, tau_i) + sigma_i e_i

and unrolling it from the top gives every position as an explicit sum

    x_j = sqrt(A_j / A_S) x_T
          + sum_{t=j}^{S-1} sqrt(A_j / A_t) (c1_{t+1} eps(x_{t+1}, tau_{t+1})
                                             + sigma_{t+1} e_{t+1}).

``h_tilde`` evaluates that sum for all positions at once from the current
stack estimate, with the S noise predictions of one sweep taken in a
single batched predictor call.  Its Jacobian with respect to the stack is
strictly triangular (each output depends only on strictly higher positions
plus x_T), so repeated application converges in at most S steps and the
transpose system solved by the gradient code is nilpotent.

Stack layout: ``states[k]`` holds position S - 1 - k, i.e. ``states[0]``
sits just below x_T and ``states[S - 1]`` is the fully denoised x_0 row.
Noise layout: ``noise[i - 1]`` is the draw injected by transition i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ShapeError
from .predictors import NoisePredictor
from .schedule import (
    ALPHA_BAR_ZERO,
    DiffusionSchedule,
    TimestepSubsequence,
    c1_for_pair,
    identity_subsequence,
    sigma_for_pair,
)


@dataclass(frozen=True)
class ChainCoefficients:
    """Per-position constants of the effective chain.

    Arrays have length S + 1 and are indexed by position; slot 0 is the
    boundary below the last transition (alpha = 1, tau = 0) and slots i >= 1
    describe transition i, i.e. the step from tau_i down to tau_{i-1}.
    """

    alpha: np.ndarray
    sqrt_alpha: np.ndarray
    c1: np.ndarray
    sigma: np.ndarray
    taus: np.ndarray

    @property
    def S(self) -> int:
        return int(self.alpha.size - 1)


def chain_coefficients(
    schedule: DiffusionSchedule, subsequence: TimestepSubsequence | None = None
) -> ChainCoefficients:
    """Evaluate alpha products and transition coefficients along a subsequence."""
    if subsequence is None:
        subsequence = identity_subsequence(schedule.T)
    if subsequence.indices[-1] > schedule.T:
        raise ShapeError(
            f"subsequence reaches t={subsequence.indices[-1]} beyond T={schedule.T}"
        )
    S = subsequence.S
    alpha = np.empty(S + 1)
    taus = np.zeros(S + 1, dtype=np.int64)
    alpha[0] = ALPHA_BAR_ZERO
    for i, tau in enumerate(subsequence.indices, start=1):
        alpha[i] = schedule.alpha_bar(tau)
        taus[i] = tau
    c1 = np.zeros(S + 1)
    sigma = np.zeros(S + 1)
    for i in range(1, S + 1):
        sigma[i] = sigma_for_pair(alpha[i - 1], alpha[i], schedule.eta)
        c1[i] = c1_for_pair(alpha[i - 1], alpha[i], schedule.eta)
    return ChainCoefficients(
        alpha=alpha, sqrt_alpha=np.sqrt(alpha), c1=c1, sigma=sigma, taus=taus
    )


def init_stack(x_T: np.ndarray, S: int, kind: str = "x_T") -> np.ndarray:
    """Initial stack estimate: every row copies x_T, or all zeros."""
    x_T = np.asarray(x_T, dtype=np.float64)
    if kind == "x_T":
        return np.tile(x_T, (S, 1))
    if kind == "zero":
        return np.zeros((S, x_T.size))
    raise ShapeError(f"unknown init kind '{kind}'")


def _check_stack(states: np.ndarray, x_T: np.ndarray, S: int) -> tuple[np.ndarray, np.ndarray]:
    states = np.asarray(states, dtype=np.float64)
    x_T = np.asarray(x_T, dtype=np.float64)
    if x_T.ndim != 1:
        raise ShapeError(f"x_T must be 1-d, got shape {x_T.shape}")
    if states.shape != (S, x_T.size):
        raise ShapeError(
            f"stack shape {states.shape} does not match (S={S}, D={x_T.size})"
        )
    return states, x_T


def _stack_inputs(states: np.ndarray, x_T: np.ndarray, S: int) -> np.ndarray:
    """States feeding transitions 1..S as an (S, D) batch: position p comes
    from the stack for p < S and is x_T itself at p = S."""
    return np.concatenate([states[: S - 1][::-1], x_T[None]])


def ddim_step(
    x_t: np.ndarray,
    t: int,
    schedule: DiffusionSchedule,
    predictor: NoisePredictor,
    eps_t: np.ndarray | None = None,
    t_prev: int | None = None,
) -> np.ndarray:
    """One sequential transition from t down to t_prev (default t - 1)."""
    if t_prev is None:
        t_prev = t - 1
    x_t = np.asarray(x_t, dtype=np.float64)
    a_prev = schedule.alpha_bar(t_prev)
    a_t = schedule.alpha_bar(t)
    sig = sigma_for_pair(a_prev, a_t, schedule.eta)
    c1 = c1_for_pair(a_prev, a_t, schedule.eta)
    out = np.sqrt(a_prev / a_t) * x_t + c1 * predictor.predict(x_t, t)
    if eps_t is not None:
        out = out + sig * np.asarray(eps_t, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise DivergenceError(f"non-finite state after the step from t={t}")
    return out


def sequential_rollout(
    x_T: np.ndarray,
    schedule: DiffusionSchedule,
    subsequence: TimestepSubsequence | None,
    predictor: NoisePredictor,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Run the chain one transition at a time; returns the full (S, D) stack.

    This is the reference path: the fixed point of h_tilde must reproduce
    it exactly, and it serves as the oracle in the equivalence tests.
    """
    coeffs = chain_coefficients(schedule, subsequence)
    S = coeffs.S
    x_T = np.asarray(x_T, dtype=np.float64)
    noise = _normalize_noise(noise, S, x_T.size)
    states = np.empty((S, x_T.size))
    x = x_T
    for p in range(S, 0, -1):
        eps_hat = predictor.predict(x, int(coeffs.taus[p]))
        x = (
            (coeffs.sqrt_alpha[p - 1] / coeffs.sqrt_alpha[p]) * x
            + coeffs.c1[p] * eps_hat
            + coeffs.sigma[p] * noise[p - 1]
        )
        if not np.all(np.isfinite(x)):
            raise DivergenceError(
                f"non-finite state after the step from t={int(coeffs.taus[p])}"
            )
        states[S - p] = x
    return states


def _normalize_noise(noise: np.ndarray | None, S: int, D: int) -> np.ndarray:
    if noise is None:
        return np.zeros((S, D))
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != (S, D):
        raise ShapeError(f"noise shape {noise.shape} does not match (S={S}, D={D})")
    return noise


def h_tilde(
    states: np.ndarray,
    x_T: np.ndarray,
    schedule: DiffusionSchedule,
    subsequence: TimestepSubsequence | None,
    predictor: NoisePredictor,
    noise: np.ndarray | None = None,
    pool: object | None = None,
) -> np.ndarray:
    """Simultaneous update of every stack row from the current estimate.

    All S predictor evaluations read the input stack, so they are mutually
    independent and run as one batched predictor call.  The per-position
    sums share one carried accumulation down the chain, keeping the whole
    update one predictor call and O(S D) arithmetic instead of the O(S^2)
    literal double sum.  ``pool`` is accepted for compatibility with older
    callers and ignored.
    """
    coeffs = chain_coefficients(schedule, subsequence)
    S = coeffs.S
    states, x_T = _check_stack(states, x_T, S)
    noise = _normalize_noise(noise, S, x_T.size)
    eps_pred = predictor.predict(_stack_inputs(states, x_T, S), coeffs.taus[1:])
    out_pos = np.empty_like(states)
    # Horner-style carry down the chain, with the same expression shape as
    # sequential_rollout's update, so the rollout stack is a fixed point of
    # this map bit for bit.  The sweep stays serial and in fixed order.
    carry = x_T
    for p in range(S, 0, -1):
        carry = (
            (coeffs.sqrt_alpha[p - 1] / coeffs.sqrt_alpha[p]) * carry
            + coeffs.c1[p] * eps_pred[p - 1]
            + coeffs.sigma[p] * noise[p - 1]
        )
        out_pos[p - 1] = carry
    out = out_pos[::-1].copy()
    if not np.all(np.isfinite(out)):
        raise DivergenceError("non-finite stack after simultaneous update")
    return out


def residual(
    states: np.ndarray,
    x_T: np.ndarray,
    schedule: DiffusionSchedule,
    subsequence: TimestepSubsequence | None,
    predictor: NoisePredictor,
    noise: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """h_tilde(states) - states and its flattened l2 norm."""
    g = h_tilde(states, x_T, schedule, subsequence, predictor, noise) - states
    return g, float(np.linalg.norm(g))


def h_tilde_vjp(
    states: np.ndarray,
    x_T: np.ndarray,
    schedule: DiffusionSchedule,
    subsequence: TimestepSubsequence | None,
    predictor: NoisePredictor,
    cotangent: np.ndarray,
    pool: object | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pull a stack cotangent back through h_tilde at (states, x_T).

    Returns (cotangent_states, cotangent_x_T).  Output position j carries
    weight sqrt(A_j) on every transition at or above it, so the pullback
    onto transition p only needs the prefix P_p = sum_{j < p} sqrt(A_j) u_j;
    one batched predictor vjp over all S timesteps then finishes the job.
    The noise enters h_tilde additively and so never appears in the
    Jacobian.  ``pool`` is accepted for compatibility with older callers
    and ignored.
    """
    coeffs = chain_coefficients(schedule, subsequence)
    S = coeffs.S
    states, x_T = _check_stack(states, x_T, S)
    cotangent = np.asarray(cotangent, dtype=np.float64)
    if cotangent.shape != states.shape:
        raise ShapeError(
            f"cotangent shape {cotangent.shape} does not match stack {states.shape}"
        )
    upos = cotangent[::-1]
    prefixes = np.empty_like(states)
    acc = np.zeros(x_T.size)
    for p in range(1, S + 1):
        acc = acc + coeffs.sqrt_alpha[p - 1] * upos[p - 1]
        prefixes[p - 1] = acc
    pulled = predictor.vjp(_stack_inputs(states, x_T, S), coeffs.taus[1:], prefixes)
    cot_states = np.zeros_like(states)
    for p in range(1, S):
        cot_states[S - 1 - p] = (coeffs.c1[p] / coeffs.sqrt_alpha[p - 1]) * pulled[p - 1]
    cot_x_T = prefixes[S - 1] / coeffs.sqrt_alpha[S] + (
        coeffs.c1[S] / coeffs.sqrt_alpha[S - 1]
    ) * pulled[S - 1]
    return cot_states, cot_x_T
