"""The sampling chain as a joint fixed-point system.

A run selects S timesteps tau_1 < ... < tau_S out of 1..T and stacks the
unknown states below the terminal draw x_T.  Writing A_i for the signal
product at tau_i (with the boundary A_0 = 1) and position i for the state
at tau_i, the sequential sampler is

    x_{i-1} = sqrt(A_{i-1} / A_i) x_i + c1_i eps(x_i, tau_i) + sigma_i e_i

and unrolling it from the top makes every position, divided by sqrt(A_j),
a prefix sum of the same per-transition terms:

    x_j / sqrt(A_j) = x_T / sqrt(A_S) + sum_{p=j+1}^{S} u_p,
    u_p = (c1_p eps(x_p, tau_p) + sigma_p e_p) / sqrt(A_{p-1}).

``h_tilde`` evaluates these sums for all positions at once from the current
stack estimate, with one batched predictor call and one cumulative sum per
sweep; the rollout adds the same terms in the same order, so its stack is a
fixed point of ``h_tilde`` bit for bit wherever a batched prediction equals
the per-row one.  The Jacobian is strictly triangular (each output depends
only on strictly higher positions plus x_T), so repeated application
converges in at most S steps and the transpose system of the gradient code
is solved by one back-substitution.

A ``Chain`` holds everything these maps read: the schedule, the
subsequence, the noise model, the pinned noise and the per-position
constants ``chain_coefficients`` builds from them, checked and built once,
and the labels ``NoisePredictor.prepare`` gives its timesteps, which every
predictor call of the chain passes by position.
The private kernels ``_sweep``, ``_rollout`` and ``_x_T_step`` take a
chain, and so do ``solve_stack``, which hands ``_sweep`` to
``solvers.solve``, and the gradient routes; ``_x_T_step`` is the one-row
pullback onto x_T that every gradient route ends in.
``sequential_rollout``, ``h_tilde`` and ``h_tilde_vjp`` build a fresh chain
from their arguments, and the two maps ignore ``pool``, because
``perfbench/tracing.py`` calls them so, ``pool`` positionally, and its
self-test requires every traced layer to be measured (ROADMAP item 1).
Every chain names its subsequence; the full chain is ``identity_subsequence(T)``.

Stack layout: ``states[k]`` holds position S - 1 - k, i.e. ``states[0]``
sits just below x_T and ``states[S - 1]`` is the fully denoised x_0 row.
Noise layout: ``noise[i - 1]`` is the draw injected by transition i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, ShapeError
from .predictors import NoisePredictor
from .schedule import (
    DiffusionSchedule,
    TimestepSubsequence,
    c1_for_pair,
    sigma_for_pair,
)
from .solvers import FixedPointResult, SolverConfig, solve

#: The ``init_stack`` rules, by name: every row copies x_T, or all zeros.
INIT_KINDS = ("x_T", "zero")


def chain_coefficients(
    schedule: DiffusionSchedule, subsequence: TimestepSubsequence
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The read-only arrays a ``Chain`` keeps, built whole: ``timesteps``,
    ``sqrt_alpha`` and ``scaled_c1``, then the sigma its noise is scaled by;
    all but ``timesteps`` in the position slots ``Chain`` describes."""
    if subsequence.indices[-1] > schedule.T:
        raise ShapeError(
            f"subsequence reaches t={subsequence.indices[-1]} beyond T={schedule.T}"
        )
    taus = np.array((0, *subsequence.indices), dtype=np.int64)
    alpha = schedule.alpha_by_t[taus]
    sigma = np.concatenate([[0.0], sigma_for_pair(alpha[:-1], alpha[1:], schedule.eta)])
    c1 = c1_for_pair(alpha[:-1], alpha[1:], schedule.eta)
    sqrt_alpha = np.sqrt(alpha)
    scaled_c1 = np.concatenate([[0.0], c1 / sqrt_alpha[:-1]])
    arrays = (taus[1:], sqrt_alpha, scaled_c1, sigma)
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@dataclass(frozen=True, eq=False)
class Chain:
    """One sampling chain, checked once: schedule, subsequence, noise model,
    pinned noise and the constants built from them.

    ``noise=None`` injects no noise; otherwise ``noise`` is the (S, D) stack
    of per-transition draws, D being the predictor's dimension, held as a
    read-only view.  ``timesteps`` is the (S,) array tau_1..tau_S, and
    ``labels`` the (batch, rows) labels ``predictor.prepare`` gives them.

    ``sqrt_alpha`` and ``scaled_c1`` have length S + 1 and are indexed by
    position: slot 0 is the boundary below the last transition (A_0 = 1)
    and slot i >= 1 describes transition i, the step from tau_i down to
    tau_{i-1}.  ``scaled_c1[i]`` is c1_i / sqrt(A_{i-1}), the weight of
    transition i's prediction in the scaled coordinates y = x / sqrt(A)
    (slot 0 is unused and zero); every chain pass, forward or backward,
    runs in those coordinates.  ``scaled_noise`` holds noise row i - 1
    times sigma_i / sqrt(A_{i-1}), or is None when every sigma is zero.
    Every array is read-only, because one chain serves every sweep of a
    solve.
    """

    schedule: DiffusionSchedule
    subsequence: TimestepSubsequence
    predictor: NoisePredictor
    noise: np.ndarray | None = None
    timesteps: np.ndarray = field(init=False, repr=False)
    sqrt_alpha: np.ndarray = field(init=False, repr=False)
    scaled_c1: np.ndarray = field(init=False, repr=False)
    scaled_noise: np.ndarray | None = field(init=False, repr=False)
    labels: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        timesteps, sqrt_alpha, scaled_c1, sigma = chain_coefficients(
            self.schedule, self.subsequence)
        noise = self.noise
        if noise is not None:
            noise = np.asarray(noise, dtype=np.float64)
            shape = (timesteps.size, self.predictor.dim)
            if noise.shape != shape:
                raise ShapeError(
                    f"noise shape {noise.shape} does not match (S={shape[0]}, D={shape[1]})"
                )
            noise = noise.view()
            noise.setflags(write=False)
        scaled_noise = None
        if noise is not None and sigma.any():
            scaled_noise = (sigma[1:] / sqrt_alpha[:-1])[:, None] * noise
            scaled_noise.setflags(write=False)
        object.__setattr__(self, "noise", noise)
        object.__setattr__(self, "timesteps", timesteps)
        object.__setattr__(self, "sqrt_alpha", sqrt_alpha)
        object.__setattr__(self, "scaled_c1", scaled_c1)
        object.__setattr__(self, "scaled_noise", scaled_noise)
        object.__setattr__(self, "labels", self.predictor.prepare(timesteps))

    @property
    def S(self) -> int:
        return self.timesteps.size


def init_stack(x_T: np.ndarray, S: int, kind: str = "x_T") -> np.ndarray:
    """Initial stack estimate: every row copies x_T, or all zeros."""
    if kind not in INIT_KINDS:
        raise ConfigError(f"unknown init kind '{kind}'")
    x_T = np.asarray(x_T, dtype=np.float64)
    if kind == "x_T":
        return np.tile(x_T, (S, 1))
    return np.zeros((S, x_T.size))


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
    if t_prev >= t:
        raise ConfigError(f"a DDIM step goes down: t_prev={t_prev} is not below t={t}")
    x_t = np.asarray(x_t, dtype=np.float64)
    a_prev = schedule.alpha_bar(t_prev)
    a_t = schedule.alpha_bar(t)
    sig = sigma_for_pair(a_prev, a_t, schedule.eta)
    c1 = c1_for_pair(a_prev, a_t, schedule.eta)
    out = np.sqrt(a_prev / a_t) * x_t + c1 * predictor.predict(x_t, t)
    if eps_t is not None:
        out = out + sig * np.asarray(eps_t, dtype=np.float64)
    if not np.isfinite(out).all():
        raise DivergenceError(f"non-finite state after the step from t={t}")
    return out


def sequential_rollout(
    x_T: np.ndarray,
    schedule: DiffusionSchedule,
    subsequence: TimestepSubsequence,
    predictor: NoisePredictor,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Run the chain one transition at a time; returns the full (S, D) stack.

    This is the reference path: the fixed point of h_tilde must reproduce
    it exactly, and it serves as the oracle in the equivalence tests.
    """
    return _rollout(Chain(schedule, subsequence, predictor, noise), x_T)


def _rollout(chain: Chain, x_T: np.ndarray, keep: bool = False):
    """The rollout's (S, D) stack; with ``keep``, also the predictor's vjp
    state at each position p, in slot p - 1, from the forward pass of its
    prediction, which the rollout's gradient reads.

    Each step carries y in place and writes its state straight into the
    stack row the next prediction reads.  A state is tested for finiteness
    by its squared norm and scanned only when that is not finite, which a
    huge but finite state also makes; so the predictor never sees a
    non-finite state, and the first one names its step.  The bits are
    those of the plain loop y = y + (c1 eps + noise), x = sqrt(A) y."""
    S, predictor, noise = chain.S, chain.predictor, chain.scaled_noise
    # Python floats multiply an array faster than numpy scalars do.
    sqrt_alpha, scaled_c1 = chain.sqrt_alpha.tolist(), chain.scaled_c1.tolist()
    x = np.asarray(x_T, dtype=np.float64)
    y = x / sqrt_alpha[S]
    u = np.empty_like(y)
    states = np.empty((S, x.size))
    kept = [None] * S if keep else None
    for p, t in zip(range(S, 0, -1), chain.labels[1][::-1]):
        if kept is None:
            eps = predictor.predict(x, t)
        else:
            eps, kept[p - 1] = predictor.predict_and_state(x, t)
        np.multiply(scaled_c1[p], eps, out=u)
        if noise is not None:
            u += noise[p - 1]
        y += u
        x = np.multiply(sqrt_alpha[p - 1], y, out=states[S - p])
        if not math.isfinite(x @ x) and not np.isfinite(x).all():
            raise DivergenceError(
                f"non-finite state after the step from t={chain.timesteps[p - 1]}")
    return states if kept is None else (states, kept)


def h_tilde(
    states: np.ndarray,
    x_T: np.ndarray,
    schedule: DiffusionSchedule,
    subsequence: TimestepSubsequence,
    predictor: NoisePredictor,
    noise: np.ndarray | None = None,
    pool: object | None = None,
) -> np.ndarray:
    """Simultaneous update of every stack row from the current estimate.

    All S predictor evaluations read the input stack, so they are mutually
    independent and run as one batched predictor call.  The per-position
    sums are one prefix sum in the scaled coordinates, keeping the whole
    update one predictor call and O(S D) arithmetic instead of the O(S^2)
    literal double sum.  Each call builds a fresh ``Chain``;
    ``solve_stack`` and the gradient routes take one and call the
    ``_sweep`` kernel instead.  ``pool`` is ignored (see the module docstring).
    """
    chain = Chain(schedule, subsequence, predictor, noise)
    out = _sweep(chain, *_check_stack(states, x_T, chain.S))
    if not np.isfinite(out).all():
        raise DivergenceError("non-finite stack after simultaneous update")
    return out


def _sweep(chain: Chain, states: np.ndarray, x_T: np.ndarray) -> np.ndarray:
    """``h_tilde`` on checked float64 inputs; the caller checks the output
    for finiteness (``solvers.solve`` through each residual).  The scan
    rows x_T / sqrt(A_S), u_S, .., u_1 are added strictly in order, as in
    _rollout, by one in-place ``np.add.accumulate``: the ufunc behind
    ``np.cumsum``, with its bits and without its wrapper."""
    S = chain.S
    eps_pred = chain.predictor.predict(_stack_inputs(states, x_T, S), chain.labels[0])
    scan = np.empty((S + 1, x_T.size))
    np.divide(x_T, chain.sqrt_alpha[S], out=scan[0])
    np.multiply(chain.scaled_c1[:0:-1, None], eps_pred[::-1], out=scan[1:])
    if chain.scaled_noise is not None:
        scan[1:] += chain.scaled_noise[::-1]
    np.add.accumulate(scan, axis=0, out=scan)
    return chain.sqrt_alpha[-2::-1, None] * scan[1:]


def solve_stack(
    chain: Chain,
    x_T: np.ndarray,
    cfg: SolverConfig,
    init: str | np.ndarray = "x_T",
) -> FixedPointResult:
    """Solve the joint system of ``chain`` for the whole stack below x_T.

    ``init`` is either a ready (S, D) array (e.g. a warm start) or the name
    of an init_stack rule.  ``solvers.solve``, the one fixed-point loop,
    runs the ``_sweep`` kernel under the caller's ``cfg``; every sweep reads
    the coefficients built once with the chain.
    """
    if isinstance(init, str):
        init = init_stack(x_T, chain.S, kind=init)
    init_states, x_T = _check_stack(init, x_T, chain.S)
    return solve(lambda states: _sweep(chain, states, x_T), init_states, cfg)


def h_tilde_vjp(
    states: np.ndarray,
    x_T: np.ndarray,
    schedule: DiffusionSchedule,
    subsequence: TimestepSubsequence,
    predictor: NoisePredictor,
    cotangent: np.ndarray,
    pool: object | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pull a stack cotangent back through h_tilde at (states, x_T).

    Returns (cotangent_states, cotangent_x_T).  Output position j carries
    weight sqrt(A_j) on every transition at or above it, so the pullback
    onto transition p only needs the prefix P_p = sum_{j < p} sqrt(A_j) u_j.
    One batched predictor vjp over all S timesteps gives the stack
    cotangent, and ``_x_T_step`` the x_T cotangent from P_S, as every
    gradient route takes it.  The noise enters h_tilde additively and so
    never appears in the Jacobian.  Like ``h_tilde``, each call builds a
    fresh ``Chain``.  ``pool`` is ignored (see the module docstring).
    """
    chain = Chain(schedule, subsequence, predictor)
    S = chain.S
    states, x_T = _check_stack(states, x_T, S)
    weighted = chain.sqrt_alpha[:-1, None] * _check_cotangent(cotangent, states)[::-1]
    # A running sum from zero turns a leading -0.0 into +0.0; an accumulate
    # starts from the first term itself, so add that zero explicitly.
    weighted[0] += 0.0
    prefixes = np.add.accumulate(weighted, axis=0, out=weighted)
    pulled = predictor.vjp(_stack_inputs(states, x_T, S), chain.labels[0], prefixes)
    cot_states = np.zeros_like(states)
    cot_states[: S - 1] = (chain.scaled_c1[1:S, None] * pulled[: S - 1])[::-1]
    return cot_states, _x_T_step(chain, x_T, prefixes[S - 1])


def _check_cotangent(cotangent: np.ndarray, states: np.ndarray) -> np.ndarray:
    cotangent = np.asarray(cotangent, dtype=np.float64)
    if cotangent.shape != states.shape:
        raise ShapeError(
            f"cotangent shape {cotangent.shape} does not match stack {states.shape}"
        )
    return cotangent


def _x_T_step(
    chain: Chain, x_T: np.ndarray, prefix: np.ndarray, state: list | None = None
) -> np.ndarray:
    """The x_T cotangent of the prefix P_S = sum_{j < S} sqrt(A_j) v_j:
    x_T's direct weight 1 / sqrt(A_S) plus transition S's term, from one
    one-row vjp, which reads ``state``, the vjp state at x_T, when given.
    Every gradient route ends here."""
    predictor, t = chain.predictor, chain.labels[1][-1]
    pulled = (predictor.vjp(x_T, t, prefix) if state is None
              else predictor.vjp_from(state, x_T, t, prefix))
    return prefix / chain.sqrt_alpha[-1] + chain.scaled_c1[-1] * pulled
