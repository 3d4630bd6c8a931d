"""Run-level drivers wiring schedule, predictor, noise, and solver together."""

from __future__ import annotations

import numpy as np

from . import rng
from .chain import _check_noise, _check_stack, _sweep, chain_coefficients, init_stack
from .predictors import NoisePredictor
from .schedule import DiffusionSchedule, TimestepSubsequence
from .solvers import FixedPointResult, SolverConfig, default_solver_config, solve


def draw_x_T(seed: int, dim: int, counter: int = 0) -> np.ndarray:
    """Standard normal terminal state from the x_T stream."""
    return rng.stream(seed, "x_T", counter).standard_normal(dim)


def draw_noise_stack(seed: int, S: int, dim: int, counter: int = 0) -> np.ndarray:
    """Per-transition standard normal draws from the noise stream."""
    return rng.stream(seed, "noise_stack", counter).standard_normal((S, dim))


def solve_stack(
    x_T: np.ndarray,
    schedule: DiffusionSchedule,
    subsequence: TimestepSubsequence | None,
    predictor: NoisePredictor,
    noise: np.ndarray | None = None,
    cfg: SolverConfig | None = None,
    init: str | np.ndarray = "x_T",
) -> FixedPointResult:
    """Solve the joint system for the whole stack below x_T.

    ``init`` is either a ready (S, D) array (e.g. a warm start) or the name
    of an init_stack rule.  The chain coefficients are built once here and
    shared by every sweep of the solve.
    """
    coeffs = chain_coefficients(schedule, subsequence)
    if cfg is None:
        cfg = default_solver_config(schedule.eta)
    if isinstance(init, str):
        init = init_stack(x_T, coeffs.S, kind=init)
    init_states, x_T = _check_stack(init, x_T, coeffs.S)
    noise = _check_noise(noise, coeffs.S, x_T.size)

    def step_map(states: np.ndarray) -> np.ndarray:
        return _sweep(coeffs, states, x_T, predictor, noise)

    return solve(step_map, init_states, cfg)
