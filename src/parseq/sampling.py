"""Run-level drivers wiring schedule, predictor, noise, and solver together."""

from __future__ import annotations

import numpy as np

from . import rng
from .chain import h_tilde, init_stack
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
    of an init_stack rule.
    """
    S = subsequence.S if subsequence is not None else schedule.T
    if cfg is None:
        cfg = default_solver_config(schedule.eta)
    if isinstance(init, str):
        init_states = init_stack(x_T, S, kind=init)
    else:
        init_states = np.asarray(init, dtype=np.float64)

    def step_map(states: np.ndarray) -> np.ndarray:
        return h_tilde(states, x_T, schedule, subsequence, predictor, noise)

    return solve(step_map, init_states, cfg)
