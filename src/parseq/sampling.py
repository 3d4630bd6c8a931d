"""Run-level drivers: the terminal and noise draws, and the stack solve of a chain.

``solve_stack`` hands a chain's sweep to ``solvers.solve``, the one
fixed-point loop, under the ``SolverConfig`` its caller passes; the default
budgets come from ``solvers`` (``default_solver_config``, ``picard_budget``).
"""

from __future__ import annotations

import numpy as np

from . import rng
from .chain import Chain, _check_stack, _sweep, init_stack
from .solvers import FixedPointResult, SolverConfig, solve


def draw_x_T(seed: int, dim: int) -> np.ndarray:
    """Standard normal terminal state from the x_T stream."""
    return rng.stream(seed, "x_T").standard_normal(dim)


def draw_noise_stack(seed: int, S: int, dim: int) -> np.ndarray:
    """Per-transition standard normal draws from the noise stream."""
    return rng.stream(seed, "noise_stack").standard_normal((S, dim))


def solve_stack(
    chain: Chain,
    x_T: np.ndarray,
    cfg: SolverConfig,
    init: str | np.ndarray = "x_T",
) -> FixedPointResult:
    """Solve the joint system of ``chain`` for the whole stack below x_T.

    ``init`` is either a ready (S, D) array (e.g. a warm start) or the name
    of an init_stack rule.  Every sweep of the solve reads the chain's
    coefficients, built once with the chain.
    """
    if isinstance(init, str):
        init = init_stack(x_T, chain.S, kind=init)
    init_states, x_T = _check_stack(init, x_T, chain.S)
    return solve(lambda states: _sweep(chain, states, x_T), init_states, cfg)
