"""Fixed-point solvers over array-valued maps.

Both solvers treat the map as a black box g = step_map(x) over an ndarray
of any shape and record the residual ||g - x|| (flattened l2) once per
iteration, 0-indexed.  ``picard_solve`` is plain repeated substitution; on
the sampling chain its strictly triangular structure makes the S-th
iterate exact.  ``anderson_solve`` mixes the map outputs of a sliding
window of the last m iterations and typically needs far fewer evaluations
than the spectral radius of the map would suggest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DivergenceError


@dataclass
class SolverConfig:
    """How ``solve`` runs: the method, its iteration budget and residual
    tolerance, and for Anderson the window length ``history_m`` and the
    ridge weight ``ridge_lambda``, relative to the newest residual's
    squared norm."""

    method: str = "anderson"
    max_iters: int = 15
    tol: float = 1e-3
    history_m: int = 5
    ridge_lambda: float = 1e-4

    def __post_init__(self) -> None:
        if self.method not in ("anderson", "picard"):
            raise ConfigError(f"unknown solver method '{self.method}'")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ConfigError(f"tol must be finite and >= 0, got {self.tol}")
        if self.history_m < 1:
            raise ConfigError(f"history_m must be >= 1, got {self.history_m}")
        if not (math.isfinite(self.ridge_lambda) and self.ridge_lambda >= 0.0):
            raise ConfigError(f"ridge_lambda must be finite and >= 0, got {self.ridge_lambda}")


def default_solver_config(eta: float) -> SolverConfig:
    """Stock Anderson settings: 15 iterations suffice for deterministic
    chains, stochastic ones get 50."""
    return SolverConfig(max_iters=15 if eta == 0.0 else 50)


@dataclass
class FixedPointResult:
    states: np.ndarray
    residuals: list[float] = field(default_factory=list)
    iters: int = 0
    converged: bool = False
    picard_fallbacks: int = 0


StepMap = Callable[[np.ndarray], np.ndarray]


def _checked_step(step_map: StepMap, x: np.ndarray, iteration: int) -> np.ndarray:
    g = step_map(x)
    if not np.isfinite(g).all():
        raise DivergenceError(f"non-finite iterate at solver iteration {iteration}")
    return g


def picard_solve(step_map: StepMap, init: np.ndarray, cfg: SolverConfig) -> FixedPointResult:
    """Iterate x <- step_map(x) until the residual drops below cfg.tol."""
    x = np.array(init, dtype=np.float64, copy=True)
    residuals: list[float] = []
    converged = False
    for it in range(cfg.max_iters):
        g = _checked_step(step_map, x, it)
        r = float(np.linalg.norm(g - x))
        residuals.append(r)
        x = g
        if r <= cfg.tol:
            converged = True
            break
    return FixedPointResult(
        states=x, residuals=residuals, iters=len(residuals), converged=converged
    )


def _anderson_gamma(gram: np.ndarray, lam: float) -> np.ndarray | None:
    """Combination weights of a window of k residuals F (oldest first,
    newest f_last), given only its Gram matrix F F^T.  They minimize

        ||gamma @ F||^2 + lam ||f_last||^2 ||gamma||^2

    subject to sum(gamma) = 1.  Scaling the ridge by the newest squared
    residual keeps it in proportion to the fit as the residuals shrink, so
    the weights do not depend on the units of the iterate.

    The constraint is eliminated by writing the last weight as one minus
    the rest, which turns the problem into an unconstrained ridge system in
    delta = gamma[:-1]:

        (D D^T + s (I + 1 1^T)) delta = -D f_last + s 1,
        D_j = F_j - f_last,  s = lam ||f_last||^2,

    whose entries are Gram entries: with M = F F^T and l the newest row,
    (D D^T)_ij = M_ij - M_il - M_jl + M_ll and (D f_last)_i = M_il - M_ll.

    Returns None when the normal system cannot be solved, signalling the
    caller to fall back to a plain step.
    """
    k = gram.shape[0]
    if k == 1:
        return np.ones(1)
    c = gram[:-1, -1]
    d = gram[-1, -1]
    s = lam * d
    A = gram[:-1, :-1] - c - c[:, None] + (d + s)
    A.flat[::k] += s
    try:
        delta = np.linalg.solve(A, (d + s) - c)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(delta).all():
        return None
    gamma = np.empty(k)
    gamma[:-1] = delta
    gamma[-1] = 1.0 - delta.sum()
    return gamma


def _grown(ring: np.ndarray, rows: int, size: int) -> np.ndarray:
    """A ring of ``size`` mirrored slots that starts with the first ``rows``
    rows of ``ring``.  Their mirror slots are left empty: a mirror slot is
    read only after the window has wrapped, and by then it was rewritten."""
    out = np.empty((2 * size, ring.shape[1]))
    out[:rows] = ring[:rows]
    return out


def anderson_solve(step_map: StepMap, init: np.ndarray, cfg: SolverConfig) -> FixedPointResult:
    """Undamped Anderson-accelerated fixed-point iteration with ridge
    regularization.

    Keeps the residuals and map outputs of the last min(m, n) iterations
    (m = ``cfg.history_m``), solves the small ridge system for mixing
    weights gamma, and proposes

        x+ = sum_j gamma_j G_j.

    The ridge weight is ``cfg.ridge_lambda`` times the newest residual's
    squared norm (see ``_anderson_gamma``), so scaling the map's units by
    a power of two scales every iterate by it, bit for bit.  A failed
    weight solve falls back to the newest output (a plain Picard step) and
    is counted in ``picard_fallbacks``.
    """
    x = np.array(init, dtype=np.float64, copy=True)
    shape = x.shape
    # History rings of the last m (output, residual) rows.  Each row is
    # written twice, at slot and slot + size, so the newest k rows are
    # always the contiguous, oldest-first slice [start, start + k).  A long
    # window starts small and doubles as it fills, so memory follows the
    # iterations actually run.
    m = min(cfg.history_m, cfg.max_iters)
    size = min(m, 16)
    G, F = (np.empty((2 * size, x.size)) for _ in range(2))
    # The window's Gram matrix F_w F_w^T, oldest row first.  Each iteration
    # adds one row and column with a single matvec, and the block slides up
    # by one once the window is full.
    gram = np.empty((size, size))
    stored = 0
    residuals: list[float] = []
    fallbacks = 0
    converged = False
    for it in range(cfg.max_iters):
        g = _checked_step(step_map, x, it)
        f = (g - x).ravel()
        r = float(np.linalg.norm(f))
        residuals.append(r)
        if r <= cfg.tol:
            x = g
            converged = True
            break
        if stored == size < m:
            # Nothing has wrapped yet: the history is rows [0, size) in order.
            size = min(2 * size, m)
            G, F = (_grown(ring, stored, size) for ring in (G, F))
            gram, old = np.empty((size, size)), gram
            gram[:stored, :stored] = old
        slot = stored % size
        for ring, row in ((G, g.ravel()), (F, f)):
            ring[slot] = ring[slot + size] = row
        stored += 1
        k = min(stored, size)
        start = (stored - k) % size
        Gw = G[start:start + k]
        if stored > size:
            gram[:-1, :-1] = gram[1:, 1:]
        gram[k - 1, :k] = gram[:k, k - 1] = F[start:start + k] @ f
        gamma = _anderson_gamma(gram[:k, :k], cfg.ridge_lambda)
        if gamma is None:
            fallbacks += 1
            nxt = Gw[-1].copy()
        else:
            nxt = gamma @ Gw
        x = nxt.reshape(shape)
        if not np.isfinite(x).all():
            raise DivergenceError(f"non-finite extrapolation at solver iteration {it}")
    else:
        # Budget exhausted: hand back the last map output rather than the
        # unmeasured extrapolation.
        x = G[(stored - 1) % size].reshape(shape).copy()
    return FixedPointResult(
        states=x,
        residuals=residuals,
        iters=len(residuals),
        converged=converged,
        picard_fallbacks=fallbacks,
    )


def solve(step_map: StepMap, init: np.ndarray, cfg: SolverConfig) -> FixedPointResult:
    """Dispatch on cfg.method."""
    if cfg.method == "picard":
        return picard_solve(step_map, init, cfg)
    return anderson_solve(step_map, init, cfg)
