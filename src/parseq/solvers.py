"""Fixed-point solvers over array-valued maps.

``solve`` is the one fixed-point loop.  It treats the map as a black box
g = step_map(x) over an ndarray of any shape and records the residual
||g - x|| (flattened l2) once per iteration, 0-indexed.  With
``method="picard"`` each map output is the next iterate; on the sampling
chain the map's strictly triangular structure makes the S-th iterate
exact.  With ``method="anderson"`` the next iterate mixes the map outputs
of a sliding window of the last ``HISTORY_M`` iterations, which typically
needs far fewer evaluations than the spectral radius of the map would
suggest.  Either way the returned states are the last map output.

The default budgets live here and nowhere else: ``default_solver_config``
gives Anderson's by eta and ``picard_budget`` Picard's by chain length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DivergenceError

#: Anderson's window: the map outputs of at most this many iterations mix.
HISTORY_M = 5
#: Anderson's ridge weight, relative to the newest residual's squared norm.
RIDGE_LAMBDA = 1e-4


@dataclass
class SolverConfig:
    """How ``solve`` runs: the method, its iteration budget and residual
    tolerance."""

    method: str = "anderson"
    max_iters: int = 15
    tol: float = 1e-3

    def __post_init__(self) -> None:
        if self.method not in ("anderson", "picard"):
            raise ConfigError(f"unknown solver method '{self.method}'")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ConfigError(f"tol must be finite and >= 0, got {self.tol}")


def default_solver_config(eta: float) -> SolverConfig:
    """Stock Anderson settings: 15 iterations suffice for deterministic
    chains, stochastic ones get 50."""
    return SolverConfig(max_iters=15 if eta == 0.0 else 50)


def picard_budget(S: int) -> int:
    """Default sweep budget of a Picard solve over S positions.  The strictly
    triangular map makes the S-th sweep exact and the next one confirms it
    with a zero residual, so a solve with this budget cannot stop short of
    its tolerance."""
    return S + 1


@dataclass
class FixedPointResult:
    states: np.ndarray
    residuals: list[float] = field(default_factory=list)
    iters: int = 0
    converged: bool = False
    picard_fallbacks: int = 0


StepMap = Callable[[np.ndarray], np.ndarray]


def _residual_norm(f: np.ndarray) -> float:
    """The l2 norm of a 1-d residual vector, sqrt(f @ f): the dot product
    and square root ``np.linalg.norm`` takes, so the same bits without its
    dispatch.  Where the sum of squares overflows, the norm is taken again
    of f scaled by its largest entry, so a finite f has a finite residual
    unless the norm itself exceeds the float range."""
    r = math.sqrt(f @ f)
    if r == math.inf:
        scale = float(np.abs(f).max())
        if scale < math.inf:
            f = f / scale
            r = scale * math.sqrt(f @ f)
    return r


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
    d = float(gram[-1, -1])
    s = lam * d
    # Built in place, in the order (M - c) - c^T + (d + s), then the diagonal.
    A = np.subtract(gram[:-1, :-1], c)
    A -= c[:, None]
    A += d + s
    A.flat[::k] += s
    try:
        delta = np.linalg.solve(A, (d + s) - c)
    except np.linalg.LinAlgError:
        return None
    total = delta.sum()
    # A finite sum has finite terms; only a non-finite one needs the scan.
    if not math.isfinite(total) and not np.isfinite(delta).all():
        return None
    gamma = np.empty(k)
    gamma[:-1] = delta
    gamma[-1] = 1.0 - total
    return gamma


def solve(step_map: StepMap, init: np.ndarray, cfg: SolverConfig) -> FixedPointResult:
    """Iterate toward a fixed point of step_map until the residual drops to
    cfg.tol or cfg.max_iters map evaluations are spent.

    Picard takes each map output as the next iterate.  Anderson, undamped
    and ridge-regularized, keeps the residuals and map outputs of the last
    min(``HISTORY_M``, n) iterations, solves the small ridge system for
    mixing weights gamma, and proposes

        x+ = sum_j gamma_j G_j.

    The ridge weight is ``RIDGE_LAMBDA`` times the newest residual's
    squared norm (see ``_anderson_gamma``), so scaling the map's units by
    a power of two scales every iterate by it, bit for bit.  A failed
    weight solve falls back to the newest output (a plain Picard step) and
    is counted in ``picard_fallbacks``.  Both methods return the last map
    output, also when the budget runs out: never an unmeasured
    extrapolation, so Anderson makes no weight solve and no mix on the
    budget's last iteration.

    Finiteness is checked where it costs nothing extra: a map output is
    scanned only when its residual is not finite, and a mix only when its
    squared norm is not, so a finite iterate whose squares overflow is
    still accepted.  A non-finite map output raises at the iteration that
    made it, a non-finite mix at the iteration that mixed it, with the
    bits and iteration numbers of a full scan of each.
    """
    x = np.array(init, dtype=np.float64, copy=True)
    anderson = cfg.method == "anderson"
    if anderson:
        # History rings of the last m (output, residual) rows.  Each row is
        # written twice, at slot and slot + m, so the newest k rows are
        # always the contiguous, oldest-first slice [start, start + k).
        m = min(HISTORY_M, cfg.max_iters)
        G, F = (np.empty((2 * m, x.size)) for _ in range(2))
        # The window's Gram matrix F_w F_w^T, oldest row first.  Each
        # iteration adds one row and column with a single matvec, and the
        # block slides up by one once the window is full.
        gram = np.empty((m, m))
    residuals: list[float] = []
    fallbacks = 0
    converged = False
    last = cfg.max_iters - 1
    for it in range(cfg.max_iters):
        g = step_map(x)
        f = (g - x).ravel()
        r = _residual_norm(f)
        # A non-finite g makes a non-finite residual; only then is g scanned.
        if not math.isfinite(r) and not np.isfinite(g).all():
            raise DivergenceError(f"non-finite iterate at solver iteration {it}")
        residuals.append(r)
        if r <= cfg.tol:
            converged = True
            break
        x = g
        if not anderson or it == last:
            # The budget's last output is returned as it is; nothing mixes it.
            continue
        slot = it % m
        for ring, row in ((G, g.ravel()), (F, f)):
            ring[slot] = ring[slot + m] = row
        k = min(it + 1, m)
        start = (it + 1 - k) % m
        if it >= m:
            gram[:-1, :-1] = gram[1:, 1:]
        gram[k - 1, :k] = gram[:k, k - 1] = F[start:start + k] @ f
        gamma = _anderson_gamma(gram[:k, :k], RIDGE_LAMBDA)
        if gamma is None:
            fallbacks += 1
        else:
            mixed = gamma @ G[start:start + k]
            if not math.isfinite(mixed @ mixed) and not np.isfinite(mixed).all():
                raise DivergenceError(f"non-finite extrapolation at solver iteration {it}")
            x = mixed.reshape(g.shape)
    return FixedPointResult(
        states=g,
        residuals=residuals,
        iters=len(residuals),
        converged=converged,
        picard_fallbacks=fallbacks,
    )
