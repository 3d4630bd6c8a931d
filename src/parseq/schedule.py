"""Variance schedules, timestep subsequences, and per-transition coefficients.

Conventions used throughout the package:

* Natural timesteps run t = 1..T and map to array index t - 1.  The
  virtual index t = 0 sits below the last transition and carries
  signal product 1, so the final step lands on a fully denoised state.
* ``alpha_by_t[t]``, derived once per schedule and read-only, is the one
  table of running products of (1 - beta_s) for s <= t, t = 0 included;
  ``alpha_bar(t)`` reads one entry, range-checked.
* A transition from t to its predecessor t_prev mixes the current state,
  the predicted noise, and an optional fresh draw:

      sigma(t) = eta * sqrt((1 - a_prev) / (1 - a_t)) * sqrt(1 - a_t / a_prev)
      c1(t)    = sqrt(1 - a_prev - sigma(t)^2) - sqrt(a_prev * (1 - a_t) / a_t)

  with a_t = alpha_bar(t) and a_prev = alpha_bar(t_prev).  eta = 0 gives
  the deterministic chain (sigma identically +0.0); eta = 1 recovers the
  ancestral sampler's noise level.  ``sigma_for_pair`` and ``c1_for_pair``
  take one pair of floats or equal-shape arrays of pairs, so a whole
  chain's coefficients are one call each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericDomainError, is_integer, require_integer

#: Signal product assigned to the virtual timestep t = 0.
ALPHA_BAR_ZERO = 1.0

# Tolerance for rounding noise in the c1 radicand; for eta <= 1 the exact
# value is provably >= 0, so only a tiny negative from cancellation is
# forgiven here.  A genuinely negative radicand (eta > 1) still raises.
_RADICAND_SLACK = 1e-12

#: -ln of the smallest positive float64, 5e-324: a signal product whose
#: betas sum past it lies below every positive float64.
_LN_SMALLEST_SUBNORMAL = -math.log(5e-324)

#: The longest float64 array numpy can describe, its byte count being an
#: intp; no array of a greater length can be built at all.
MAX_FLOAT64_LENGTH = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def sigma_for_pair(alpha_bar_prev: float | np.ndarray, alpha_bar_t: float | np.ndarray,
                   eta: float) -> float | np.ndarray:
    """Per-transition noise scale for adjacent pairs of signal products."""
    return (
        eta
        * np.sqrt((1.0 - alpha_bar_prev) / (1.0 - alpha_bar_t))
        * np.sqrt(1.0 - alpha_bar_t / alpha_bar_prev)
    )


def c1_for_pair(alpha_bar_prev: float | np.ndarray, alpha_bar_t: float | np.ndarray,
                eta: float) -> float | np.ndarray:
    """Coefficient multiplying the predicted noise in each transition."""
    s = sigma_for_pair(alpha_bar_prev, alpha_bar_t, eta)
    radicand = 1.0 - alpha_bar_prev - s * s
    if np.any(radicand < -_RADICAND_SLACK):
        i = np.argmax(np.ravel(radicand) < -_RADICAND_SLACK)  # the first bad pair
        raise NumericDomainError(
            f"negative radicand {np.ravel(radicand)[i]:.6g} in c1 (alpha_bar_prev="
            f"{np.ravel(alpha_bar_prev)[i]:.6g}, eta={eta:.6g}); eta > 1 exceeds the "
            "admissible noise level"
        )
    return np.sqrt(np.maximum(radicand, 0.0)) - np.sqrt(
        alpha_bar_prev * (1.0 - alpha_bar_t) / alpha_bar_t
    )


@dataclass(frozen=True, eq=False)
class DiffusionSchedule:
    """Immutable variance schedule plus the run's noise scale eta.

    Only ``betas`` and ``eta`` are inputs.  ``alpha_by_t`` (see above) is
    derived from the betas once, read-only.
    Schedules compare and hash by identity: the generated field-wise
    ``==`` would compare arrays and raise."""

    betas: np.ndarray
    eta: float = 0.0
    alpha_by_t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size == 0:
            raise ConfigError("betas must be a non-empty 1-d array")
        if np.any(betas <= 0.0) or np.any(betas >= 1.0):
            raise ConfigError("every beta must lie in (0, 1)")
        alpha_by_t = np.concatenate([[ALPHA_BAR_ZERO], np.cumprod(1.0 - betas)])
        products = alpha_by_t[1:]
        if np.any(products <= 0.0) or np.any(products >= 1.0):
            raise ConfigError("every alpha_bar must lie in (0, 1)")
        stalls = np.flatnonzero(np.diff(products) >= 0.0)
        if stalls.size:
            # A product stalls wherever rounding swallows its step: a beta
            # near or below 1e-16 (so 1 - beta rounds to 1), or a product
            # that has underflowed to the subnormals.
            t = int(stalls[0]) + 2
            underflow = products[t - 2] < np.finfo(np.float64).tiny
            raise ConfigError(
                f"alpha_bar(t) must be strictly decreasing, but alpha_bar({t}) does not "
                f"fall below alpha_bar({t - 1})"
                + ("; the signal product underflows float64" if underflow else "")
            )
        if not (np.isfinite(self.eta) and self.eta >= 0.0):
            raise ConfigError(f"eta must be finite and >= 0, got {self.eta}")
        for name, arr in dict(betas=betas, alpha_by_t=alpha_by_t).items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def T(self) -> int:
        return int(self.betas.size)

    def alpha_bar(self, t: int) -> float:
        """Signal product at timestep t; t = 0 returns the boundary value 1."""
        if not 0 <= t <= self.T:
            raise IndexError(f"timestep {t} outside [0, {self.T}]")
        return float(self.alpha_by_t[t])


def make_linear_beta_schedule(
    T: int,
    beta_start: float = 1e-4,
    beta_end: float = 0.02,
    eta: float = 0.0,
) -> DiffusionSchedule:
    """Build a schedule whose betas interpolate linearly, endpoints included."""
    require_integer("T", T)
    if T < 1:
        raise ConfigError(f"T must be >= 1, got {T}")
    if not 0.0 < beta_start <= beta_end:
        raise ConfigError(
            f"need 0 < beta_start <= beta_end, got beta_start={beta_start}, "
            f"beta_end={beta_end}"
        )
    if beta_end >= 1.0:
        raise ConfigError(f"beta_end must be < 1, got {beta_end}")
    if T > MAX_FLOAT64_LENGTH:
        raise ConfigError(f"T={T} is too large for a float64 array")
    # -ln(1 - beta) >= beta, so alpha_bar(T) <= exp(-sum of the betas): past
    # this bound the product underflows float64 for certain, and the
    # schedule is refused before any array of length T is built.
    beta_sum = T * (beta_start + beta_end) / 2.0
    if beta_sum > _LN_SMALLEST_SUBNORMAL:
        raise ConfigError(
            f"the {T} betas from {beta_start} to {beta_end} sum to {beta_sum:.6g}, past "
            f"-ln(5e-324) = {_LN_SMALLEST_SUBNORMAL:.6g}; the signal product underflows float64"
        )
    return DiffusionSchedule(np.linspace(beta_start, beta_end, T), float(eta))


@dataclass(frozen=True)
class TimestepSubsequence:
    """Strictly increasing selection of natural timesteps ending at <= T.

    Only the indices are kept: ``S`` is their count, which the quadratic
    rule of select_subsequence may leave below the length it was asked for.
    """

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.indices) == 0:
            raise ConfigError("subsequence must select at least one timestep")
        if not all(map(is_integer, self.indices)):
            raise ConfigError(f"subsequence indices must be integers, got {self.indices!r}")
        if self.indices[0] < 1:
            raise ConfigError("subsequence indices must be >= 1")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ConfigError("subsequence indices must be strictly increasing")

    @property
    def S(self) -> int:
        return len(self.indices)


def select_subsequence(T: int, S: int, kind: str = "linear") -> TimestepSubsequence:
    """Pick S timesteps out of 1..T.

    ``linear`` spaces them evenly: tau_i = floor(T * i / S).  ``quadratic``
    concentrates steps near t = 0: tau_i = max(1, floor(T * i^2 / S^2)).
    Duplicates produced by the quadratic rule at small i are dropped, so the
    result may be shorter than S.
    """
    require_integer("T", T)
    require_integer("S", S)
    if not 1 <= S <= T:
        raise ConfigError(f"need 1 <= S <= T, got S={S}, T={T}")
    if kind == "linear":
        raw = [(T * i) // S for i in range(1, S + 1)]
    elif kind == "quadratic":
        raw = [max(1, (T * i * i) // (S * S)) for i in range(1, S + 1)]
    else:
        raise ConfigError(f"unknown subsequence kind '{kind}'")
    return TimestepSubsequence(indices=tuple(dict.fromkeys(raw)))  # raw never decreases


def identity_subsequence(T: int) -> TimestepSubsequence:
    """The full chain 1..T as a subsequence."""
    require_integer("T", T)
    return TimestepSubsequence(indices=tuple(range(1, T + 1)))
