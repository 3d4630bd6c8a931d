"""Deterministic per-purpose random streams, and the seeded draws of a run.

A single top-level seed expands into independent generators keyed by a
purpose label.  Each consumer owns its stream, so adding a new draw site
(or skipping one, e.g. the noise stack at eta = 0) never shifts the
values seen by the others.  ``draw_x_T`` and ``draw_noise_stack`` are the
draws of the ``"x_T"`` and ``"noise_stack"`` streams.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, require_integer

# Registry of stream labels. New purposes are appended and retired ones
# leave a gap, never a renumbering, so existing streams stay stable.
_PURPOSES = {
    "x_T": 0,
    "noise_stack": 1,
    "target": 4,
    "scratch": 5,
}


def stream(seed: int, purpose: str) -> np.random.Generator:
    """Return the generator for (seed, purpose).

    The pair is fed to a SeedSequence, so streams for distinct purposes
    are statistically independent and reproducible.  A seed that is not
    an integer, or is negative, is a configuration error.
    """
    require_integer("seed", seed)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if purpose not in _PURPOSES:
        raise ConfigError(f"unknown rng purpose '{purpose}'; known: {sorted(_PURPOSES)}")
    # The third entropy word stays 0, so every stream keeps the bits that
    # recorded outputs were drawn from.
    ss = np.random.SeedSequence([int(seed), _PURPOSES[purpose], 0])
    return np.random.default_rng(ss)


def draw_x_T(seed: int, dim: int) -> np.ndarray:
    """Standard normal terminal state from the x_T stream."""
    require_integer("dim", dim)
    if dim < 0:
        raise ConfigError(f"dim must be >= 0, got {dim}")
    return stream(seed, "x_T").standard_normal(dim)


def draw_noise_stack(seed: int, S: int, dim: int) -> np.ndarray:
    """Per-transition standard normal draws from the noise stream."""
    require_integer("S", S)
    if S < 0:
        raise ConfigError(f"S must be >= 0, got {S}")
    require_integer("dim", dim)
    if dim < 0:
        raise ConfigError(f"dim must be >= 0, got {dim}")
    return stream(seed, "noise_stack").standard_normal((S, dim))
