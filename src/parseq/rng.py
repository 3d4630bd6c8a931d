"""Deterministic per-purpose random streams.

A single top-level seed expands into independent generators keyed by a
purpose label and an optional counter.  Each consumer owns its stream, so
adding a new draw site (or skipping one, e.g. the noise stack at eta = 0)
never shifts the values seen by the others.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Registry of stream labels. New purposes are appended and retired ones
# leave a gap, never a renumbering, so existing streams stay stable.
_PURPOSES = {
    "x_T": 0,
    "noise_stack": 1,
    "target": 4,
    "scratch": 5,
}


def stream(seed: int, purpose: str, counter: int = 0) -> np.random.Generator:
    """Return the generator for (seed, purpose, counter).

    The triple is fed to a SeedSequence, so streams for distinct purposes
    or counters are statistically independent and reproducible.  A
    negative seed is a configuration error.
    """
    if int(seed) < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if purpose not in _PURPOSES:
        raise ConfigError(f"unknown rng purpose '{purpose}'; known: {sorted(_PURPOSES)}")
    ss = np.random.SeedSequence([int(seed), _PURPOSES[purpose], int(counter)])
    return np.random.default_rng(ss)
