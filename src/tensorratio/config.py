"""Shared configuration records for iterative solvers and searches."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class IterConfig:
    """Settings for iterative maximizers (power iteration, alternating sweeps).

    starts: number of random starting points on top of the deterministic ones.
    max_iters: per-start iteration cap; exceeding it flags non-convergence.
    tol: stopping threshold on the iterate displacement / objective change.
    seed: master seed; per-start streams are derived deterministically.
    """

    starts: int = 16
    max_iters: int = 10_000
    tol: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.starts < 0:
            raise ValueError(f"starts must be >= 0, got {self.starts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")


@dataclass(frozen=True)
class SearchConfig:
    """Settings for multistart searches and sampling scans."""

    starts: int = 64
    budget: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError(f"starts must be >= 1, got {self.starts}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
