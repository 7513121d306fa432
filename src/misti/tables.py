"""Exact joint probability tables on truncated integer lattices, and the
buffer-growing loop that keeps lattice truncation out of them."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class JointPMF:
    """Joint law of a process at finitely many times, restricted to {0..k}^n.

    Entries are exact probabilities of the lattice points (never
    renormalized); ``leaked`` is the mass of the complement, so that
    ``table.sum() + leaked == 1`` up to float rounding.
    """

    times: tuple
    k: int
    table: np.ndarray
    leaked: float = field(init=False)

    def __post_init__(self):
        times = tuple(self.times)
        if len(times) < 1:
            raise ValueError("need at least one time")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"times must be strictly increasing, got {times}")
        shape = (self.k + 1,) * len(times)
        table = np.asarray(self.table, dtype=float)
        if table.shape != shape:
            raise ValueError(f"table must have shape {shape}, got {table.shape}")
        if table.min() < -1e-12:
            raise ValueError(f"negative table entry {table.min()}")
        table = np.maximum(table, 0.0)
        table.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "leaked", float(1.0 - table.sum()))

    @property
    def ntimes(self):
        return len(self.times)

    def marginal(self, axis):
        """Exact one-time marginal on {0..k} (still missing ``leaked``-ish tail)."""
        other = tuple(i for i in range(self.ntimes) if i != axis)
        return self.table.sum(axis=other) if other else self.table.copy()

    def reorder(self, perm):
        """Table with time axes permuted (e.g. reversed for reflection checks)."""
        return np.transpose(self.table, perm)


def stabilize(build, kmax, block_tol):
    """build(k) cut to {0..kmax}, with k = kmax + buffer and the buffer doubled until
    the result stops moving, so boundary truncation cannot pass for a property of the law."""
    buffer, block = max(8, kmax // 2), None
    while True:
        big = build(kmax + buffer)
        if block is not None and np.max(np.abs(big - block)) <= block_tol:
            return big
        if buffer > 4096:
            raise RuntimeError("state-space buffer failed to converge")
        block, buffer = big, buffer * 2
