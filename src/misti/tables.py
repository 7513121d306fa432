"""Exact joint probability tables on truncated integer lattices, and the
certified loop that keeps lattice truncation out of them.

A kernel or marginal on {0..kmax} is built on a lattice {0..k}, k >= kmax,
together with a proven bound on how far its entries can be from the
untruncated ones.  For a nonnegative chain cut to a finite lattice, the mass
killed at the cut bounds the error of every entry (the finite state
projection theorem: Munsky & Khammash, J. Chem. Phys. 124, 044104, 2006),
so ``stabilize`` grows k until that bound is within the tolerance, and
never compares two lattices.

Where the law is stationary, the lattice can be proven in advance.  Row x
of a kernel cut to {0..k} misses P_x(the chain leaves {0..k} within the
gap), and since P_pi(A) >= pi_x P_x(A) for a chain started from its
stationary law pi, that is at most P_pi(leave) / pi_x.  So every Markov
spec answers ``exit_bound(gap, kmax, pi, tail)``: handed pi
on {0..top} and upper bounds ``tail`` on pi(>k) over k = kmax..top, it
returns ``(leave, divisor)``, upper bounds on P_pi(leave) and a divisor
such that leave / divisor bounds the rows up to kmax, each one number or
one per k.  Closed-form rows miss nothing and answer (0, 1); a spec also
says so first, by ``closed_form(gap)``, and such a kernel is stated at
kmax without building pi.  From the answer the first lattice whose rows
are proven within the tolerance is stated before any is built, searched no
further than ``MAX_LATTICE``, and ``stabilize`` starts there.  The build's own bound still decides, so a
stated lattice that falls short only costs the ladder that follows it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def increasing_times(times):
    """``times`` as a tuple, checked to be nonempty and strictly increasing."""
    times = tuple(times)
    if len(times) < 1:
        raise ValueError("need at least one time")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"times must be strictly increasing, got {times}")
    return times


def table_times(times, kmax):
    """``increasing_times(times)`` for a joint table on {0..kmax}.  A table of
    more than ``MAX_ENTRIES`` entries, or a lattice bound past
    ``MAX_LATTICE`` (whose dense kernel or Toeplitz block would be), raises
    before anything is built."""
    times = increasing_times(times)
    if kmax > MAX_LATTICE:
        raise ValueError(f"lattice bound {kmax} passes {MAX_LATTICE}: its dense block passes the cap of {MAX_ENTRIES} entries")
    if (kmax + 1) ** len(times) > MAX_ENTRIES:
        raise ValueError(f"a table of {len(times)} times on {{0..{kmax}}} passes the cap of {MAX_ENTRIES} entries")
    return times


@dataclass(frozen=True, eq=False)
class JointPMF:
    """Joint law of a process at finitely many times, restricted to {0..k}^n.

    Entries are exact probabilities of the lattice points (never
    renormalized), so a negative or non-finite entry raises; ``leaked`` is
    the mass of the complement, so that ``table.sum() + leaked == 1`` up to
    float rounding.
    """

    times: tuple
    k: int
    table: np.ndarray
    leaked: float = field(init=False)

    def __post_init__(self):
        times = increasing_times(self.times)
        shape = (self.k + 1,) * len(times)
        table = np.asarray(self.table, dtype=float)
        if table.shape != shape:
            raise ValueError(f"table must have shape {shape}, got {table.shape}")
        if not np.isfinite(table).all():
            raise ValueError("non-finite table entry")
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

    def reorder(self, perm):
        """Table with time axes permuted (e.g. reversed for reflection checks)."""
        return np.transpose(self.table, perm)


# the proven entrywise error of every certified kernel and evolved marginal
CERTIFIED_TOL = 1e-13
# the largest dense lattice block the certified loop may allocate, and the
# largest joint table: 2**23 float64 entries are 64 MB, so lattices stop
# below 2896 states.  A block's build holds a few such arrays at once (the
# Toeplitz block of a random-measure cell also holds its int64 index
# arrays): the largest tables peak at about 295 MB RSS, 2 times at k = 2895
# for the NB random measure or for NB thinning, and 195 MB for the NB random
# measure at 3 times and k = 202
MAX_ENTRIES = 2**23
# the largest lattice bound whose dense block stays within MAX_ENTRIES
MAX_LATTICE = math.isqrt(MAX_ENTRIES) - 1


def tail_sums(terms, past):
    """tail[k] = terms[k + 1] + ... + terms[-1] + past for each k: the mass past
    k of a pmf whose mass past the array is at most ``past``, summed from the
    terms, smallest first (one minus a partial sum would stop near 1e-16)."""
    return np.append(np.cumsum(terms[:0:-1])[::-1], 0.0) + past


def stabilize(build, kmax, tol, start=None):
    """The block of the first lattice whose proven error bound is within tol.

    ``build(k)`` returns ``(block, bound)``: a block cut to {0..kmax} from a
    build on the lattice {0..k}, and a bound on the error of its entries that
    holds whatever lies past k.  Lattices are k = start (kmax by default),
    then kmax plus a buffer of max(8, kmax // 2) that doubles, so a block that
    needs no buffer, or one whose start was proven in advance, costs one
    build.  A lattice whose dense k x k block would pass ``MAX_ENTRIES`` is
    never built: the loop raises first.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    buffer = 0 if start is None else start - kmax
    while True:
        block, bound = build(kmax + buffer)
        if bound <= tol:
            return block
        last, buffer = kmax + buffer, max(8, kmax // 2, 2 * buffer)
        if (kmax + buffer + 1) ** 2 > MAX_ENTRIES:
            raise RuntimeError(
                f"truncation bound failed to converge for kmax={kmax}: at lattice bound "
                f"{last} the error bound is still {bound:.3g} (tolerance {tol:.3g}), and the "
                f"next lattice would pass the cap of {MAX_ENTRIES} dense entries"
            )
