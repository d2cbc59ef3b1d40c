"""Finite sections of measure-induced Cesaro operators and their norms.

A positive measure mu on [0, 1) with moments mu_n acts on coefficient
vectors by (a_n) -> (mu_n * (a_0 + ... + a_n)).  Conjugating by the
diagonal maps that carry the alpha- and beta-weighted sequence spaces onto
plain l2 turns the operator norm into the largest singular value of the
lower-triangular matrix

    A[n, k] = (n+1)^((1-beta)/2) * mu_n * (k+1)^(-(1-alpha)/2),   k <= n.

The norm comes from power iteration on A^T A with both matrix-vector
products applied matrix-free through prefix sums, so no N x N array is
ever formed, and each call iterates in three arrays of length N allocated
once.  It runs on the row weights divided by the power of two that brings
their maximum into [1, 2); that is exact, and keeps tails near 1e-154 from
underflowing and masses near 1e300 from overflowing.  Iteration stops at
the requested tolerance (TOL by default) or after MAX_ITER steps.  A norm
profile reads prefixes of its largest section's moments and weights, and
starts each size from the previous size's final iterate, since nested
sections have nearly the same top singular vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .measures import Measure, moment_sequence
from .spaces import CoeffVec, SpaceIndex, require_index

__all__ = [
    "SectionOp",
    "OpNormEstimate",
    "apply",
    "tail_section",
    "section_norm",
    "norm_growth_profile",
    "MAX_ITER",
    "TOL",
]

# Power-iteration steps before section_norm stops and reports its residual.
MAX_ITER = 20000

# Default stopping gap between successive power-iteration estimates.
TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SectionOp:
    """Size-N section of the operator, zero on output rows below first_row.

    A full section has first_row == 0; the tail operator that remains
    after truncating at row m starts at row m + 1 (see tail_section).
    alpha and beta must lie in (0, 2), the range of the characterizations.

    `moments` holds mu_0, ..., mu_{size-1} and `weights` the pair
    (w_in, w_row) of column weights (k+1)^(-(1-alpha)/2) and row weights
    (n+1)^((1-beta)/2) mu_n, inf past the double range; each left out is
    computed here.  A caller holding either at some N >= size may pass it;
    the section keeps read-only views of the first `size` entries, so
    nested sections and the tail sections made through dataclasses.replace
    share one set of arrays.
    """

    measure: Measure
    alpha: SpaceIndex
    beta: SpaceIndex
    size: int
    first_row: int = 0
    moments: np.ndarray | None = field(default=None, repr=False, compare=False)
    weights: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        require_index(self.alpha.alpha, "alpha")
        require_index(self.beta.alpha, "beta")
        if self.size < 1:
            raise ValueError("section size must be positive")
        if not 0 <= self.first_row <= self.size:
            raise ValueError(
                f"first row {self.first_row} out of range [0, {self.size}]"
            )
        moments = self.moments
        if moments is None:
            moments = moment_sequence(self.measure, self.size)
        moments = _prefix(moments, self.size, "moments")
        if self.weights is None:
            idx = np.arange(1, self.size + 1, dtype=float)
            w_in = idx ** (-(1.0 - self.alpha.alpha) / 2.0)
            with np.errstate(over="ignore"):
                w_row = idx ** ((1.0 - self.beta.alpha) / 2.0) * moments
        else:
            w_in, w_row = self.weights
        weights = (_prefix(w_in, self.size, "w_in"), _prefix(w_row, self.size, "w_row"))
        object.__setattr__(self, "moments", moments)
        object.__setattr__(self, "weights", weights)


def _prefix(values, size: int, name: str) -> np.ndarray:
    """Read-only view of the first size entries of a 1-d float array."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < size:
        raise ValueError(f"{name} must be 1-d with at least {size} entries")
    view = values[:size]
    view.setflags(write=False)
    return view


@dataclass(frozen=True)
class OpNormEstimate:
    """Largest-singular-value estimate with its convergence record.

    `value` is a lower bound on the section norm (Rayleigh quotients of
    A^T A underestimate).  `iterations` counts the steps taken from the
    start vector, so a warm start that is already close counts few.
    `residual` is the last gap between successive estimates; it exceeds the
    requested tolerance only when iteration stopped at MAX_ITER.  Only an
    all-zero section skips the iteration, with 0 iterations and residual
    0.0.  `vector` is the read-only unit iterate whose image gave `value`
    (the start vector itself when nothing was iterated); it can start the
    next larger nested section.  `method` names the route in output.
    """

    value: float
    iterations: int
    residual: float
    vector: np.ndarray | None = field(default=None, repr=False, compare=False)
    method: ClassVar[str] = "power_iteration"

    def __post_init__(self) -> None:
        if self.value < 0 or self.residual < 0:
            raise ValueError("estimate and residual must be nonnegative")
        if self.vector is not None:
            self.vector.setflags(write=False)


def apply(op: SectionOp, f: CoeffVec) -> CoeffVec:
    """Image of f under the section: out_n = mu_n * (a_0 + ... + a_n).

    Computed with one running prefix sum, in the same left-to-right
    addition order as the literal double loop, so the two agree bitwise.
    Output has length op.size with zeros below op.first_row.
    """
    a = f.coeffs
    if a.size > op.size:
        raise ValueError(f"input length {a.size} exceeds section size {op.size}")
    padded = np.zeros(op.size)
    padded[: a.size] = a
    out = op.moments * np.cumsum(padded)
    out[: op.first_row] = 0.0
    return CoeffVec(out)


def tail_section(op: SectionOp, m: int) -> SectionOp:
    """Complementary rows above m: the operator minus its truncation at m."""
    if not 0 <= m < op.size:
        raise ValueError(f"truncation row {m} out of range [0, {op.size})")
    return replace(op, first_row=max(op.first_row, m + 1))


def _start_vector(start, size: int) -> np.ndarray:
    """Unit copy of start, extended to size by repeating its last entry."""
    start = np.asarray(start, dtype=float)
    if start.ndim != 1 or not 1 <= start.size <= size:
        raise ValueError(
            f"start must be a 1-d array of 1 to {size} entries, got shape {start.shape}"
        )
    if not (np.all(np.isfinite(start)) and np.all(start >= 0.0) and start[0] > 0.0):
        raise ValueError("start must be finite and nonnegative with start[0] > 0")
    v = np.empty(size)
    v[: start.size] = start
    v[start.size :] = start[-1]
    # Rescaling first keeps the squares of tiny or huge entries in range.
    np.divide(v, np.max(v), out=v)
    np.divide(v, math.sqrt(float(np.sum(v * v))), out=v)
    return v


def section_norm(op: SectionOp, tol: float = TOL, start=(1.0,)) -> OpNormEstimate:
    """Largest singular value of the conjugated section matrix.

    Power iteration on A^T A starts from `start`, by default the all-ones
    vector, and stops when successive Rayleigh estimates differ by less
    than tol in the caller's units.  It reads the section's column weights
    in place and copies its row weights once, zero below first_row and in
    the power-of-two frame; each estimate is scaled back exactly.  A start
    shorter than the section is extended by repeating its last entry, then
    normalized; it must be nonnegative with a positive first entry, which
    keeps its overlap with the top singular vector positive.  Every entry
    of A is nonnegative, so A^T A is entrywise positive on the columns up
    to the last nonzero row and zero beyond them; by Perron-Frobenius the
    top right singular vector is positive on those columns, the first among
    them.  The final iterate of a smaller nested section is such a start.
    From the default start the result is bit for bit that of the plain
    allocating loop sketched below.
    Non-convergence within MAX_ITER steps is reported through
    residual > tol; a norm past the double range raises.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    v = _start_vector(start, op.size)

    w_in, w_row = op.weights
    peak = float(np.max(w_row[op.first_row :], initial=0.0))
    if peak == 0.0:
        return OpNormEstimate(0.0, 0, 0.0, v)
    too_big = f"size-{op.size} section norm exceeds the double range"
    # w_in[0] = 1, so the norm is at least the largest row weight.  Estimates
    # scale back by 2^scale in one ldexp, which raises only on overflow.
    if not math.isfinite(peak):
        raise ValueError(too_big)
    scale = math.frexp(peak)[1] - 1
    w_out = np.zeros(op.size)
    np.ldexp(w_row[op.first_row :], -scale, out=w_out[op.first_row :])
    # av, then (A^T A v) unnormalized, are built in place in a and b, in
    # the same operation order as the plain expressions
    #     av = w_out * np.cumsum(w_in * v)
    #     v = w_in * np.cumsum((w_out * av)[::-1])[::-1], normalized,
    # so the buffers change no bit of the result.
    a = np.empty(op.size)
    b = np.empty(op.size)
    b_rev = b[::-1]
    sigma_prev = None
    sigma = 0.0
    residual = math.inf
    for iteration in range(1, MAX_ITER + 1):
        np.multiply(w_in, v, out=a)
        np.cumsum(a, out=a)
        np.multiply(w_out, a, out=a)
        # np.sum, unlike the BLAS dot behind np.dot and np.linalg.norm,
        # adds in an order that does not depend on the BLAS thread count.
        np.multiply(a, a, out=b)
        try:
            sigma = math.ldexp(math.sqrt(float(np.sum(b))), scale)
        except OverflowError:
            raise ValueError(too_big) from None
        if sigma_prev is not None:
            residual = abs(sigma - sigma_prev)
            if residual < tol:
                return OpNormEstimate(sigma, iteration, residual, v)
        sigma_prev = sigma
        np.multiply(w_out, a, out=b)
        np.cumsum(b_rev, out=b_rev)
        np.multiply(w_in, b, out=b)
        np.multiply(b, b, out=a)
        np.divide(b, math.sqrt(float(np.sum(a))), out=v)
    return OpNormEstimate(sigma, MAX_ITER, residual, v)


def norm_growth_profile(
    measure: Measure,
    alpha: SpaceIndex,
    beta: SpaceIndex,
    sizes,
    tol: float = TOL,
) -> list[tuple[int, OpNormEstimate]]:
    """Section norms at each size, ordered by size.

    Sections are nested, so the exact norms are nondecreasing; the
    estimates inherit that up to the reported residuals.  The smallest size
    starts from the all-ones vector and each larger one from the previous
    size's final iterate (see section_norm): nested sections have nearly
    the same top singular vector, so a warm size needs fewer iterations,
    and its `iterations` counts only those.
    """
    sizes = [int(n) for n in sizes]
    if not sizes or sizes[0] < 1:
        raise ValueError("sizes must be a nonempty list of positive integers")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")

    # Sections are nested, so every size reads prefixes of the moments and
    # weights of the largest.
    top = SectionOp(measure, alpha, beta, sizes[-1])

    profile = []
    start = (1.0,)
    for n in sizes:
        op = replace(top, size=n)
        est = section_norm(op, tol=tol, start=start)
        profile.append((n, est))
        start = est.vector
    return profile

