"""Finite sections of measure-induced Cesaro operators and their norms.

A positive measure mu on [0, 1) with moments mu_n acts on coefficient
vectors by (a_n) -> (mu_n * (a_0 + ... + a_n)).  Conjugating by the
diagonal maps that carry the alpha- and beta-weighted sequence spaces onto
plain l2 turns the operator norm into the largest singular value of the
lower-triangular matrix

    A[n, k] = (n+1)^((1-beta)/2) * mu_n * (k+1)^(-(1-alpha)/2),   k <= n.

The norm comes from power iteration on A^T A with both matrix-vector
products applied matrix-free through prefix sums, so no N x N array is
ever formed.  It runs on the row weights divided by the power of two that
brings their maximum into [1, 2); that is exact, and keeps tails near
1e-154 from underflowing and masses near 1e300 from overflowing.
Iteration stops at the requested tolerance (TOL by default) or after
MAX_ITER steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .measures import Measure, moment_sequence
from .spaces import CoeffVec, SpaceIndex

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

    `moments` holds mu_0, ..., mu_{size-1}.  Left out, it is computed as
    moment_sequence(measure, size).  A caller that already holds
    moment_sequence(measure, N) for some N >= size may pass that array
    instead; the section keeps a read-only view of its first `size`
    entries, so nested sections and the tail sections made through
    dataclasses.replace share one array and never recompute it.
    """

    measure: Measure
    alpha: SpaceIndex
    beta: SpaceIndex
    size: int
    first_row: int = 0
    moments: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("section size must be positive")
        if not 0 <= self.first_row <= self.size:
            raise ValueError(
                f"first row {self.first_row} out of range [0, {self.size}]"
            )
        if self.moments is None:
            moments = moment_sequence(self.measure, self.size)
        else:
            moments = np.asarray(self.moments, dtype=float)
            if moments.ndim != 1 or moments.size < self.size:
                raise ValueError(
                    f"moments must be a 1-d array of at least {self.size} "
                    f"entries, got shape {moments.shape}"
                )
            moments = moments[: self.size]
        moments.setflags(write=False)
        object.__setattr__(self, "moments", moments)


@dataclass(frozen=True)
class OpNormEstimate:
    """Largest-singular-value estimate with its convergence record.

    `value` is a lower bound on the section norm (Rayleigh quotients of
    A^T A underestimate).  `residual` is the last gap between successive
    estimates; it exceeds the requested tolerance only when iteration
    stopped at MAX_ITER.  Only an all-zero section skips the iteration, with
    0 iterations and residual 0.0.  `method` names the route in output.
    """

    value: float
    iterations: int
    residual: float
    method: ClassVar[str] = "power_iteration"

    def __post_init__(self) -> None:
        if self.value < 0 or self.residual < 0:
            raise ValueError("estimate and residual must be nonnegative")


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


def _conjugation_weights(op: SectionOp) -> tuple[np.ndarray, np.ndarray]:
    """Column weights (k+1)^(-(1-alpha)/2) and row weights, zero below
    op.first_row; a row weight past the double range is inf."""
    idx = np.arange(1, op.size + 1, dtype=float)
    w_in = idx ** (-(1.0 - op.alpha.alpha) / 2.0)
    with np.errstate(over="ignore"):
        w_out = idx ** ((1.0 - op.beta.alpha) / 2.0) * op.moments
    w_out[: op.first_row] = 0.0
    return w_in, w_out


def section_norm(op: SectionOp, tol: float = TOL) -> OpNormEstimate:
    """Largest singular value of the conjugated section matrix.

    Power iteration on A^T A starts from the all-ones vector, which has
    positive overlap with the top singular vector because every matrix
    entry is nonnegative, and stops when successive Rayleigh estimates
    differ by less than tol in the caller's units, each scaled back exactly
    from the power-of-two frame.  Non-convergence within MAX_ITER steps is
    reported through residual > tol; a norm past the double range raises.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")

    w_in, w_out = _conjugation_weights(op)
    peak = float(np.max(w_out))
    if peak == 0.0:
        return OpNormEstimate(0.0, 0, 0.0)
    # w_in[0] = 1, so the norm is at least the largest row weight.
    if not math.isfinite(peak):
        raise ValueError(f"size-{op.size} section norm exceeds the double range")
    # unit = 2^scale scales back as ldexp would, but overflows to inf.
    scale = math.frexp(peak)[1] - 1
    np.ldexp(w_out, -scale, out=w_out)
    unit = math.ldexp(1.0, scale)
    v = np.full(op.size, 1.0 / math.sqrt(op.size))
    sigma_prev = None
    sigma = 0.0
    residual = math.inf
    for iteration in range(1, MAX_ITER + 1):
        av = w_out * np.cumsum(w_in * v)
        # np.sum, unlike the BLAS dot behind np.dot and np.linalg.norm,
        # adds in an order that does not depend on the BLAS thread count.
        sigma = math.sqrt(float(np.sum(av * av))) * unit
        if not math.isfinite(sigma):
            raise ValueError(f"size-{op.size} section norm exceeds the double range")
        if sigma_prev is not None:
            residual = abs(sigma - sigma_prev)
            if residual < tol:
                return OpNormEstimate(sigma, iteration, residual)
        sigma_prev = sigma
        btv = w_in * np.cumsum((w_out * av)[::-1])[::-1]
        v = btv / math.sqrt(float(np.sum(btv * btv)))
    return OpNormEstimate(sigma, MAX_ITER, residual)


def norm_growth_profile(
    measure: Measure,
    alpha: SpaceIndex,
    beta: SpaceIndex,
    sizes,
    tol: float = TOL,
) -> list[tuple[int, OpNormEstimate]]:
    """Section norms at each size, ordered by size.

    Sections are nested, so the exact norms are nondecreasing; the
    estimates inherit that up to the reported residuals.
    """
    sizes = [int(n) for n in sizes]
    if not sizes or sizes[0] < 1:
        raise ValueError("sizes must be a nonempty list of positive integers")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")

    # Sections are nested, so every size reads a prefix of one sequence.
    moments = moment_sequence(measure, sizes[-1])

    profile = []
    for n in sizes:
        op = SectionOp(measure, alpha, beta, n, moments=moments)
        profile.append((n, section_norm(op, tol=tol)))
    return profile

