"""Finite sections of measure-induced Cesaro operators and their norms.

A positive measure mu on [0, 1) with moments mu_n acts on coefficient
vectors by (a_n) -> (mu_n * (a_0 + ... + a_n)).  Conjugating by the
diagonal maps that carry the alpha- and beta-weighted sequence spaces onto
plain l2 turns the operator norm into the largest singular value of the
lower-triangular matrix

    A[n, k] = (n+1)^((1-beta)/2) * mu_n * (k+1)^(-(1-alpha)/2),   k <= n.

The norm comes from power iteration on A^T A with both matrix-vector
products applied matrix-free through prefix sums, so no N x N array is
ever formed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace

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
    "profile_to_csv",
]

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
    stopped at max_iter.  `method` names the route in profile output and
    is always "power_iteration".
    """

    value: float
    iterations: int
    residual: float
    method: str = "power_iteration"

    def __post_init__(self) -> None:
        if self.value < 0 or self.residual < 0:
            raise ValueError("estimate and residual must be nonnegative")
        if self.method != "power_iteration":
            raise ValueError(f"unknown method {self.method!r}")


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
    op.first_row."""
    idx = np.arange(1, op.size + 1, dtype=float)
    w_in = idx ** (-(1.0 - op.alpha.alpha) / 2.0)
    w_out = idx ** ((1.0 - op.beta.alpha) / 2.0) * op.moments
    w_out[: op.first_row] = 0.0
    return w_in, w_out


def section_norm(
    op: SectionOp, tol: float = 1e-9, max_iter: int = 20000
) -> OpNormEstimate:
    """Largest singular value of the conjugated section matrix.

    Power iteration on A^T A starts from the all-ones vector, which has
    positive overlap with the top singular vector because every matrix
    entry is nonnegative, and stops when successive Rayleigh estimates
    differ by less than tol.  Non-convergence is reported through
    residual > tol, never raised.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")

    w_in, w_out = _conjugation_weights(op)
    v = np.full(op.size, 1.0 / math.sqrt(op.size))
    sigma_prev = None
    sigma = 0.0
    residual = math.inf
    for iteration in range(1, max_iter + 1):
        av = w_out * np.cumsum(w_in * v)
        # np.sum, unlike the BLAS dot behind np.dot and np.linalg.norm,
        # adds in an order that does not depend on the BLAS thread count.
        sigma = math.sqrt(float(np.sum(av * av)))
        if sigma == 0.0:
            return OpNormEstimate(0.0, iteration, 0.0)
        if sigma_prev is not None:
            residual = abs(sigma - sigma_prev)
            if residual < tol:
                return OpNormEstimate(sigma, iteration, residual)
        sigma_prev = sigma
        btv = w_in * np.cumsum((w_out * av)[::-1])[::-1]
        btv_norm = math.sqrt(float(np.sum(btv * btv)))
        if btv_norm == 0.0 or not math.isfinite(btv_norm):
            # The back-applied iterate underflowed (denormal sections);
            # sigma cannot improve from here.
            return OpNormEstimate(sigma, iteration, 0.0)
        v = btv / btv_norm
    return OpNormEstimate(sigma, max_iter, residual)


def norm_growth_profile(
    measure: Measure,
    alpha: SpaceIndex,
    beta: SpaceIndex,
    sizes,
    tol: float = 1e-9,
    max_iter: int = 20000,
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
        profile.append((n, section_norm(op, tol=tol, max_iter=max_iter)))
    return profile


def profile_to_csv(profile: list[tuple[int, OpNormEstimate]]) -> str:
    """Render a growth profile as CSV with a N,norm,method,... header."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["N", "norm", "method", "iterations", "residual"])
    for n, est in profile:
        writer.writerow(
            [n, repr(est.value), est.method, est.iterations, repr(est.residual)]
        )
    return buf.getvalue()
