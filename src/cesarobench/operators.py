"""Finite sections of measure-induced Cesaro operators and their norms.

A positive measure mu on [0, 1) with moments mu_n acts on coefficient
vectors by (a_n) -> (mu_n * (a_0 + ... + a_n)).  Conjugating by the
diagonal maps that carry the alpha- and beta-weighted sequence spaces onto
plain l2 turns the operator norm into the largest singular value of the
lower-triangular matrix

    A[n, k] = (n+1)^((1-beta)/2) * mu_n * (k+1)^(-(1-alpha)/2),   k <= n.

The norm comes from Golub-Kahan-Lanczos bidiagonalization of A (Lanczos
1950; Golub and Kahan 1965), the Lanczos process on A^T A, with both
matrix-vector products applied matrix-free through prefix sums, so no
N x N array is ever formed, and each call works in four arrays of length N
allocated once.  It runs on the row weights divided by the power of two
that brings their maximum into [1, 2); that is exact, and keeps tails near
1e-154 from underflowing and masses near 1e300 from overflowing.
Iteration stops once two successive Ritz values differ by less than the
requested relative tolerance (TOL by default) or after MAX_ITER steps.  A
norm profile reads prefixes of its largest section's moments and weights,
and starts each size from the previous size's top Ritz vector, since
nested sections have nearly the same top singular vector.
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

# Lanczos steps before section_norm stops and reports its residual.  One
# pass of the full default panel needs at most 9 at TOL, and at most 12
# even at tol = 1e-300, which only successive values equal to the last bit
# meet; 40 leaves more than three times that.  Step k finds the top
# eigenvalue of a k x k tridiagonal in O(k), so the cap bounds a step's
# cost too.
MAX_ITER = 40

# Default stopping gap between successive Lanczos values, relative to the
# later one.
TOL = 1e-9

# Lanczos vectors kept to build the Ritz vector that starts the next size.
RITZ_TERMS = 3

# Newton steps on the tridiagonal's top eigenvalue stop once a step falls
# below NEWTON_STEP times the value, or after NEWTON_MAX steps.
NEWTON_STEP = 2.0**-50
NEWTON_MAX = 100

# Relative shift above the top eigenvalue at which _ritz_head factors.
RITZ_SHIFT = 2.0**-40


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

    `value` is a lower bound on the section norm (Ritz values of A^T A
    underestimate).  `iterations` counts the Lanczos steps taken from the
    start vector, each one product with A and all but the last one with
    A^T, so a warm start that is already close counts few.  `residual` is
    the last gap between successive values, in the value's units; it
    reaches tol times the value only when iteration stopped at MAX_ITER,
    and it is 0.0 where the Krylov space closed.  Only an all-zero section
    skips the iteration, with 0 iterations and residual 0.0.  `vector` is
    a read-only unit vector that can start the next larger nested section:
    the start vector itself when nothing was iterated, else the Ritz
    vector that section_norm builds when asked, and None when not.
    `method` names the route in output.
    """

    value: float
    iterations: int
    residual: float
    vector: np.ndarray | None = field(default=None, repr=False, compare=False)
    method: ClassVar[str] = "lanczos"

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


def _top_eigenvalue(diag: list, off2: list, lam: float) -> float:
    """Largest eigenvalue of the symmetric tridiagonal matrix with diagonal
    `diag` and squared off-diagonal `off2`, by Newton's method from `lam`.

    From an upper bound `lam` the iterates fall monotonically; one that
    rounding left just below the eigenvalue is overshot once.  Each step
    runs the Sturm recurrence q_i = d_i - lam - off2_{i-1} / q_{i-1}, whose
    pivots are all negative above the largest eigenvalue, together with
    its derivative; p'/p of the characteristic polynomial is the sum of
    q_i'/q_i.  Newton's step falls only linearly on a cluster of equal top
    eigenvalues, which the ghost copies of a long run leave; once a step
    is more than half the last one, bisection on the sign of the pivots
    finishes inside [lam - k * step, lam], which holds the eigenvalue
    because a Newton step from above covers at least 1/k of the distance.
    Plain Python floats, so the result does not depend on BLAS.
    """
    rest = list(zip(diag[1:], off2))
    last = math.inf
    for _ in range(NEWTON_MAX):
        q = diag[0] - lam
        dq = -1.0
        try:
            s = dq / q
            for d, c2 in rest:
                r = c2 / q
                dq = r * dq / q - 1.0
                q = d - lam - r
                s += dq / q
        except ZeroDivisionError:
            # A pivot that is exactly zero puts lam on an eigenvalue.
            return lam
        step = 1.0 / s
        if step > 0.5 * last:
            return _bisect_top(diag, rest, lam - len(diag) * step, lam)
        lam -= step
        if step <= NEWTON_STEP * lam:
            break
        last = step
    return lam


def _bisect_top(diag: list, rest: list, low: float, high: float) -> float:
    """Bisect [low, high] down to NEWTON_STEP relative width on whether
    every Sturm pivot is negative, that is, whether the midpoint lies above
    the largest eigenvalue; returns the upper end."""
    while high - low > NEWTON_STEP * high:
        mid = 0.5 * (low + high)
        q = diag[0] - mid
        above = q < 0.0
        for d, c2 in rest:
            if not above:
                break
            q = d - mid - c2 / q
            above = q < 0.0
        if above:
            high = mid
        else:
            low = mid
    return high


def _ritz_head(diag: list, off2: list, lam: float, terms: int) -> list[float]:
    """First `terms` entries of the top eigenvector of the tridiagonal,
    scaled so that the first is 1.

    The pivots g_i of (T - lam' I) eliminated from the last row up, at a
    shift lam' just above the eigenvalue lam, are all negative; the
    eigenvector then satisfies y_{i+1} / y_i = -e_i / g_{i+1}.  Reading it
    from the bottom keeps the small trailing entries of a converged
    eigenvector out of the head.
    """
    shift = lam + lam * RITZ_SHIFT
    g = diag[-1] - shift
    pivots = [g]
    for d, c2 in zip(diag[-2:0:-1], off2[:0:-1]):
        g = d - shift - c2 / g
        pivots.append(g)
    pivots.reverse()  # pivots[i - 1] is g_{i+1}, for i = 1, ..., k - 1
    head = [1.0]
    for i in range(1, terms):
        head.append(head[-1] * math.sqrt(off2[i - 1]) / -pivots[i - 1])
    return head


def section_norm(
    op: SectionOp, tol: float = TOL, start=(1.0,), *, ritz_vector: bool = False
) -> OpNormEstimate:
    """Largest singular value of the conjugated section matrix.

    Golub-Kahan-Lanczos bidiagonalization of A from the unit vector v_1
    along `start`, by default the all-ones vector: step k applies A once
    (p = A v_k - beta_{k-1} u_{k-1}, alpha_k = |p|, u_k = p / alpha_k) and,
    if it goes on, A^T once (r = A^T u_k - alpha_k v_k, beta_k = |r|,
    v_{k+1} = r / beta_k).  The value after step k is the square root of
    the largest eigenvalue of the k x k tridiagonal B^T B (diagonal
    alpha_i^2 + beta_{i-1}^2, off-diagonal alpha_i beta_i), the best
    Rayleigh quotient of A^T A over the Krylov space of v_1, found by
    _top_eigenvalue from the bound that step k - 1 leaves.  Iteration
    stops when two successive values differ by less than tol times the
    later one, or after MAX_ITER steps; a step whose alpha or beta is
    exactly zero closes the Krylov space and stops with residual 0.0.
    The three-term recurrence does not reorthogonalize: its basis loses
    orthogonality once the top value converges (Paige 1971), which
    leaves that value in place.

    It reads the section's column weights in place and copies its row
    weights once, zero below first_row and in the power-of-two frame; each
    value is scaled back exactly.  Every reduction is np.sum, which, unlike
    the BLAS dot behind np.dot and np.linalg.norm, adds in an order that
    does not depend on the BLAS thread count, so the result is bit for bit
    that of the plain allocating loop written out in the tests.  A start
    shorter than the section is extended by repeating its last entry, then
    normalized; it must be nonnegative with a positive first entry, which
    keeps its overlap with the top singular vector positive.  Every entry
    of A is nonnegative, so A^T A is entrywise positive on the columns up
    to the last nonzero row and zero beyond them; by Perron-Frobenius the
    top right singular vector is positive on those columns, the first
    among them.

    With ritz_vector, `vector` is the absolute value of the top Ritz
    vector cut to its first RITZ_TERMS Lanczos terms, normalized: a start
    for the next larger nested section.  Building it keeps those Lanczos
    vectors and changes nothing else.  Non-convergence within MAX_ITER
    steps is reported through residual >= tol * value; a norm past the
    double range raises.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    v = _start_vector(start, op.size)

    w_in, w_row = op.weights
    peak = float(np.max(w_row[op.first_row :], initial=0.0))
    if peak == 0.0:
        return OpNormEstimate(0.0, 0, 0.0, v)
    too_big = f"size-{op.size} section norm exceeds the double range"
    # w_in[0] = 1, so the norm is at least the largest row weight.  Values
    # scale back by 2^scale in one ldexp, which raises only on overflow.
    if not math.isfinite(peak):
        raise ValueError(too_big)
    scale = math.frexp(peak)[1] - 1
    w_out = np.zeros(op.size)
    np.ldexp(w_row[op.first_row :], -scale, out=w_out[op.first_row :])
    # The recurrence keeps v_k unit and p_k = alpha_k u_k unnormalized, so
    # only v is divided.  t receives A v_k, then p_k; p holds p_{k-1}, then
    # the squares of p_k, then A^T p_k and r_k = alpha_k (A^T u_k - alpha_k
    # v_k); the next v holds alpha_k^2 v_k, then the squares of r_k, then
    # v_{k+1}; p and t then trade places.  The operation order is that of
    # the plain expressions
    #     p_k = w_out * np.cumsum(w_in * v) - (beta / alpha) * p
    #     r_k = w_in * np.cumsum((w_out * p_k)[::-1])[::-1] - (alpha * alpha) * v,
    # so the buffers change no bit of the result.  Where the Ritz vector is
    # built, v_1, ..., v_RITZ_TERMS stay in `kept` and each gets a buffer.
    p = np.empty(op.size)
    t = np.empty(op.size)
    kept = []
    diag: list[float] = []
    off2: list[float] = []
    alpha = beta = lam = 0.0
    root_prev = None
    sigma = 0.0
    residual = math.inf
    for k in range(1, MAX_ITER + 1):
        keep = ritz_vector and k <= RITZ_TERMS
        if keep:
            kept.append(v)
        np.multiply(w_in, v, out=t)
        np.cumsum(t, out=t)
        np.multiply(w_out, t, out=t)
        if k > 1:
            np.multiply(p, beta / alpha, out=p)
            np.subtract(t, p, out=t)
        np.multiply(t, t, out=p)
        alpha = math.sqrt(float(np.sum(p)))
        diag.append(alpha * alpha + beta * beta)
        if k == 1:
            lam = diag[0]
        else:
            # The top eigenvalue of [[lam, e], [e, d]] bounds the new one:
            # the old block is at most lam times the identity.
            half = 0.5 * (lam - diag[-1])
            bound = lam - half + math.sqrt(half * half + off2[-1])
            lam = _top_eigenvalue(diag, off2, bound)
        root = math.sqrt(lam)
        try:
            sigma = math.ldexp(root, scale)
        except OverflowError:
            raise ValueError(too_big) from None
        # The stop is tested in the frame, where tol * value cannot
        # underflow; scaling the gap back is exact unless it underflows.
        if root_prev is not None:
            gap = abs(root - root_prev)
            residual = math.ldexp(gap, scale)
            if gap < tol * root:
                break
        root_prev = root
        if alpha == 0.0:
            residual = 0.0
            break
        np.multiply(w_out, t, out=p)
        np.cumsum(p[::-1], out=p[::-1])
        np.multiply(w_in, p, out=p)
        v_next = np.empty(op.size) if keep else v
        np.multiply(v, alpha * alpha, out=v_next)
        np.subtract(p, v_next, out=p)
        np.multiply(p, p, out=v_next)
        # rho = alpha_k beta_k, the off-diagonal entry of B^T B.
        rho = math.sqrt(float(np.sum(v_next)))
        if rho == 0.0:
            residual = 0.0
            break
        np.divide(p, rho, out=v_next)
        v = v_next
        beta = rho / alpha
        off2.append(rho * rho)
        p, t = t, p
    vector = None
    if ritz_vector:
        vector = kept[0]
        head = _ritz_head(diag, off2, lam, len(kept))
        for y, basis in zip(head[1:], kept[1:]):
            np.multiply(basis, y, out=basis)
            np.add(vector, basis, out=vector)
        np.abs(vector, out=vector)
        np.multiply(vector, vector, out=t)
        np.divide(vector, math.sqrt(float(np.sum(t))), out=vector)
    return OpNormEstimate(sigma, k, residual, vector)


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
    size's Ritz vector (see section_norm), built at every size but the
    last: nested sections have nearly the same top singular vector, so a
    warm size needs fewer Lanczos steps, and its `iterations` counts only
    those.
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
        est = section_norm(op, tol=tol, start=start, ritz_vector=n != sizes[-1])
        profile.append((n, est))
        start = est.vector
    return profile

