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
N x N array is ever formed; each step reads its value off the small
tridiagonal B^T B, at most MAX_ITER x MAX_ITER, with LAPACK's symmetric
eigensolver (np.linalg.eigvalsh).  Each squared vector norm is one
np.einsum pass, numpy's own loop and not BLAS, so the bits depend neither
on the BLAS thread count nor on where the rows lie in memory.  A call
works in rows of length N cut from one float block, four of them or
seven where it builds a Ritz vector, and a norm profile runs all its
sizes in one block: freeing one large block keeps glibc from handing the
profile's megabyte arrays back to the kernel, whose fresh zeroed pages
cost about 15 % of a profile (see the comment in norm_growth_profile).
It runs on the row weights in
their power-of-two frame, which _frame describes.
Iteration stops once two successive Ritz values differ by less than the
requested relative tolerance (TOL by default) or after MAX_ITER steps.  A
section keeps only its column and row weights, not the moments: a norm
profile reads prefixes of its largest section's weights, and starts each
size from the previous size's top Ritz vector, since nested sections have
nearly the same top singular vector.  hardy_constant brackets a norm from
two prefix sums in the same frame: B <= norm <= 2B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar

import numpy as np

from .measures import Measure, moment_sequence
from .spaces import CoeffVec, SpaceIndex, require_index

__all__ = [
    "SectionOp",
    "OpNormEstimate",
    "apply",
    "tail_section",
    "section_norm",
    "hardy_constant",
    "norm_growth_profile",
    "MAX_ITER",
    "TOL",
]

# Lanczos steps before section_norm stops and reports its residual.  The
# norm engine's 480 sections on the full default panel need at most 8 at
# TOL and 11 at 1e-15 (1,918 and 2,673 steps in all).
# A tol below the rounding unit (1e-16, 1e-300) is met only by two
# successive values equal to the last bit, and LAPACK's value moves in its
# last bits from one step to the next, so there a pass needs up to 36; 40
# still covers that.  Step k takes the top eigenvalue of the k x k
# tridiagonal B^T B from LAPACK, so the cap also keeps that solve small
# enough to run single-threaded.
MAX_ITER = 40

# Default stopping gap between successive Lanczos values, relative to the
# later one.
TOL = 1e-9

# Lanczos vectors kept to build the Ritz vector that starts the next size.
RITZ_TERMS = 3


@dataclass(frozen=True, eq=False)
class SectionOp:
    """Size-N section of the operator, zero on output rows below first_row.

    A full section has first_row == 0; the tail operator that remains
    after truncating at row m starts at row m + 1 (see tail_section).
    alpha and beta must lie in (0, 2), the range of the characterizations,
    size must be a positive integer and first_row an integer in [0, size].

    `weights` is the pair (w_in, w_row) of column weights
    (k+1)^(-(1-alpha)/2) and row weights (n+1)^((1-beta)/2) mu_n, inf past
    the double range, the only arrays a section keeps; left out, it is
    computed here, w_row in moment_sequence's own array and w_in in the
    index array.  A caller holding the pair at some N >= size may pass it;
    the section keeps read-only views of the first `size` entries, so
    nested sections and the tail sections made through dataclasses.replace
    share one pair.
    """

    measure: Measure
    alpha: SpaceIndex
    beta: SpaceIndex
    size: int
    first_row: int = 0
    weights: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        require_index(self.alpha.alpha, "alpha")
        require_index(self.beta.alpha, "beta")
        object.__setattr__(self, "size", _integer(self.size, "section size"))
        object.__setattr__(
            self, "first_row", _integer(self.first_row, "first row", 0, self.size)
        )
        if self.weights is None:
            idx = np.arange(1, self.size + 1, dtype=float)
            w_row = moment_sequence(self.measure, self.size)
            with np.errstate(over="ignore"):
                w_row *= idx ** ((1.0 - self.beta.alpha) / 2.0)
            w_in = np.power(idx, -(1.0 - self.alpha.alpha) / 2.0, out=idx)
        else:
            w_in, w_row = self.weights
        weights = (_prefix(w_in, self.size, "w_in"), _prefix(w_row, self.size, "w_row"))
        object.__setattr__(self, "weights", weights)


def _integer(value, what: str, lo: int = 1, hi: float = math.inf) -> int:
    """A section size or row as an int; ValueError unless an integer in
    [lo, hi].  A float or a string would build a section that slicing
    rejects only later, with a TypeError."""
    if not (isinstance(value, (int, np.integer)) and lo <= value <= hi):
        span = (
            "a positive integer" if (lo, hi) == (1, math.inf)
            else f"an integer in [{lo}, {hi}]"
        )
        raise ValueError(f"{what} must be {span}, got {value!r}")
    return int(value)


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

    The moments come from moment_sequence, since a section keeps only its
    weights.  Computed with one running prefix sum, in the same
    left-to-right addition order as the literal double loop, so the two
    agree bitwise.  Output has length op.size with zeros below
    op.first_row.
    """
    a = f.coeffs
    if a.size > op.size:
        raise ValueError(f"input length {a.size} exceeds section size {op.size}")
    padded = np.zeros(op.size)
    padded[: a.size] = a
    out = moment_sequence(op.measure, op.size) * np.cumsum(padded)
    out[: op.first_row] = 0.0
    return CoeffVec(out)


def tail_section(op: SectionOp, m: int) -> SectionOp:
    """Complementary rows above m: the operator minus its truncation at m."""
    m = _integer(m, "truncation row", 0, op.size - 1)
    return replace(op, first_row=max(op.first_row, m + 1))


def _frame(op: SectionOp, row: np.ndarray, what: str) -> Callable[[float], float] | None:
    """The power-of-two frame of a section, shared by section_norm and
    hardy_constant.

    Writes into `row`, of length op.size, the row weights divided by the
    power of two 2^scale that brings their largest entry into [1, 2), and
    zeros below first_row; returns the exact scale-back x -> x * 2^scale,
    or None for an all-zero section.  Dividing by a power of two is exact,
    and it keeps tails near 1e-154 from underflowing in their squares and
    masses near 1e300 from overflowing.  The zero rows leave every suffix
    sum exact and raise no maximum, so a caller may run over the whole row.
    w_in[0] = 1, so the norm and B are at least the largest row weight: an
    infinite one raises ValueError, as does a scale-back past the double
    range, which is exact unless it underflows.
    """
    too_big = f"size-{op.size} {what} exceeds the double range"
    w_row = op.weights[1][op.first_row :]
    peak = float(np.max(w_row, initial=0.0))
    if peak == 0.0:
        return None
    if not math.isfinite(peak):
        raise ValueError(too_big)
    scale = math.frexp(peak)[1] - 1
    row[: op.first_row] = 0.0
    np.ldexp(w_row, -scale, out=row[op.first_row :])

    def scale_back(x: float) -> float:
        try:
            return math.ldexp(x, scale)
        except OverflowError:
            raise ValueError(too_big) from None

    return scale_back


def _sum_of_squares(x: np.ndarray) -> float:
    """x . x in one pass of numpy's own einsum loop, not BLAS: its order
    of additions depends neither on the BLAS thread count nor on where x
    starts in memory."""
    return float(np.einsum("i,i->", x, x))


def _start_vector(start, v: np.ndarray) -> None:
    """Write into v the unit copy of start, extended to v's length by
    repeating its last entry."""
    start = np.asarray(start, dtype=float)
    if start.ndim != 1 or not 1 <= start.size <= v.size:
        raise ValueError(
            f"start must be a 1-d array of 1 to {v.size} entries, got shape {start.shape}"
        )
    # min and max pass a NaN on, which fails both tests.
    low, peak = float(np.min(start)), float(np.max(start))
    if not (low >= 0.0 and math.isfinite(peak) and start[0] > 0.0):
        raise ValueError("start must be finite and nonnegative with start[0] > 0")
    v[: start.size] = start
    v[start.size :] = start[-1]
    # Rescaling first keeps the squares of tiny or huge entries in range.
    np.divide(v, peak, out=v)
    np.divide(v, math.sqrt(_sum_of_squares(v)), out=v)


def section_norm(
    op: SectionOp,
    tol: float = TOL,
    start=(1.0,),
    *,
    ritz_vector: bool = False,
    buffer: np.ndarray | None = None,
) -> OpNormEstimate:
    """Largest singular value of the conjugated section matrix.

    Golub-Kahan-Lanczos bidiagonalization of A from the unit vector v_1
    along `start`, by default the all-ones vector: step k applies A once
    (p = A v_k - beta_{k-1} u_{k-1}, alpha_k = |p|, u_k = p / alpha_k) and,
    if it goes on, A^T once (r = A^T u_k - alpha_k v_k, beta_k = |r|,
    v_{k+1} = r / beta_k).  The value after step k is the square root of
    the largest eigenvalue of the k x k tridiagonal B^T B (diagonal
    alpha_i^2 + beta_{i-1}^2, off-diagonal alpha_i beta_i), the best
    Rayleigh quotient of A^T A over the Krylov space of v_1.  At every
    step that eigenvalue comes from LAPACK through np.linalg.eigvalsh on
    the lower triangle of B^T B; at step 1 it is alpha_1^2 exactly.
    Iteration stops when two successive values differ by less than tol
    times the later one, or after MAX_ITER steps; a step whose alpha or
    beta is exactly zero closes the Krylov space and stops with residual
    0.0.
    The three-term recurrence does not reorthogonalize: its basis loses
    orthogonality once the top value converges (Paige 1971), which
    leaves that value in place.

    It reads the section's column weights in place and copies its row
    weights once, into the frame of _frame, from which each value is
    scaled back exactly.  Every squared norm is np.einsum("i,i->", x, x),
    which fuses the squares into the sum and, unlike the BLAS dot behind
    np.dot and np.linalg.norm, adds in an order that depends neither on
    the BLAS thread count nor on the buffer's alignment; the LAPACK solve,
    at most MAX_ITER x MAX_ITER, gives the same bytes under 1 and 2 BLAS
    threads.  Tests check both, and that the result is bit for bit that
    of the plain allocating loop written out in them.  A start shorter
    than the section is extended by repeating its last entry, then
    normalized; it must be nonnegative with a positive first entry, which
    keeps its overlap with the top singular vector positive.  Every entry
    of A is nonnegative, so A^T A is entrywise positive on the columns up
    to the last nonzero row and zero beyond them; by Perron-Frobenius the
    top right singular vector is positive on those columns, the first
    among them.

    With ritz_vector, `vector` is the absolute value of the top Ritz
    vector cut to its first RITZ_TERMS Lanczos terms, normalized: a start
    for the next larger nested section.  Its coefficients are the head of
    the top eigenvector of B^T B from np.linalg.eigh, applied to those
    Lanczos vectors in one np.einsum pass.  Building it keeps the vectors
    and changes nothing else.  Non-convergence within MAX_ITER steps is
    reported through residual >= tol * value; a norm past the double range
    raises.

    The work happens in `buffer`, a 1-d float64 array that does not
    overlap start, cut into rows of length op.size from its first entry:
    four rows, and RITZ_TERMS more with ritz_vector.  By default the call
    allocates one.  Its contents on entry are ignored and on return are
    scratch: `vector` is always an array of its own.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    length = (4 + RITZ_TERMS if ritz_vector else 4) * op.size
    if buffer is None:
        buffer = np.empty(length)
    elif not (
        isinstance(buffer, np.ndarray)
        and buffer.dtype == np.float64
        and buffer.ndim == 1
        and buffer.size >= length
    ):
        raise ValueError(f"buffer must be a 1-d float64 array of at least {length} entries")
    # w_out, p, t and v_1, then with ritz_vector one row for each of v_2,
    # ..., v_{RITZ_TERMS+1}; the last goes on to hold every later v.
    rows = buffer[:length].reshape(-1, op.size)
    w_out, p, t, v, *spare = rows
    _start_vector(start, v)

    scale_back = _frame(op, w_out, "section norm")
    if scale_back is None:
        return OpNormEstimate(0.0, 0, 0.0, v.copy())
    w_in = op.weights[0]
    # The recurrence keeps v_k unit and p_k = alpha_k u_k unnormalized, so
    # only v is divided.  t receives A v_k, then p_k; p holds p_{k-1}, then
    # A^T p_k and r_k = alpha_k (A^T u_k - alpha_k v_k); the next v holds
    # alpha_k^2 v_k, then v_{k+1}; p and t then trade places.  The
    # operation order is that of the plain expressions
    #     p_k = w_out * np.cumsum(w_in * v) - (beta / alpha) * p
    #     r_k = w_in * np.cumsum((w_out * p_k)[::-1])[::-1] - (alpha * alpha) * v,
    # so the buffers change no bit of the result.  Where the Ritz vector is
    # built, v_1, ..., v_RITZ_TERMS stay in consecutive rows from v_1's.
    # B^T B lives in the lower triangle of `tri`, one row longer than
    # MAX_ITER for the off-diagonal entry the last step writes.
    tri = np.zeros((MAX_ITER + 1, MAX_ITER + 1))
    alpha = beta = 0.0
    root_prev = None
    residual = math.inf
    for k in range(1, MAX_ITER + 1):
        keep = ritz_vector and k <= RITZ_TERMS
        np.multiply(w_in, v, out=t)
        np.cumsum(t, out=t)
        np.multiply(w_out, t, out=t)
        if k > 1:
            np.multiply(p, beta / alpha, out=p)
            np.subtract(t, p, out=t)
        alpha = math.sqrt(_sum_of_squares(t))
        tri[k - 1, k - 1] = alpha * alpha + beta * beta
        root = math.sqrt(float(np.linalg.eigvalsh(tri[:k, :k])[-1]))
        sigma = scale_back(root)
        # The stop is tested in the frame, where tol * value cannot
        # underflow; the gap is below the larger of two values that scaled
        # back, so it scales back too.
        if root_prev is not None:
            gap = abs(root - root_prev)
            residual = scale_back(gap)
            if gap < tol * root:
                break
        root_prev = root
        if alpha == 0.0:
            residual = 0.0
            break
        np.multiply(w_out, t, out=p)
        np.cumsum(p[::-1], out=p[::-1])
        np.multiply(w_in, p, out=p)
        v_next = spare[k - 1] if keep else v
        np.multiply(v, alpha * alpha, out=v_next)
        np.subtract(p, v_next, out=p)
        # rho = alpha_k beta_k, the off-diagonal entry of B^T B.
        rho = math.sqrt(_sum_of_squares(p))
        if rho == 0.0:
            residual = 0.0
            break
        np.divide(p, rho, out=v_next)
        v = v_next
        beta = rho / alpha
        tri[k, k - 1] = rho
        p, t = t, p
    vector = None
    if ritz_vector:
        # The top eigenvector of B^T B, scaled so that its first entry is 1,
        # weights the kept v_1, ..., v_kept, rows 3 on, in one pass.
        kept = min(k, RITZ_TERMS)
        top = np.linalg.eigh(tri[:k, :k])[1][:, -1]
        np.einsum("k,kn->n", top[:kept] / top[0], rows[3 : 3 + kept], out=t)
        np.abs(t, out=t)
        vector = np.divide(t, math.sqrt(_sum_of_squares(t)))
    return OpNormEstimate(sigma, k, residual, vector)


def hardy_constant(op: SectionOp) -> float:
    """Muckenhoupt's constant B of the section, a weighted discrete Hardy
    operator: B^2 = max over m >= first_row of (sum_{k<=m} w_in_k^2)
    (sum_{n>=m} w_row_n^2), and B <= norm <= 2B (Muckenhoupt 1972; Kufner
    and Persson 2003).  Two prefix sums over the whole row that _frame
    writes, whose frame keeps a tail near 1e-179 positive; a B past the
    double range raises.
    """
    tail = np.empty(op.size)
    scale_back = _frame(op, tail, "Hardy constant")
    if scale_back is None:
        return 0.0
    np.square(tail, out=tail)
    np.cumsum(tail[::-1], out=tail[::-1])
    np.multiply(np.cumsum(np.square(op.weights[0])), tail, out=tail)
    return scale_back(math.sqrt(float(np.max(tail))))


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
    sizes = [_integer(n, "section size") for n in sizes]
    if not sizes:
        raise ValueError("sizes must be a nonempty list of positive integers")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")

    # Sections are nested, so every size reads prefixes of the weights of
    # the largest.
    top = SectionOp(measure, alpha, beta, sizes[-1])
    # One block serves every size, each in a prefix of it: four rows of the
    # largest size, which builds no Ritz vector, plus RITZ_TERMS rows of the
    # one before it.  The gain is in its being one block, and a large one.
    # Freeing an mmapped block of 4 MB or more (top size 2^17 and up) lifts
    # glibc's dynamic mmap threshold to its size and the trim threshold to
    # twice that (mallopt(3)), so the weights and blocks of later
    # profiles come from a heap that is no longer handed back to the
    # kernel as long as it stays under twice the block.  On glibc 2.36 a
    # round of six 2^10..2^17 profiles then takes about 10 minor page
    # faults in place of 19,500, which cost some 15 % of its time; seven
    # separate arrays of 2^17 reused across sizes still took 18,700, and a
    # block of only 4 * 2^17 entries 9,000 to 12,100.
    prev = sizes[-2] if len(sizes) > 1 else 0
    block = np.empty(4 * sizes[-1] + RITZ_TERMS * prev)

    profile = []
    start = (1.0,)
    for n in sizes:
        op = replace(top, size=n)
        est = section_norm(
            op, tol=tol, start=start, ritz_vector=n != sizes[-1], buffer=block
        )
        profile.append((n, est))
        start = est.vector
    return profile

