"""Coefficient vectors, weighted sequence norms, and extremal test families.

The norm used throughout is the Dirichlet-type scale

    ||a|| = (sum_n (n+1)^(1-alpha) a_n^2)^(1/2)

on finite real sequences (a_0, ..., a_{N-1}).  alpha=1 recovers the Hardy
space norm, alpha=0 the classical Dirichlet norm.  The three family
constructors produce the extremal inputs the boundedness and compactness
experiments drive through the operator: a norm-bounded sequence with critical
coefficient decay, exactly normalized geometric packets, and a geometric
family whose mass escapes to high indices as the base approaches 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpaceIndex",
    "CoeffVec",
    "norm",
    "require_index",
    "counterexample_family",
    "truncated_geometric_family",
    "weak_null_family",
]


@dataclass(frozen=True)
class SpaceIndex:
    """Weight exponent of the sequence norm sum (n+1)^(1-alpha) a_n^2.

    The norm is defined for every real alpha.  Operations that verify the
    boundedness or compactness characterizations additionally require
    0 < alpha < 2 and enforce that at their own entry points through
    require_index.
    """

    alpha: float

    def __post_init__(self) -> None:
        a = float(self.alpha)
        if not math.isfinite(a):
            raise ValueError("alpha must be finite")
        object.__setattr__(self, "alpha", a)

    def weights(self, count: int) -> np.ndarray:
        """First `count` norm weights (n+1)^(1-alpha), n = 0, ..., count-1."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        return np.arange(1, count + 1, dtype=float) ** (1.0 - self.alpha)


class CoeffVec:
    """Immutable finite real coefficient vector (a_0, ..., a_{N-1}), N >= 1."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs) -> None:
        arr = np.array(coeffs, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("coefficients must form a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must all be finite")
        arr.setflags(write=False)
        self._coeffs = arr

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient array."""
        return self._coeffs

    def __len__(self) -> int:
        return int(self._coeffs.size)

    def __repr__(self) -> str:
        head = ", ".join(repr(v) for v in self._coeffs[:4])
        tail = ", ..." if len(self) > 4 else ""
        return f"CoeffVec([{head}{tail}], n={len(self)})"


def norm(f: CoeffVec, s: SpaceIndex) -> float:
    """Weighted l2 norm (sum (n+1)^(1-alpha) a_n^2)^(1/2) of the finite vector."""
    a = f.coeffs
    # fsum rounds the exact sum once, so neither the BLAS summation order
    # nor appended zeros can change the result.
    return math.sqrt(math.fsum((s.weights(a.size) * (a * a)).tolist()))


def require_index(value: float, name: str) -> None:
    """Reject an index outside the open range (0, 2) of the characterizations."""
    if not 0.0 < value < 2.0:
        raise ValueError(f"{name} must lie in (0, 2), got {value}")


def counterexample_family(alpha: SpaceIndex, eps: float, n_terms: int) -> CoeffVec:
    """Critical-decay family a_n = sqrt(eps/(1+eps)) (n+1)^(-(2-alpha+eps)/2).

    Every truncation has norm at most 1 in the alpha norm: the weighted
    squares telescope to eps/(1+eps) * sum (n+1)^(-(1+eps)), and the full
    series is bounded by the integral estimate 1 + 1/eps.  Summing against
    slower-decaying moment sequences diverges, which is what makes the family
    a boundedness witness.
    """
    a = alpha.alpha
    require_index(a, "alpha")
    if not 0.0 < eps < a:
        raise ValueError(f"eps must lie in (0, alpha), got {eps}")
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    n_plus_1 = np.arange(1, n_terms + 1, dtype=float)
    scale = math.sqrt(eps / (1.0 + eps))
    return CoeffVec(scale * n_plus_1 ** (-(2.0 - a + eps) / 2.0))


def truncated_geometric_family(alpha: SpaceIndex, b: float, n_top: int) -> CoeffVec:
    """Geometric packet b^(n+1), n = 0, ..., n_top, normalized to unit norm.

    The normalizer is the exact finite sum
    Omega = sum_{k<=n_top} (k+1)^(1-alpha) b^(2(k+1)), so the alpha norm of
    the result is 1 up to roundoff.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"b must lie in (0, 1), got {b}")
    if n_top < 0:
        raise ValueError("n_top must be nonnegative")
    k_plus_1 = np.arange(1, n_top + 2, dtype=float)
    powers = b**k_plus_1
    # fsum, as in norm(), keeps omega independent of the BLAS thread count.
    terms = k_plus_1 ** (1.0 - alpha.alpha) * (powers * powers)
    omega = math.fsum(terms.tolist())
    return CoeffVec(powers / math.sqrt(omega))


def weak_null_family(
    alpha: SpaceIndex, b: float, n_terms: int | None = None
) -> CoeffVec:
    """Escaping geometric family a_n = (1-b^2)^((2-alpha)/2) b^(n+1).

    Norms stay comparable to 1 while the coefficient mass drifts to higher
    indices as b -> 1, so images under a compact operator must shrink.  The
    default truncation length ceil(20/(1-b)) leaves a relative tail below
    e^-40, negligible against every tolerance in use.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"b must lie in (0, 1), got {b}")
    if n_terms is None:
        n_terms = math.ceil(20.0 / (1.0 - b))
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    n_plus_1 = np.arange(1, n_terms + 1, dtype=float)
    scale = (1.0 - b * b) ** ((2.0 - alpha.alpha) / 2.0)
    return CoeffVec(scale * b**n_plus_1)
