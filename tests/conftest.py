"""Oracles shared by several test modules."""

import mpmath
import numpy as np
import pytest

from cesarobench.cli import build_panel, default_config
from cesarobench.measures import moment_sequence

# Exponent pairs (gamma, delta) of every density on the default panel.
PANEL_EXPONENTS = sorted(
    {(g, d) for _, m, _, _ in build_panel(default_config()) for _, g, d in m.densities}
)
# Those and two pairs where the plain quotient (n+delta+1)/(n+delta+gamma+2),
# taken as the moments' ratio recurrence, drifts to 1.9e-11 by n = 2^20.
SEQUENCE_EXPONENTS = sorted(set(PANEL_EXPONENTS) | {(0.3, 1.0), (-0.2, 0.0)})
# n = 0 and every 2^k and 2^k - 1 up to 2^20.
SEQUENCE_NS = sorted(
    {0} | {1 << k for k in range(21)} | {(1 << k) - 1 for k in range(21)}
)


def exact_moment(m, n: int):
    """mu[n] at 40 digits from the exact float inputs, with mpmath."""
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for t0, mass in m.atoms:
            total += mpmath.mpf(mass) * mpmath.mpf(t0) ** n
        for c, gamma, delta in m.densities:
            total += mpmath.mpf(c) * mpmath.beta(
                n + mpmath.mpf(delta) + 1, mpmath.mpf(gamma) + 1
            )
        return total


def worst_moment_error(m, seq) -> float:
    """Largest relative error of seq[n] against exact_moment(m, n) over
    the n in SEQUENCE_NS that seq covers.  An exact moment below 1e-300,
    such as an atom's power that underflows, only needs seq[n] <= 1e-300;
    one above that counts as error inf."""
    worst = 0.0
    for n in SEQUENCE_NS[: np.searchsorted(SEQUENCE_NS, len(seq))]:
        exact = exact_moment(m, n)
        if exact >= 1e-300:
            error = float(abs((mpmath.mpf(seq[n]) - exact) / exact))
        else:
            error = 0.0 if seq[n] <= 1e-300 else np.inf
        worst = max(worst, error)
    return worst


def conjugation_weights(op):
    """Column weights (k+1)^(-(1-alpha)/2) and row weights
    (n+1)^((1-beta)/2) mu_n, zero below op.first_row, written out from the
    formula and moment_sequence rather than taken from operators."""
    idx = np.arange(1, op.size + 1, dtype=float)
    w_in = idx ** (-(1.0 - op.alpha.alpha) / 2.0)
    mu = moment_sequence(op.measure, op.size)
    w_out = idx ** ((1.0 - op.beta.alpha) / 2.0) * mu
    w_out[: op.first_row] = 0.0
    return w_in, w_out


def _dense_section_norm(op) -> float:
    """Section norm by full SVD of the dense conjugated matrix A."""
    w_in, w_out = conjugation_weights(op)
    a = np.tril(np.outer(w_out, w_in))
    return float(np.linalg.svd(a, compute_uv=False)[0])


@pytest.fixture
def dense_norm():
    """Dense-SVD oracle for the matrix-free operators.section_norm."""
    return _dense_section_norm
