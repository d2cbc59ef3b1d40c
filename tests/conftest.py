"""Oracles shared by several test modules."""

import numpy as np
import pytest


def conjugation_weights(op):
    """Column weights (k+1)^(-(1-alpha)/2) and row weights
    (n+1)^((1-beta)/2) mu_n, zero below op.first_row, written out from the
    formula rather than taken from operators."""
    idx = np.arange(1, op.size + 1, dtype=float)
    w_in = idx ** (-(1.0 - op.alpha.alpha) / 2.0)
    w_out = idx ** ((1.0 - op.beta.alpha) / 2.0) * op.moments
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
