"""Oracles shared by several test modules."""

import numpy as np
import pytest

from cesarobench.operators import _conjugation_weights


def _dense_section_norm(op) -> float:
    """Section norm by full SVD of the dense conjugated matrix A."""
    w_in, w_out = _conjugation_weights(op)
    a = np.tril(np.outer(w_out, w_in))
    return float(np.linalg.svd(a, compute_uv=False)[0])


@pytest.fixture
def dense_norm():
    """Dense-SVD oracle for the matrix-free operators.section_norm."""
    return _dense_section_norm
