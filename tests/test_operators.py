"""Section operators: application, tail sections, norm estimation."""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cesarobench
from cesarobench import operators
from cesarobench.analysis import COMPACT_SIZE, COMPACT_TRUNCATIONS, NORM_SIZES
from cesarobench.cli import PanelConfig, build_panel, default_config
from cesarobench.measures import Measure, moment_sequence, parse_measure
from cesarobench.operators import (
    MAX_ITER,
    TOL,
    OpNormEstimate,
    SectionOp,
    apply,
    hardy_constant,
    norm_growth_profile,
    section_norm,
    tail_section,
)
from cesarobench.spaces import CoeffVec, SpaceIndex
from conftest import (
    SEQUENCE_EXPONENTS,
    SEQUENCE_NS,
    conjugation_weights,
    worst_moment_error,
)

LEB = Measure.lebesgue()
S1 = SpaceIndex(1.0)


def brute_force_apply(op: SectionOp, f: np.ndarray) -> np.ndarray:
    mu = moment_sequence(op.measure, op.size)
    out = np.zeros(op.size)
    for n in range(op.size):
        acc = 0.0
        for k in range(min(n + 1, f.size)):
            acc += f[k]
        if n >= op.first_row:
            out[n] = mu[n] * acc
    return out


def _plain_frame(op: SectionOp):
    """Column weights, row weights in the power-of-two frame, and the
    frame's exponent, from the formula rather than from operators."""
    w_in, w_out = conjugation_weights(op)
    scale = math.frexp(float(np.max(w_out)))[1] - 1
    return w_in, np.ldexp(w_out, -scale), scale


def reference_section_norm(op: SectionOp, tol: float = TOL):
    """Golub-Kahan-Lanczos as plain allocating expressions, with v_k unit
    and p_k = alpha_k u_k and each squared norm from np.einsum: the
    operation order section_norm's in-place buffers must keep bit for bit,
    from the all-ones start.  The top
    eigenvalue of B^T B comes from np.linalg.eigvalsh on a tridiagonal
    built here.  Returns (value, iterations, residual, Lanczos vectors,
    diagonal, off-diagonal)."""
    w_in, w_out, scale = _plain_frame(op)
    if not np.any(w_out):
        return 0.0, 0, 0.0, [], [], []
    v = np.full(op.size, 1.0 / math.sqrt(op.size))
    p = np.zeros(op.size)
    vs, diag, off = [], [], []
    alpha = beta = lam = 0.0
    root_prev = None
    residual = math.inf
    for k in range(1, MAX_ITER + 1):
        vs.append(v)
        p_k = w_out * np.cumsum(w_in * v)
        if k > 1:
            p_k = p_k - (beta / alpha) * p
        alpha = math.sqrt(float(np.einsum("i,i->", p_k, p_k)))
        diag.append(alpha * alpha + beta * beta)
        if k == 1:
            lam = diag[0]
        else:
            lam = float(np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))[-1])
        root = math.sqrt(lam)
        sigma = math.ldexp(root, scale)
        if root_prev is not None:
            residual = math.ldexp(abs(root - root_prev), scale)
            if abs(root - root_prev) < tol * root:
                break
        root_prev = root
        if alpha == 0.0:
            residual = 0.0
            break
        r = w_in * np.cumsum((w_out * p_k)[::-1])[::-1] - (alpha * alpha) * v
        rho = math.sqrt(float(np.einsum("i,i->", r, r)))
        if rho == 0.0:
            residual = 0.0
            break
        v = r / rho
        beta = rho / alpha
        off.append(rho)
        p = p_k
    return sigma, k, residual, vs, diag, off


def reorthogonalized_top_value(op: SectionOp, steps: int, start=None) -> float:
    """Top singular value of B_k after `steps` Golub-Kahan steps in which
    every new vector is orthogonalized twice against all earlier ones,
    with numpy's SVD of B_k: a reference that keeps the basis orthogonal
    and shares no eigenvalue code with operators."""
    w_in, w_out, scale = _plain_frame(op)
    v = np.ones(op.size) if start is None else np.array(start, dtype=float)
    v /= np.linalg.norm(v)
    us, vs = [], [v]
    b = np.zeros((steps, steps))
    for k in range(steps):
        p = w_out * np.cumsum(w_in * vs[k])
        for _ in range(2):
            for q in us:
                p -= (q @ p) * q
        b[k, k] = np.linalg.norm(p)
        if b[k, k] == 0.0:
            break
        us.append(p / b[k, k])
        if k + 1 == steps:
            break
        r = w_in * np.cumsum((w_out * us[k])[::-1])[::-1]
        for _ in range(2):
            for q in vs:
                r -= (q @ r) * q
        b[k, k + 1] = np.linalg.norm(r)
        if b[k, k + 1] == 0.0:
            break
        vs.append(r / b[k, k + 1])
    return math.ldexp(float(np.linalg.svd(b, compute_uv=False)[0]), scale)


def three_panel_entries(pairs):
    """Three default-panel measures, a critical power law and an atom
    mixture among them, at each of the given pairs."""
    names = ("lebesgue", "powlaw_near", "mix_atom_crit")
    config = PanelConfig(
        measures=tuple(e for e in default_config().measures if e[0] in names),
        pairs=pairs,
    )
    return build_panel(config)


class TestSectionOp:
    def test_moments_match_measure(self):
        # At beta = 1 the row weights (n+1)^0 mu_n are the moments, which
        # come from moment_sequence, within 1e-12 of mpmath up to 2^20 on
        # each panel exponent pair and the two where a plain quotient
        # recurrence drifts.
        size = SEQUENCE_NS[-1] + 1
        for gamma, delta in SEQUENCE_EXPONENTS:
            m = Measure.powlaw(1.0, gamma, delta)
            op = SectionOp(m, S1, S1, size)
            assert np.array_equal(op.weights[1], moment_sequence(m, size))
            assert worst_moment_error(m, op.weights[1]) <= 1e-12, (gamma, delta)

    def test_moments_read_only(self):
        # A section keeps no moments of its own; its two weight arrays, the
        # moments among them at beta = 1, are read-only.
        op = SectionOp(LEB, S1, S1, 4)
        for w in op.weights:
            with pytest.raises(ValueError):
                w[0] = 2.0
        assert not hasattr(op, "moments")

    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 1.5, 1.9])
    def test_weights_equal_the_formula_bitwise(self, a):
        # The weights built in place, w_row in moment_sequence's array and
        # w_in in the index array, are those of the allocating expressions
        # bit for bit, at every pair of indices on the grid, with a row
        # weight past the double range inf as before.
        for expr in ("lebesgue", "atom(0.5,1.0)", "atom(0.99999,1.7e308)",
                     "atom(0.9,0.25)+powlaw(c=0.5,gamma=0.5,delta=1)"):
            for b in (0.1, 0.5, 1.0, 1.5, 1.9):
                op = SectionOp(parse_measure(expr), SpaceIndex(a), SpaceIndex(b), 4099)
                with np.errstate(over="ignore"):
                    want = conjugation_weights(op)
                for got, w in zip(op.weights, want):
                    assert got.tobytes() == w.tobytes(), (expr, a, b)

    def test_build_memory_peak(self):
        # A build holds the row weights in moment_sequence's own array, the
        # index array that becomes w_in and one power temporary: the traced
        # peak of a 2^14 build read 3.02 N doubles, where keeping the
        # moments as a third array read 5.01.
        m = parse_measure("powlaw(c=1,gamma=0.25,delta=0)")
        alpha, beta = SpaceIndex(1.5), SpaceIndex(0.5)
        n = 1 << 14
        SectionOp(m, alpha, beta, n)
        tracemalloc.start()
        try:
            SectionOp(m, alpha, beta, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 8 * n

    def test_validation(self):
        with pytest.raises(ValueError):
            SectionOp(LEB, S1, S1, 0)
        with pytest.raises(ValueError):
            SectionOp(LEB, S1, S1, 4, first_row=-1)
        with pytest.raises(ValueError):
            SectionOp(LEB, S1, S1, 4, first_row=5)
        # A size must be an integer, or slicing would raise a TypeError;
        # a numpy integer is one, and is kept as an int.
        for size in (64.0, 64.5, "64"):
            with pytest.raises(ValueError, match="positive integer"):
                SectionOp(LEB, S1, S1, size)
        assert type(SectionOp(LEB, S1, S1, np.int64(4)).size) is int
        # So must a first row.
        for row in (1.5, 2.5, 3.0, "3"):
            with pytest.raises(ValueError, match="first row"):
                SectionOp(LEB, S1, S1, 8, first_row=row)
        assert type(SectionOp(LEB, S1, S1, 8, first_row=np.int64(3)).first_row) is int

    def test_given_weights_are_read_only_prefix_views(self):
        m = parse_measure("atom(0.5,0.5)+powlaw(c=1,gamma=0,delta=0)")
        # Nested and tail sections read prefixes of the weights of the
        # section they derive from, bit-identical to those of a fresh build.
        alpha, beta = SpaceIndex(0.5), SpaceIndex(1.5)
        top = SectionOp(m, alpha, beta, 64)
        for op in (replace(top, size=16), tail_section(top, 20),
                   tail_section(replace(top, size=40), 10)):
            fresh = SectionOp(m, alpha, beta, op.size)
            for got, parent, want in zip(op.weights, top.weights, fresh.weights):
                assert np.shares_memory(got, parent)
                assert got.shape == (op.size,)
                assert not got.flags.writeable
                assert np.array_equal(got, want)
        # Given alone, weights are kept as given, not recomputed.
        w_in, w_row = np.ones(32), np.full(32, 0.5)
        op = SectionOp(m, alpha, beta, 16, weights=(w_in, w_row))
        assert np.shares_memory(op.weights[0], w_in)
        assert np.shares_memory(op.weights[1], w_row)
        assert w_in.flags.writeable and w_row.flags.writeable

    def test_short_moment_array_rejected(self):
        # A section takes no moments, of any length.
        for seq in (moment_sequence(LEB, 7), moment_sequence(LEB, 8)):
            with pytest.raises(TypeError, match="moments"):
                SectionOp(LEB, S1, S1, 8, moments=seq)
        good = np.ones(8)
        for bad in (np.ones(7), np.ones((8, 1))):
            with pytest.raises(ValueError, match="w_in"):
                SectionOp(LEB, S1, S1, 8, weights=(bad, good))
            with pytest.raises(ValueError, match="w_row"):
                SectionOp(LEB, S1, S1, 8, weights=(good, bad))
        with pytest.raises(ValueError):
            SectionOp(LEB, S1, S1, 8, weights=(good,))

    @pytest.mark.parametrize("bad", [0.0, 2.0, -0.5, 300.0, 1000.0])
    def test_index_outside_the_open_range_rejected(self, bad):
        # The characterizations hold for alpha and beta in (0, 2), so every
        # section, and with it every norm profile, is held to that range.
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 2\)"):
            SectionOp(LEB, SpaceIndex(bad), S1, 8)
        with pytest.raises(ValueError, match=r"beta must lie in \(0, 2\)"):
            SectionOp(LEB, S1, SpaceIndex(bad), 8)
        with pytest.raises(ValueError, match=r"must lie in \(0, 2\)"):
            norm_growth_profile(LEB, SpaceIndex(bad), S1, [4, 8])


class TestApply:
    def test_classical_on_constant_one(self):
        op = SectionOp(LEB, S1, S1, 6)
        got = apply(op, CoeffVec([1.0])).coeffs
        want = 1.0 / np.arange(1, 7)
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_atom_half(self):
        op = SectionOp(Measure.atom(0.5, 1.0), S1, S1, 2)
        got = apply(op, CoeffVec([1.0, 1.0])).coeffs
        assert got.tolist() == [1.0, 1.0]

    def test_matches_double_loop_exactly(self):
        rng = np.random.default_rng(3)
        m = parse_measure("atom(0.7,0.5)+powlaw(c=1,gamma=-0.25,delta=0)")
        op = SectionOp(m, SpaceIndex(0.8), SpaceIndex(1.3), 512)
        f = rng.standard_normal(512)
        assert np.array_equal(apply(op, CoeffVec(f)).coeffs, brute_force_apply(op, f))

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_double_loop_property(self, size, seed):
        rng = np.random.default_rng(seed)
        op = SectionOp(LEB, SpaceIndex(1.2), SpaceIndex(0.9), size)
        f = rng.uniform(-2, 2, size=rng.integers(1, size + 1))
        assert np.array_equal(
            apply(op, CoeffVec(f)).coeffs, brute_force_apply(op, f)
        )

    def test_dyadic_scaling_exact(self):
        rng = np.random.default_rng(5)
        op = SectionOp(LEB, S1, S1, 64)
        f = rng.standard_normal(64)
        base = apply(op, CoeffVec(f)).coeffs
        for c in (2.0, 0.25, -8.0):
            assert np.array_equal(apply(op, CoeffVec(c * f)).coeffs, c * base)

    def test_general_scaling_close(self):
        rng = np.random.default_rng(6)
        op = SectionOp(LEB, S1, S1, 64)
        f = rng.standard_normal(64)
        base = apply(op, CoeffVec(f)).coeffs
        got = apply(op, CoeffVec(0.3 * f)).coeffs
        assert np.allclose(got, 0.3 * base, rtol=1e-13, atol=1e-300)

    def test_rejects_long_input(self):
        op = SectionOp(LEB, S1, S1, 4)
        with pytest.raises(ValueError):
            apply(op, CoeffVec([1.0] * 5))


class TestTailSection:
    def test_complements_leading_section(self):
        rng = np.random.default_rng(11)
        op = SectionOp(LEB, SpaceIndex(0.5), SpaceIndex(1.5), 64)
        f = rng.standard_normal(64)
        full = apply(op, CoeffVec(f)).coeffs
        lead = SectionOp(LEB, SpaceIndex(0.5), SpaceIndex(1.5), 21)
        head = apply(lead, CoeffVec(f[:21])).coeffs
        tail = apply(tail_section(op, 20), CoeffVec(f)).coeffs
        assert np.all(tail[:21] == 0.0)
        assert np.array_equal(np.concatenate([head, tail[21:]]), full)

    def test_boundary_rows(self):
        op = SectionOp(LEB, S1, S1, 8)
        f = CoeffVec(np.linspace(1, 2, 8))
        full = apply(op, f).coeffs
        got = apply(tail_section(op, 0), f).coeffs
        assert got[0] == 0.0
        assert np.array_equal(got[1:], full[1:])
        assert np.all(apply(tail_section(op, 7), f).coeffs == 0.0)
        assert section_norm(tail_section(op, 7)).value == 0.0

    def test_shares_the_parent_weights(self):
        op = SectionOp(LEB, SpaceIndex(0.5), SpaceIndex(1.5), 64)
        nested = tail_section(tail_section(op, 40), 10)
        assert nested.first_row == 41
        for derived in (tail_section(op, 20), nested):
            for got, parent in zip(derived.weights, op.weights):
                assert np.shares_memory(got, parent)
                assert np.array_equal(got, parent)
                assert not got.flags.writeable

    def test_range_errors(self):
        op = SectionOp(LEB, S1, S1, 4)
        for bad in (-1, 4, 9, 1.5, 2.5, 3.0, "3"):
            with pytest.raises(ValueError):
                tail_section(op, bad)
        first_row = tail_section(op, np.int64(2)).first_row
        assert first_row == 3 and type(first_row) is int


class TestSectionNorm:
    def test_one_by_one_equals_first_moment(self):
        for a, b in ((0.5, 1.5), (1.0, 1.0), (1.9, 0.1)):
            op = SectionOp(LEB, SpaceIndex(a), SpaceIndex(b), 1)
            est = section_norm(op)
            assert est.method == "lanczos"
            # One step closes the Krylov space, so the value is step 1's,
            # LAPACK's 1 x 1 eigenvalue alpha_1^2, bit for bit: the first
            # moment, as both weights are 1 at n = k = 0.
            mu_0 = moment_sequence(LEB, 1)[0]
            assert (est.value, est.iterations, est.residual) == (mu_0, 1, 0.0)
            assert est.value == pytest.approx(1.0, rel=1e-12)

    def test_lanczos_matches_svd_small(self, dense_norm):
        for expr, a, b in (
            ("lebesgue", 1.0, 1.0),
            ("atom(0.5,1.0)", 0.5, 1.5),
            ("powlaw(c=1,gamma=-0.5,delta=0)", 1.5, 0.5),
            ("atom(0.9,0.25)+powlaw(c=0.5,gamma=0.5,delta=1)", 1.2, 0.8),
        ):
            op = SectionOp(parse_measure(expr), SpaceIndex(a), SpaceIndex(b), 256)
            est = section_norm(op, tol=1e-12)
            assert est.value == pytest.approx(dense_norm(op), rel=1e-12)
            # The stop is relative: the last gap is under tol times the value.
            assert est.residual < 1e-12 * est.value
        # Atom tails near 1e-154, whose squares underflow in plain units;
        # abs=0 because approx's default absolute slack would pass anything.
        atom = parse_measure("atom(0.5,1.0)")
        for a, b in ((1.0, 1.0), (0.5, 1.5), (1.5, 0.5)):
            op = tail_section(SectionOp(atom, SpaceIndex(a), SpaceIndex(b), 1024), 512)
            want = pytest.approx(dense_norm(op), rel=1e-10, abs=0.0)
            assert section_norm(op).value == want, (a, b)
        # Every default-panel entry at the default tol, at the sizes the
        # dense SVD used to serve.
        for name, m, a, b in build_panel(default_config()):
            for n in (64, 512):
                op = SectionOp(m, SpaceIndex(a), SpaceIndex(b), n)
                est = section_norm(op)
                want = dense_norm(op)
                assert est.value == pytest.approx(want, rel=1e-10), (name, a, b, n)

    def test_lanczos_matches_svd_at_2048(self, dense_norm):
        op = SectionOp(LEB, S1, S1, 2048)
        pw = section_norm(op, tol=1e-9)
        assert pw.method == "lanczos"
        assert abs(pw.value - dense_norm(op)) <= 1e-6

    def test_nondecreasing_in_size(self):
        values = [
            section_norm(SectionOp(LEB, SpaceIndex(0.8), SpaceIndex(1.1), n)).value
            for n in (16, 64, 256, 600)
        ]
        assert all(a <= b + 1e-8 for a, b in zip(values, values[1:]))

    def test_value_lower_bounds_matrix_norm(self, dense_norm):
        op = SectionOp(LEB, SpaceIndex(1.3), SpaceIndex(0.9), 300)
        pw = section_norm(op, tol=1e-10)
        assert pw.value <= dense_norm(op) * (1 + 1e-12)

    def test_zero_tail_of_origin_atom(self):
        op = tail_section(SectionOp(Measure.atom(0.0, 1.0), S1, S1, 32), 0)
        est = section_norm(op)
        assert est.value == 0.0

    def test_nonconvergence_flagged_not_raised(self, monkeypatch):
        monkeypatch.setattr(operators, "MAX_ITER", 2)
        op = SectionOp(LEB, S1, S1, 600)
        est = section_norm(op, tol=1e-13)
        assert est.iterations == 2
        assert est.residual > 1e-13
        assert est.value > 0

    def test_argument_validation(self):
        op = SectionOp(LEB, S1, S1, 4)
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                section_norm(op, tol=tol)
        with pytest.raises(ValueError):
            OpNormEstimate(-1.0, 0, 0.0)
        for start in ([], [1.0] * 5, [[1.0]], [1.0, -0.1], [0.0, 1.0],
                      [1.0, math.nan], [math.inf]):
            with pytest.raises(ValueError, match="start"):
                section_norm(op, start=start)

    def test_cold_start_matches_allocating_loop_bitwise(self):
        # Every default-panel entry, full sections at 64 and 8192 and the
        # size-8192 tails above M = 16 and 512.
        for name, m, a, b in build_panel(default_config()):
            big = SectionOp(m, SpaceIndex(a), SpaceIndex(b), 8192)
            small = replace(big, size=64)
            for op in (small, big, tail_section(big, 16), tail_section(big, 512)):
                est = section_norm(op)
                want = reference_section_norm(op)[:3]
                got = (est.value, est.iterations, est.residual)
                assert got == want, (name, a, b, op.size, op.first_row)

    def test_vector_is_the_read_only_unit_iterate(self):
        # The vector is |x| / |x| for x the top Ritz vector cut to its first
        # RITZ_TERMS Lanczos terms; it is built only on request and changes
        # nothing else.
        op = SectionOp(LEB, SpaceIndex(1.5), SpaceIndex(0.5), 256)
        est = section_norm(op, ritz_vector=True)
        assert est.vector.shape == (256,)
        assert not est.vector.flags.writeable
        assert float(np.sum(est.vector**2)) == pytest.approx(1.0, rel=1e-14)
        assert np.all(est.vector > 0.0)
        plain = section_norm(op)
        assert plain.vector is None
        assert (plain.value, plain.iterations, plain.residual) == (
            est.value, est.iterations, est.residual)
        # The same cut of the top eigenvector of B^T B from numpy's eigh.
        _, k, _, vs, diag, off = reference_section_norm(op)
        assert k == est.iterations > operators.RITZ_TERMS
        t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        y = np.linalg.eigh(t)[1][:, -1]
        x = np.abs(sum(c * v for c, v in zip(y[: operators.RITZ_TERMS], vs)))
        assert np.allclose(est.vector, x / np.linalg.norm(x), rtol=1e-9, atol=0.0)
        # ||A x|| lies below the value, by the cut's error: from this cold
        # start the fourth entry of the eigenvector is 5.4e-3 of the first.
        w_in, w_out = conjugation_weights(op)
        image = w_out * np.cumsum(w_in * est.vector)
        rayleigh = math.sqrt(float(np.sum(image**2)))
        assert est.value * (1 - 1e-4) <= rayleigh <= est.value * (1 + 1e-12)
        assert est == OpNormEstimate(est.value, est.iterations, est.residual)
        assert "vector" not in repr(est)

    def test_start_is_extended_by_its_last_entry_then_normalized(self):
        # An all-zero section returns its start vector uniterated.
        op = tail_section(SectionOp(Measure.atom(0.0, 1.0), S1, S1, 100), 0)
        start = np.linspace(2.0, 1.0, 64)
        est = section_norm(op, start=start)
        assert (est.value, est.iterations) == (0.0, 0)
        want = np.concatenate([start, np.full(36, 1.0)])
        assert np.allclose(est.vector, want / np.linalg.norm(want), rtol=1e-15, atol=0)
        tiny = section_norm(op, start=[1e-200]).vector
        assert np.allclose(tiny, 0.1, rtol=1e-15, atol=0)

    def test_passed_buffer_changes_nothing(self):
        m = parse_measure("atom(0.9,0.25)+powlaw(c=0.5,gamma=0.5,delta=1)")
        op = tail_section(SectionOp(m, SpaceIndex(1.5), SpaceIndex(0.5), 1000), 10)
        start = np.linspace(2.0, 1.0, 300)
        for ritz in (False, True):
            want = section_norm(op, start=start, ritz_vector=ritz)
            # Longer than needed and full of NaN: only its head is used,
            # and nothing is read before it is written.
            buffer = np.full(7 * op.size + 5, math.nan)
            got = section_norm(op, start=start, ritz_vector=ritz, buffer=buffer)
            assert (got.value, got.iterations, got.residual) == (
                want.value, want.iterations, want.residual)
            if ritz:
                assert got.vector.tobytes() == want.vector.tobytes()
                assert not np.shares_memory(got.vector, buffer)
            else:
                assert got.vector is None

    def test_buffer_offset_changes_no_byte(self):
        # einsum's reductions must not depend on where the rows start: a
        # buffer shifted by 1 to 7 entries, at an odd size so that the rows
        # also start at every residue, gives the bytes of an aligned one.
        m = parse_measure("atom(0.9,0.25)+powlaw(c=0.5,gamma=0.5,delta=1)")
        op = SectionOp(m, SpaceIndex(1.5), SpaceIndex(0.5), 4099)
        for ritz in (False, True):
            base = np.empty(7 * op.size + 8)
            runs = [section_norm(op, ritz_vector=ritz, buffer=base[offset:])
                    for offset in range(8)]
            want = runs[0]
            for offset, got in enumerate(runs):
                assert (got.value, got.iterations, got.residual) == (
                    want.value, want.iterations, want.residual), (ritz, offset)
                if ritz:
                    assert got.vector.tobytes() == want.vector.tobytes(), offset

    def test_short_or_foreign_buffer_raises(self):
        op = SectionOp(LEB, S1, S1, 64)
        section_norm(op, buffer=np.empty(4 * 64))
        section_norm(op, ritz_vector=True, buffer=np.empty(7 * 64))
        for buffer, ritz in (
            (np.empty(4 * 64 - 1), False),
            (np.empty(4 * 64), True),
            (np.empty(7 * 64, dtype=np.float32), True),
            (np.empty((7, 64)), True),
            ([0.0] * (7 * 64), True),
        ):
            with pytest.raises(ValueError, match="buffer"):
                section_norm(op, ritz_vector=ritz, buffer=buffer)

    def test_zero_section_vector_is_owned_and_read_only(self):
        op = tail_section(SectionOp(Measure.atom(0.0, 1.0), S1, S1, 50), 0)
        buffer = np.empty(4 * 50)
        est = section_norm(op, start=[2.0, 1.0], buffer=buffer)
        assert (est.value, est.iterations) == (0.0, 0)
        assert not est.vector.flags.writeable
        assert not np.shares_memory(est.vector, buffer)
        kept = est.vector.copy()
        buffer.fill(math.nan)
        assert est.vector.tobytes() == kept.tobytes()

    def test_warm_start_from_a_size_that_does_not_divide(self, dense_norm):
        m = parse_measure("atom(0.9,0.25)+powlaw(c=0.5,gamma=0.5,delta=1)")
        alpha, beta = SpaceIndex(1.5), SpaceIndex(0.5)
        op = SectionOp(m, alpha, beta, 100)
        prev = section_norm(replace(op, size=64), ritz_vector=True)
        warm = section_norm(op, start=prev.vector, ritz_vector=True)
        cold = section_norm(op)
        assert warm.vector.shape == (100,)
        assert warm.iterations < cold.iterations
        assert warm.value == pytest.approx(dense_norm(op), rel=1e-8)
        assert warm.value <= dense_norm(op) * (1 + 1e-12)

    @pytest.mark.parametrize("a, b", [(1.5, 0.5), (1.0, 1.0)])
    def test_relative_stop_on_a_tail_near_1e_8(self, a, b):
        # An absolute stop once ended this tail after 3 steps, 3.05 % low
        # at (1.5, 0.5) and 1.20 % low at (1, 1).
        s = 1.0 + (a - b) / 2.0
        m = parse_measure(f"atom(0.5,1.0) + powlaw(c=1e-8, gamma={s - 1.0!r}, delta=0.0)")
        op = tail_section(SectionOp(m, SpaceIndex(a), SpaceIndex(b), 8192), 32)
        est = section_norm(op)
        want = section_norm(op, tol=1e-13).value
        assert est.value == pytest.approx(want, rel=1e-10, abs=0.0)
        assert est.residual < TOL * est.value

    def test_tolerance_below_rounding_still_stops(self):
        # tol * value underflows in the units of this tail near 1e-154, so
        # the stop is tested in the frame: the run stops where the values
        # agree to the last bit instead of running into MAX_ITER, where
        # ghost copies once moved the value 4.6e-9 above the norm.
        atom = parse_measure("atom(0.5,1.0)")
        op = tail_section(SectionOp(atom, S1, S1, 8192), 512)
        est = section_norm(op, tol=1e-300)
        assert est.iterations < MAX_ITER
        assert est.value == pytest.approx(section_norm(op).value, rel=1e-14, abs=0.0)
        assert est.value == pytest.approx(
            reorthogonalized_top_value(op, est.iterations), rel=1e-12, abs=0.0)


class TestHardyConstant:
    """Muckenhoupt's B brackets the norm: B <= norm <= 2B."""

    def test_brackets_the_lanczos_norm(self):
        # Every default-panel section at N = 64, 512 and 8192, and every
        # compactness tail; value / B lies in [1.00003, 1.76] there.
        for name, m, a, b in build_panel(default_config()):
            big = SectionOp(m, SpaceIndex(a), SpaceIndex(b), COMPACT_SIZE)
            ops = [replace(big, size=n) for n in (64, 512)] + [big]
            ops += [tail_section(big, mm) for mm in COMPACT_TRUNCATIONS]
            for op in ops:
                bound = hardy_constant(op)
                value = section_norm(op).value
                where = (name, a, b, op.size, op.first_row)
                assert bound * (1 - 1e-12) <= value <= 2 * bound * (1 + 1e-12), where

    def test_equals_the_formula_written_out(self):
        for name, m, a, b in three_panel_entries(((1.0, 1.0), (0.5, 1.5))):
            op = SectionOp(m, SpaceIndex(a), SpaceIndex(b), 64)
            for section in (op, tail_section(op, 17)):
                w_in, w_out = conjugation_weights(section)
                want = math.sqrt(max(
                    math.fsum(w_in[: k + 1] ** 2) * math.fsum(w_out[k:] ** 2)
                    for k in range(op.size)
                ))
                got = hardy_constant(section)
                assert got == pytest.approx(want, rel=1e-13), (name, a, section.first_row)

    def test_zero_section_and_overflow(self):
        # section_norm and hardy_constant share one power-of-two frame: an
        # all-zero section reads 0, and a value past the double range
        # raises, from an infinite row weight (at beta = 0.1) or from the
        # scale-back of a finite frame (atom(0.9,1.7e308) at (1, 1)).
        origin = tail_section(SectionOp(Measure.atom(0.0, 1.0), S1, S1, 32), 0)
        empty = SectionOp(LEB, S1, S1, 16, first_row=16)
        for value, what in ((hardy_constant, "Hardy constant"),
                            (lambda op: section_norm(op).value, "section norm")):
            assert value(origin) == value(empty) == 0.0
            for expr, beta in (("atom(0.99999,1.7e308)", 0.1), ("atom(0.9,1.7e308)", 1.0)):
                op = SectionOp(parse_measure(expr), S1, SpaceIndex(beta), 16)
                with pytest.raises(ValueError, match=f"size-16 {what} exceeds the double range"):
                    value(op)


class TestLostOrthogonality:
    """The three-term recurrence does not reorthogonalize, and its basis
    loses orthogonality once the top value converges (Paige 1971).  The
    top value must equal that of a fully reorthogonalized Golub-Kahan run
    from the same start over as many steps."""

    @staticmethod
    def _check(op, est, start=None):
        want = reorthogonalized_top_value(op, est.iterations, start)
        assert est.value == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_default_panel_profiles_to_4096(self):
        sizes = [n for n in NORM_SIZES if n <= 4096]
        for name, m, a, b in build_panel(default_config()):
            alpha, beta = SpaceIndex(a), SpaceIndex(b)
            profile = norm_growth_profile(m, alpha, beta, sizes)
            top = SectionOp(m, alpha, beta, sizes[-1])
            start = None
            for n, est in profile:
                op = replace(top, size=n)
                # The profile's own start: the previous size's vector,
                # extended by its last entry.
                if start is not None:
                    start = np.concatenate([start, np.full(n - start.size, start[-1])])
                self._check(op, est, start)
                again = section_norm(op, start=(1.0,) if start is None else start,
                                     ritz_vector=True)
                assert again.value == est.value, (name, a, n)
                start = again.vector

    def test_compactness_tails(self):
        for name, m, a, b in build_panel(default_config()):
            op = SectionOp(m, SpaceIndex(a), SpaceIndex(b), COMPACT_SIZE)
            for mm in (0,) + COMPACT_TRUNCATIONS:
                tail = op if mm == 0 else tail_section(op, mm)
                est = section_norm(tail)
                if est.value > 0.0:
                    self._check(tail, est)


class TestGrowthProfile:
    def test_classical_cesaro_stays_under_bound(self):
        prof = norm_growth_profile(LEB, S1, S1, [64, 128, 256])
        values = [est.value for _, est in prof]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))
        assert values[-1] <= math.sqrt(6.0)

    def test_lowering_beta_grows(self):
        prof = norm_growth_profile(LEB, SpaceIndex(1.5), SpaceIndex(0.5), [64, 256])
        assert prof[1][1].value > 1.8 * prof[0][1].value

    def test_atom_plateaus(self):
        prof = norm_growth_profile(
            Measure.atom(0.5, 1.0), SpaceIndex(1.2), SpaceIndex(0.8), [64, 128, 256]
        )
        assert abs(prof[-1][1].value - prof[-2][1].value) < 1e-6

    def test_sections_share_one_sequence_equal_to_fresh_builds(self, monkeypatch):
        m = parse_measure("atom(0.9,0.25)+powlaw(c=0.5,gamma=0.5,delta=1)")
        alpha, beta = SpaceIndex(0.5), SpaceIndex(1.5)
        seen = []
        buffers = []

        def recording_norm(op, **kwargs):
            seen.append(op)
            buffers.append(kwargs["buffer"])
            return section_norm(op, **kwargs)

        monkeypatch.setattr(operators, "section_norm", recording_norm)
        prof = norm_growth_profile(m, alpha, beta, [64, 512, 1024, 4096])
        assert [op.size for op in seen] == [64, 512, 1024, 4096]
        # One block for every size: 4 rows of the largest, 3 of the next.
        assert all(b is buffers[0] for b in buffers)
        assert buffers[0].shape == (4 * 4096 + operators.RITZ_TERMS * 1024,)
        for op, (n, est) in zip(seen, prof):
            fresh = SectionOp(m, alpha, beta, n)
            for got, want, top in zip(op.weights, fresh.weights, seen[-1].weights):
                assert np.array_equal(got, want)
                assert np.shares_memory(got, top)
            # Larger sizes start warm, so they agree with a cold start to
            # the tolerance, not bitwise.
            assert est.value == pytest.approx(section_norm(fresh).value, rel=1e-8)

    def test_warm_profile_saves_iterations_and_stays_bracketed(self, dense_norm):
        warm_iterations = cold_iterations = 0
        for name, m, a, b in three_panel_entries(((1.0, 1.0), (1.5, 0.5))):
            alpha, beta = SpaceIndex(a), SpaceIndex(b)
            for n, est in norm_growth_profile(m, alpha, beta, [1 << k for k in range(10, 15)]):
                op = SectionOp(m, alpha, beta, n)
                warm_iterations += est.iterations
                cold_iterations += section_norm(op).iterations
                assert est.value >= hardy_constant(op) * (1 - 1e-12), (name, a, n)
            for n, est in norm_growth_profile(m, alpha, beta, [64, 128, 256, 512]):
                op = SectionOp(m, alpha, beta, n)
                assert est.value >= hardy_constant(op) * (1 - 1e-12), (name, a, n)
                assert est.value == pytest.approx(dense_norm(op), rel=1e-8), (name, a, n)
        # Every one of the six takes fewer warm steps than cold ones; all
        # six take 170 against 229.
        assert warm_iterations < cold_iterations

    def test_profile_equals_a_loop_of_allocating_calls(self):
        sizes = [1 << k for k in range(6, 13)]
        for name, m, a, b in three_panel_entries(((1.0, 1.0), (0.5, 1.5))):
            alpha, beta = SpaceIndex(a), SpaceIndex(b)
            profile = norm_growth_profile(m, alpha, beta, sizes)
            top = SectionOp(m, alpha, beta, sizes[-1])
            start = (1.0,)
            for n, est in profile:
                # Each call here allocates its own buffer.
                want = section_norm(replace(top, size=n), start=start,
                                    ritz_vector=n != sizes[-1])
                got = (est.value, est.iterations, est.residual)
                assert got == (want.value, want.iterations, want.residual), (name, a, n)
                if want.vector is None:
                    assert est.vector is None
                else:
                    # Checked after every size ran, so no later size wrote
                    # into an earlier one's vector.
                    assert est.vector.tobytes() == want.vector.tobytes(), (name, a, n)
                start = want.vector
            vectors = [est.vector for _, est in profile[:-1]]
            for i, x in enumerate(vectors):
                assert not x.flags.writeable
                for y in vectors[i + 1 :]:
                    assert not np.shares_memory(x, y)

    def test_profile_ignores_buffer_offset(self, monkeypatch):
        # Every size of a profile run in its block moved by 1 to 7 entries
        # gives the bytes of the profile in its own aligned block.
        sizes = [1000, 2049, 4099]
        m = parse_measure("atom(0.9,0.25)+powlaw(c=0.5,gamma=0.5,delta=1)")
        alpha, beta = SpaceIndex(1.5), SpaceIndex(0.5)

        def record(profile):
            return [(n, est.value, est.iterations, est.residual,
                     None if est.vector is None else est.vector.tobytes())
                    for n, est in profile]

        want = record(norm_growth_profile(m, alpha, beta, sizes))
        for offset in range(1, 8):
            def shifted(op, tol, start, *, ritz_vector, buffer, offset=offset):
                moved = np.empty(buffer.size + offset)[offset:]
                return section_norm(op, tol, start, ritz_vector=ritz_vector, buffer=moved)

            monkeypatch.setattr(operators, "section_norm", shifted)
            assert record(norm_growth_profile(m, alpha, beta, sizes)) == want, offset

    def test_profile_memory_peak(self):
        # One block of 4 * 2^14 + 3 * 2^13 entries, the largest section's
        # two weight vectors, and the vectors the profile returns: the
        # traced peak read 8.61 N doubles; 7 rows of 2^14 would pass 11.
        sizes = [1 << k for k in range(10, 15)]
        norm_growth_profile(LEB, S1, S1, sizes)
        tracemalloc.start()
        try:
            norm_growth_profile(LEB, S1, S1, sizes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.0 * 8 * sizes[-1]

    def test_size_validation(self):
        with pytest.raises(ValueError):
            norm_growth_profile(LEB, S1, S1, [])
        with pytest.raises(ValueError):
            norm_growth_profile(LEB, S1, S1, [64, 64])
        with pytest.raises(ValueError):
            norm_growth_profile(LEB, S1, S1, [0, 4])
        # Neither run as 64 and 128.
        for sizes in ([64.5, 128.9], ["64", "128"]):
            with pytest.raises(ValueError, match="positive integer"):
                norm_growth_profile(LEB, S1, S1, sizes)


def test_reports_ignore_blas_threads(tmp_path):
    # The reductions in the Lanczos recurrence, in the geometric family's
    # normalizer and in the by-parts moment avoid BLAS, whose summation
    # order can depend on the number of threads, so a whole verify run, one
    # large section, one long geometric packet and one by-parts moment are
    # byte-identical under 1 and 2 BLAS threads.
    # Small sections run single-threaded in BLAS anyway; the sizes reach
    # 2^17 so that a BLAS reduction would show in the reports too.  The
    # LAPACK solves on the k x k tridiagonal of a Lanczos run (k <=
    # MAX_ITER; eigvalsh at each step, eigh for the Ritz vector) must give
    # the same bytes under both thread counts too; every norm in the
    # reports goes through them.  The paper checks print too:
    # est_ratio_check reduces its 60,000-term series with BLAS np.dot, and
    # prop1_bound_check runs a section norm and an n + 1 term suffix sweep.
    config = tmp_path / "panel.ini"
    config.write_text(
        "[panel]\n"
        "pairs = 1.0,1.0; 0.5,1.5\n"
        "sizes = 64,128,256,512,1024,8192,131072\n"
        "[measures]\n"
        "leb = lebesgue\n"
        "crit = powlaw(c=1.0, gamma={s-1}, delta=0.0)\n"
        "mix = atom(0.9,0.25) + powlaw(c=0.5, gamma={s-0.5}, delta=1.0)\n",
        encoding="utf-8",
    )
    script = (
        "import sys\n"
        "from cesarobench.analysis import est_ratio_check, prop1_bound_check\n"
        "from cesarobench.cli import main\n"
        "from cesarobench.measures import moment_by_parts, parse_measure\n"
        "from cesarobench.operators import SectionOp, section_norm\n"
        "from cesarobench.spaces import SpaceIndex, truncated_geometric_family\n"
        "assert main(['verify', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "m = parse_measure('powlaw(c=1,gamma=-0.5,delta=0)')\n"
        "op = SectionOp(m, SpaceIndex(0.5), SpaceIndex(1.5), 131072)\n"
        "print(repr(section_norm(op).value))\n"
        "f = truncated_geometric_family(SpaceIndex(0.7), 0.9999, 20000)\n"
        "print(repr(float(f.coeffs[0])))\n"
        "mix = parse_measure('atom(0.9,0.25) + powlaw(c=0.5, gamma=0.5, delta=1.0)')\n"
        "print(repr(moment_by_parts(mix, 1 << 20)))\n"
        "print(repr(est_ratio_check(1.0, [0.3, 0.9, 0.999], 60000)))\n"
        "print(repr(prop1_bound_check(0.9)))\n"
    )
    src = str(Path(cesarobench.__file__).resolve().parent.parent)
    outputs = []
    reports = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"blas-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(config), str(out_dir)],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        outputs.append(done.stdout)
        reports.append(
            [(out_dir / name).read_bytes() for name in ("report.json", "report.csv")]
        )
    assert outputs[0] == outputs[1], outputs
    assert reports[0] == reports[1]
