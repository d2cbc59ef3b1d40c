"""Section operators: application, tail sections, norm estimation."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cesarobench
from cesarobench import operators
from cesarobench.cli import PanelConfig, build_panel, default_config
from cesarobench.measures import Measure, moment, moment_sequence, parse_measure
from cesarobench.operators import (
    MAX_ITER,
    TOL,
    OpNormEstimate,
    SectionOp,
    apply,
    norm_growth_profile,
    section_norm,
    tail_section,
)
from cesarobench.spaces import CoeffVec, SpaceIndex
from conftest import conjugation_weights

LEB = Measure.lebesgue()
S1 = SpaceIndex(1.0)


def brute_force_apply(op: SectionOp, f: np.ndarray) -> np.ndarray:
    out = np.zeros(op.size)
    for n in range(op.size):
        acc = 0.0
        for k in range(min(n + 1, f.size)):
            acc += f[k]
        if n >= op.first_row:
            out[n] = op.moments[n] * acc
    return out


def reference_section_norm(op: SectionOp, tol: float = TOL):
    """Cold-start power iteration as plain allocating expressions: the
    operation order section_norm's in-place buffers must keep bit for bit.
    Returns (value, iterations, residual)."""
    w_in, w_out = conjugation_weights(op)
    peak = float(np.max(w_out))
    if peak == 0.0:
        return 0.0, 0, 0.0
    scale = math.frexp(peak)[1] - 1
    w_out = np.ldexp(w_out, -scale)
    unit = math.ldexp(1.0, scale)
    v = np.full(op.size, 1.0 / math.sqrt(op.size))
    sigma_prev = None
    sigma = 0.0
    residual = math.inf
    for iteration in range(1, MAX_ITER + 1):
        av = w_out * np.cumsum(w_in * v)
        sigma = math.sqrt(float(np.sum(av * av))) * unit
        if sigma_prev is not None:
            residual = abs(sigma - sigma_prev)
            if residual < tol:
                return sigma, iteration, residual
        sigma_prev = sigma
        btv = w_in * np.cumsum((w_out * av)[::-1])[::-1]
        v = btv / math.sqrt(float(np.sum(btv * btv)))
    return sigma, MAX_ITER, residual


def hardy_lower_bound(op: SectionOp) -> float:
    """B = max_m sqrt(sum_{k<=m} w_in_k^2 * sum_{n>=m} w_out_n^2) <= ||A||,
    from the weights written out rather than taken from operators."""
    w_in, w_out = conjugation_weights(op)
    head = np.cumsum(w_in * w_in)
    tail = np.cumsum((w_out * w_out)[::-1])[::-1]
    return math.sqrt(float(np.max(head * tail)))


class TestSectionOp:
    def test_moments_match_measure(self):
        op = SectionOp(LEB, S1, S1, 16)
        for n in (0, 3, 15):
            assert op.moments[n] == moment(LEB, n)

    def test_moments_read_only(self):
        op = SectionOp(LEB, S1, S1, 4)
        with pytest.raises(ValueError):
            op.moments[0] = 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SectionOp(LEB, S1, S1, 0)
        with pytest.raises(ValueError):
            SectionOp(LEB, S1, S1, 4, first_row=-1)
        with pytest.raises(ValueError):
            SectionOp(LEB, S1, S1, 4, first_row=5)

    def test_given_moments_are_a_read_only_prefix_view(self):
        m = parse_measure("atom(0.5,0.5)+powlaw(c=1,gamma=0,delta=0)")
        seq = moment_sequence(m, 64)
        op = SectionOp(m, S1, S1, 16, moments=seq)
        assert np.shares_memory(op.moments, seq)
        assert op.moments.shape == (16,)
        assert np.array_equal(op.moments, SectionOp(m, S1, S1, 16).moments)
        with pytest.raises(ValueError):
            op.moments[0] = 2.0
        assert seq.flags.writeable
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
        with pytest.raises(ValueError, match="moments"):
            SectionOp(LEB, S1, S1, 8, moments=moment_sequence(LEB, 7))
        with pytest.raises(ValueError, match="moments"):
            SectionOp(LEB, S1, S1, 8, moments=np.ones((8, 1)))
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

    def test_shares_the_parent_moments(self):
        op = SectionOp(LEB, SpaceIndex(0.5), SpaceIndex(1.5), 64)
        nested = tail_section(tail_section(op, 40), 10)
        assert nested.first_row == 41
        for derived in (tail_section(op, 20), nested):
            assert np.shares_memory(derived.moments, op.moments)
            assert np.array_equal(derived.moments, op.moments)
            assert not derived.moments.flags.writeable

    def test_range_errors(self):
        op = SectionOp(LEB, S1, S1, 4)
        for bad in (-1, 4, 9):
            with pytest.raises(ValueError):
                tail_section(op, bad)


class TestSectionNorm:
    def test_one_by_one_equals_first_moment(self):
        for a, b in ((0.5, 1.5), (1.0, 1.0), (1.9, 0.1)):
            op = SectionOp(LEB, SpaceIndex(a), SpaceIndex(b), 1)
            est = section_norm(op)
            assert est.method == "power_iteration"
            assert est.value == pytest.approx(op.moments[0], rel=1e-14)
            assert est.value == pytest.approx(1.0, rel=1e-12)

    def test_power_matches_svd_small(self, dense_norm):
        for expr, a, b in (
            ("lebesgue", 1.0, 1.0),
            ("atom(0.5,1.0)", 0.5, 1.5),
            ("powlaw(c=1,gamma=-0.5,delta=0)", 1.5, 0.5),
            ("atom(0.9,0.25)+powlaw(c=0.5,gamma=0.5,delta=1)", 1.2, 0.8),
        ):
            op = SectionOp(parse_measure(expr), SpaceIndex(a), SpaceIndex(b), 256)
            pw = section_norm(op, tol=1e-12)
            assert pw.value == pytest.approx(dense_norm(op), rel=1e-8)
            assert pw.residual <= 1e-12
        # Atom tails near 1e-154, whose squares underflow in plain units;
        # abs=0 because approx's default absolute slack would pass anything.
        atom = parse_measure("atom(0.5,1.0)")
        for a, b in ((1.0, 1.0), (0.5, 1.5), (1.5, 0.5)):
            op = tail_section(SectionOp(atom, SpaceIndex(a), SpaceIndex(b), 1024), 512)
            want = pytest.approx(dense_norm(op), rel=1e-8, abs=0.0)
            assert section_norm(op).value == want, (a, b)
        # Every default-panel entry at the default tol, at the sizes the
        # dense SVD used to serve.
        for name, m, a, b in build_panel(default_config()):
            for n in (64, 512):
                op = SectionOp(m, SpaceIndex(a), SpaceIndex(b), n)
                pw = section_norm(op)
                want = dense_norm(op)
                assert pw.value == pytest.approx(want, rel=1e-8), (name, a, b, n)

    def test_power_matches_svd_at_2048(self, dense_norm):
        op = SectionOp(LEB, S1, S1, 2048)
        pw = section_norm(op, tol=1e-9)
        assert pw.method == "power_iteration"
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
            small = SectionOp(m, SpaceIndex(a), SpaceIndex(b), 64, moments=big.moments)
            for op in (small, big, tail_section(big, 16), tail_section(big, 512)):
                est = section_norm(op)
                want = reference_section_norm(op)
                got = (est.value, est.iterations, est.residual)
                assert got == want, (name, a, b, op.size, op.first_row)

    def test_vector_is_the_read_only_unit_iterate(self):
        op = SectionOp(LEB, SpaceIndex(1.5), SpaceIndex(0.5), 256)
        est = section_norm(op)
        assert est.vector.shape == (256,)
        assert not est.vector.flags.writeable
        assert float(np.sum(est.vector**2)) == pytest.approx(1.0, rel=1e-14)
        assert np.all(est.vector > 0.0)
        # ||A v|| is the reported value.
        w_in, w_out = conjugation_weights(op)
        image = w_out * np.cumsum(w_in * est.vector)
        assert math.sqrt(float(np.sum(image**2))) == pytest.approx(est.value, rel=1e-14)
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

    def test_warm_start_from_a_size_that_does_not_divide(self, dense_norm):
        m = parse_measure("atom(0.9,0.25)+powlaw(c=0.5,gamma=0.5,delta=1)")
        alpha, beta = SpaceIndex(1.5), SpaceIndex(0.5)
        seq = moment_sequence(m, 100)
        prev = section_norm(SectionOp(m, alpha, beta, 64, moments=seq))
        op = SectionOp(m, alpha, beta, 100, moments=seq)
        warm = section_norm(op, start=prev.vector)
        cold = section_norm(op)
        assert warm.vector.shape == (100,)
        assert warm.iterations < cold.iterations
        assert warm.value == pytest.approx(dense_norm(op), rel=1e-8)
        assert warm.value <= dense_norm(op) * (1 + 1e-12)


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

        def recording_norm(op, **kwargs):
            seen.append(op)
            return section_norm(op, **kwargs)

        monkeypatch.setattr(operators, "section_norm", recording_norm)
        prof = norm_growth_profile(m, alpha, beta, [64, 512, 1024, 4096])
        assert [op.size for op in seen] == [64, 512, 1024, 4096]
        for op, (n, est) in zip(seen, prof):
            fresh = SectionOp(m, alpha, beta, n)
            assert np.array_equal(op.moments, fresh.moments)
            # Larger sizes start warm, so they agree with a cold start to
            # the tolerance, not bitwise.
            assert est.value == pytest.approx(section_norm(fresh).value, rel=1e-8)
            assert np.shares_memory(op.moments, seen[-1].moments)

    def test_warm_profile_saves_iterations_and_stays_bracketed(self, dense_norm):
        names = ("lebesgue", "powlaw_near", "mix_atom_crit")
        config = PanelConfig(
            measures=tuple(e for e in default_config().measures if e[0] in names),
            pairs=((1.0, 1.0), (1.5, 0.5)),
        )
        warm_iterations = cold_iterations = 0
        for name, m, a, b in build_panel(config):
            alpha, beta = SpaceIndex(a), SpaceIndex(b)
            for n, est in norm_growth_profile(m, alpha, beta, [1 << k for k in range(10, 15)]):
                op = SectionOp(m, alpha, beta, n)
                warm_iterations += est.iterations
                cold_iterations += section_norm(op).iterations
                assert est.value >= hardy_lower_bound(op) * (1 - 1e-12), (name, a, n)
            for n, est in norm_growth_profile(m, alpha, beta, [64, 128, 256, 512]):
                op = SectionOp(m, alpha, beta, n)
                assert est.value >= hardy_lower_bound(op) * (1 - 1e-12), (name, a, n)
                assert est.value == pytest.approx(dense_norm(op), rel=1e-8), (name, a, n)
        # Lebesgue measure at (1.5, 0.5) alone takes a few more warm steps
        # than cold ones (53 against 50); the six take 304 against 479.
        assert warm_iterations < cold_iterations

    def test_size_validation(self):
        with pytest.raises(ValueError):
            norm_growth_profile(LEB, S1, S1, [])
        with pytest.raises(ValueError):
            norm_growth_profile(LEB, S1, S1, [64, 64])
        with pytest.raises(ValueError):
            norm_growth_profile(LEB, S1, S1, [0, 4])


def test_power_iteration_norm_ignores_blas_threads(tmp_path):
    # The reductions in the power iteration, in the geometric family's
    # normalizer and in the by-parts moment avoid BLAS, whose summation
    # order can depend on the number of threads, so a whole verify run, one
    # large section, one long geometric packet and one by-parts moment are
    # byte-identical under 1 and 2 BLAS threads.
    # Small sections run single-threaded in BLAS anyway; the sizes reach
    # 2^17 so that a BLAS reduction would show in the reports too.
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
