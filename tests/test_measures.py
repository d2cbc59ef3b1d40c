"""Measure model: parser, tails, moments, by-parts cross-check."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from cesarobench import measures
from cesarobench.analysis import MOMENT_GRID
from cesarobench.cli import build_panel, default_config
from cesarobench.measures import (
    BY_PARTS_N_MAX,
    Measure,
    MeasureSemanticError,
    MeasureSyntaxError,
    dyadic_grid,
    format_measure,
    moment,
    moment_by_parts,
    moment_sequence,
    moments_at,
    parse_measure,
    tail_values,
)
from conftest import (
    PANEL_EXPONENTS,
    SEQUENCE_EXPONENTS,
    SEQUENCE_NS,
    exact_moment,
    worst_moment_error,
)

PANEL = [
    "lebesgue",
    "atom(0.5,1.0)",
    "atom(0.9,1.0)",
    "powlaw(c=1,gamma=0.5,delta=0)",
    "powlaw(c=1,gamma=-0.5,delta=0)",
    "powlaw(c=2,gamma=-0.25,delta=1.5)",
    "atom(0.5,0.5)+powlaw(c=1,gamma=0,delta=0)",
    "atom(0.9,0.25)+powlaw(c=0.5,gamma=0.5,delta=1)",
]


class TestParser:
    def test_lebesgue_sugar(self):
        assert parse_measure("lebesgue") == Measure(densities=((1.0, 0.0, 0.0),))

    def test_atom_literal(self):
        assert parse_measure("atom(0.5,1.0)") == Measure(atoms=((0.5, 1.0),))

    def test_whitespace_ignored(self):
        assert parse_measure("  atom( 0.5 , 1.0 ) +  lebesgue ") == parse_measure(
            "atom(0.5,1.0)+lebesgue"
        )

    def test_scientific_notation(self):
        m = parse_measure("powlaw(c=1e-2,gamma=-5e-1,delta=0)")
        assert m.densities == ((0.01, -0.5, 0.0),)

    def test_atom_at_one_is_semantic_error(self):
        with pytest.raises(MeasureSemanticError) as exc:
            parse_measure("atom(1.0,1.0)")
        assert "1.0" in str(exc.value)

    def test_gamma_at_minus_one_rejected(self):
        with pytest.raises(MeasureSemanticError):
            parse_measure("powlaw(c=1,gamma=-1,delta=0)")

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(MeasureSemanticError):
            parse_measure("atom(0.5,0)")
        with pytest.raises(MeasureSemanticError):
            parse_measure("powlaw(c=-1,gamma=0,delta=0)")
        with pytest.raises(MeasureSemanticError):
            parse_measure("powlaw(c=1,gamma=0,delta=-0.5)")

    def test_nonfinite_literal_rejected(self):
        for expr, token in (
            ("atom(0.5,1e999)", "1e999"),
            ("powlaw(c=1e999,gamma=0,delta=0)", "1e999"),
            ("powlaw(c=1,gamma=2e400,delta=0)", "2e400"),
            ("lebesgue + atom(0.5, -1E+999)", "-1E+999"),
        ):
            with pytest.raises(MeasureSemanticError, match="finite") as exc:
                parse_measure(expr)
            assert exc.value.token == token
            assert exc.value.position == expr.index(token)

    def test_measure_rejects_nonfinite_fields(self):
        for kwargs in (
            {"atoms": ((0.5, math.inf),)},
            {"densities": ((math.inf, 0.0, 0.0),)},
            {"densities": ((1.0, math.inf, 0.0),)},
            {"densities": ((1.0, 0.0, math.inf),)},
            {"densities": ((1.0, math.nan, 0.0),)},
            # Finite fields whose total mass overflows.
            {"atoms": ((0.5, 1e308), (0.6, 1e308))},
            {"densities": ((1e300, -0.99999999999, 0.0),)},
        ):
            with pytest.raises(ValueError, match="finite"):
                Measure(**kwargs)

    def test_syntax_errors_carry_position(self):
        with pytest.raises(MeasureSyntaxError) as exc:
            parse_measure("atom(0.5 1.0)")
        assert exc.value.position == 9
        with pytest.raises(MeasureSyntaxError):
            parse_measure("")
        with pytest.raises(MeasureSyntaxError):
            parse_measure("lebesgue +")
        with pytest.raises(MeasureSyntaxError):
            parse_measure("powlaw(gamma=0,c=1,delta=0)")  # key order is fixed

    # One bad value per rule: the expression, its offending token, and the
    # same value as Measure fields.
    RULE_CASES = [
        ("atom(1.5,1.0)", "1.5", {"atoms": ((1.5, 1.0),)}),
        ("atom(0.5,0)", "0", {"atoms": ((0.5, 0.0),)}),
        ("powlaw(c=-1,gamma=0,delta=0)", "-1", {"densities": ((-1.0, 0.0, 0.0),)}),
        ("powlaw(c=1,gamma=-1,delta=0)", "-1", {"densities": ((1.0, -1.0, 0.0),)}),
        ("powlaw(c=1,gamma=0,delta=-0.5)", "-0.5", {"densities": ((1.0, 0.0, -0.5),)}),
    ]

    @pytest.mark.parametrize(
        "expr, token, fields", RULE_CASES, ids=["t0", "mass", "c", "gamma", "delta"]
    )
    def test_parser_and_measure_share_each_rule_message(self, expr, token, fields):
        with pytest.raises(ValueError) as direct:
            Measure(**fields)
        message, got = str(direct.value).rsplit(", got ", 1)
        assert float(got) == float(token)
        with pytest.raises(MeasureSemanticError) as parsed:
            parse_measure(expr)
        position = expr.rindex(token)
        assert parsed.value.token == token
        assert parsed.value.position == position
        assert str(parsed.value) == (
            f"{message}: offending token {token!r} (at position {position})"
        )

    def test_literal_checked_before_later_syntax(self):
        # Each literal is checked as soon as it is read, so a bad position
        # is reported before the missing comma that follows it.
        with pytest.raises(MeasureSemanticError) as exc:
            parse_measure("atom(1.5 1.0)")
        assert exc.value.token == "1.5"
        assert exc.value.position == 5
        assert "atom position" in str(exc.value)

    def test_panel_round_trip(self):
        for expr in PANEL:
            m = parse_measure(expr)
            assert parse_measure(format_measure(m)) == m


measure_strategy = st.builds(
    Measure,
    atoms=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=0.999),
            st.floats(min_value=1e-3, max_value=10.0),
        ),
        max_size=3,
    ).map(tuple),
    densities=st.lists(
        st.tuples(
            st.floats(min_value=1e-3, max_value=10.0),
            st.floats(min_value=-0.95, max_value=4.0),
            st.floats(min_value=0.0, max_value=4.0),
        ),
        min_size=1,
        max_size=3,
    ).map(tuple),
)


class TestProperties:
    @given(measure_strategy)
    @settings(max_examples=60, deadline=None)
    def test_format_parse_round_trip(self, m):
        assert parse_measure(format_measure(m)) == m

    @given(measure_strategy)
    @settings(max_examples=40, deadline=None)
    def test_tail_nonincreasing(self, m):
        ts = np.linspace(0.0, 0.999, 400)
        vals = tail_values(m, ts)
        assert np.all(np.diff(vals) <= 1e-12)

    @given(measure_strategy)
    @settings(max_examples=40, deadline=None)
    def test_moments_nonincreasing_and_bounded(self, m):
        seq = moment_sequence(m, 40)
        assert np.all(seq >= 0.0)
        assert np.all(np.diff(seq) <= 1e-12 * max(1.0, seq[0]))
        assert np.all(seq <= seq[0] * (1 + 1e-12))


class TestTail:
    def test_lebesgue(self):
        got = tail_values(parse_measure("lebesgue"), [0.25])
        assert got[0] == pytest.approx(0.75, abs=1e-15)

    def test_atom_indicator(self):
        m = parse_measure("atom(0.5,2.0)")
        assert tail_values(m, [0.5, 0.50001]).tolist() == [2.0, 0.0]

    def test_powlaw_antiderivative(self):
        # c=1, gamma=-0.5, delta=0: tail(t) = 2 sqrt(1-t)
        m = parse_measure("powlaw(c=1,gamma=-0.5,delta=0)")
        ts = np.array([0.0, 0.3, 0.75, 0.999, 1 - 2.0**-30])
        assert tail_values(m, ts) == pytest.approx(2.0 * np.sqrt(1.0 - ts), rel=1e-12)

    def test_powlaw_delta_quadrature_oracle(self):
        m = parse_measure("powlaw(c=2,gamma=-0.5,delta=1.5)")
        ts = (0.0, 0.3, 0.9)
        for t, got in zip(ts, tail_values(m, ts)):
            want, err = integrate.quad(
                lambda u: 2.0 * (1 - u) ** -0.5 * u**1.5, t, 1.0, limit=200
            )
            assert got == pytest.approx(want, abs=max(1e-11, 2 * err))

    # Exponent and threshold grids of the relative-accuracy tests.
    GAMMAS = (-0.9, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.5)
    TS = (0.0, 1e-8, 0.3, 0.5, 0.9, 0.999, 1 - 2.0**-30, 1 - 2.0**-52)

    def _assert_relative_accuracy(self, delta, tol):
        # Relative, not absolute, so that the tiny tails near t = 1 count.
        c = 2.0
        for gamma in self.GAMMAS:
            got = tail_values(Measure.powlaw(c, gamma, delta), self.TS)
            with mpmath.workdps(50):
                a, b = mpmath.mpf(gamma) + 1, mpmath.mpf(delta) + 1
                for t, value in zip(self.TS, got):
                    exact = c * mpmath.beta(b, a) * mpmath.betainc(
                        a, b, 0, 1 - mpmath.mpf(t), regularized=True
                    )
                    rel = float(abs((mpmath.mpf(value) - exact) / exact))
                    assert rel <= tol, (gamma, delta, t, rel)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 3.0])
    def test_powlaw_delta_relative_accuracy(self, delta):
        self._assert_relative_accuracy(delta, 1e-14)

    # One delta is a Python int: Measure keeps its fields as given.
    @pytest.mark.parametrize(
        "delta", [1, 2.0, 3.0, 8.0, float(measures._SERIES_DELTA_MAX)]
    )
    def test_integer_delta_series_accuracy(self, delta):
        self._assert_relative_accuracy(delta, 1e-15)

    def test_delta_zero_closed_form_bits(self):
        ts = np.array(self.TS)
        for gamma in self.GAMMAS:
            for delta in (0.0, 0):
                got = tail_values(Measure.powlaw(2.0, gamma, delta), ts)
                want = 2.0 * (1.0 - ts) ** (gamma + 1.0) / (gamma + 1.0)
                assert np.array_equal(got, want), (gamma, delta)

    def test_series_routing(self, monkeypatch):
        cap = measures._SERIES_DELTA_MAX
        m3 = Measure.powlaw(2.0, 0.25, 3.0)
        series = tail_values(m3, self.TS)

        def refuse(*args):
            raise LookupError("betainc called")

        monkeypatch.setattr(measures._sp, "betainc", refuse)
        for d in range(cap + 1):
            tail_values(Measure.powlaw(2.0, 0.25, float(d)), self.TS)
        for delta in (0.5, cap + 1.0):
            with pytest.raises(LookupError):
                tail_values(Measure.powlaw(2.0, 0.25, delta), self.TS)
        monkeypatch.undo()
        # With the cap lowered, delta = 3 takes the betainc route.
        monkeypatch.setattr(measures, "_SERIES_DELTA_MAX", 2)
        mirrored = tail_values(m3, self.TS)
        assert mirrored == pytest.approx(series, rel=1e-14, abs=0.0)

    def test_scalar_threshold_has_the_array_bits(self):
        # numpy's scalar pow differs from its array pow in the last bit for
        # some inputs, so a 0-d threshold must go through the array route.
        ts = np.random.default_rng(3).random(400)
        for expr in (
            "powlaw(c=1.7,gamma=0.3,delta=2)+powlaw(c=0.5,gamma=-0.5,delta=0.5)",
            "atom(0.5,1)+powlaw(c=1,gamma=1.3,delta=0)",
        ):
            m = parse_measure(expr)
            want = tail_values(m, ts)
            got = np.array([tail_values(m, np.float64(t)) for t in ts])
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), expr

    def test_domain(self):
        with pytest.raises(ValueError):
            tail_values(Measure.lebesgue(), [0.5, 1.0])
        with pytest.raises(ValueError):
            tail_values(Measure.lebesgue(), [-0.1])
        with pytest.raises(ValueError):
            tail_values(Measure.lebesgue(), [0.5, math.nan])


def _tail_reference(m: Measure, ts) -> np.ndarray:
    """tail_values as one allocating expression per term, in the order of
    operations tail_values keeps: ((c (1-t)^a) / a) poly and
    (c full) betainc, summed from zeros, atoms first."""
    ts = np.asarray(ts, dtype=float)
    out = np.zeros_like(ts)
    for t0, mass in m.atoms:
        out += np.where(t0 >= ts, mass, 0.0)
    for c, gamma, delta in m.densities:
        a = gamma + 1.0
        if float(delta).is_integer() and delta <= measures._SERIES_DELTA_MAX:
            p, q = a.as_integer_ratio()
            num, den = p, p + int(delta) * q
            poly = num / den
            for j in range(int(delta) - 1, -1, -1):
                num *= (j + 1) * q
                den *= p + j * q
                poly = poly * ts + num / den
            out += c * (1.0 - ts) ** a / a * poly
        else:
            full = math.exp(special.betaln(delta + 1.0, a))
            out += c * full * special.betainc(a, delta + 1.0, 1.0 - ts)
    return out


class TestTailBits:
    """tail_values has the bits of the plain one-expression formula, summed
    from zeros, on every route and threshold shape."""

    DELTAS = (0.0, 1.0, 3.0, 64.0, 65.0, 0.5)
    # gamma = -0.5 and 1.0 make a = 0.5 and 2.0, the exponents that numpy
    # may route to sqrt and square.
    GAMMAS = (-0.9, -0.5, 0.0, 0.25, 1.0, 2.5)
    THRESHOLDS = (
        np.asarray(0.25),
        np.asarray(0.0),
        np.array([0.0, 1e-8, 0.3, 0.5, 0.9, 0.999, 1 - 2.0**-30, 1 - 2.0**-52]),
        np.linspace(0.0, 1.0 - 2.0**-40, 48).reshape(6, 8),
    )

    @staticmethod
    def _assert_same_bits(got, want, label):
        assert type(got) is type(want) and got.shape == want.shape, label
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), label

    @pytest.mark.parametrize("delta", DELTAS)
    def test_matches_the_one_expression_formula(self, delta):
        atoms = ((0.3, 0.7), (0.9, 0.25))
        for gamma in self.GAMMAS:
            density = (1.7, gamma, delta)
            for m in (
                Measure(densities=(density,)),
                Measure(atoms=atoms, densities=(density,)),
                Measure(densities=(density, (0.5, 0.5, 1.0), (2.0, -0.25, 2.5))),
                Measure(atoms=atoms, densities=((0.5, 0.5, 1.0), density)),
            ):
                for ts in self.THRESHOLDS:
                    label = (format_measure(m), ts.shape)
                    self._assert_same_bits(tail_values(m, ts), _tail_reference(m, ts), label)

    def test_scalar_threshold_and_measures_without_densities(self):
        got = tail_values(Measure.lebesgue(), 0.25)
        assert isinstance(got, np.ndarray) and got.shape == () and got == 0.75
        for m in (Measure(), Measure.atom(0.5, 2.0)):
            for ts in self.THRESHOLDS:
                label = (format_measure(m), ts.shape)
                self._assert_same_bits(tail_values(m, ts), _tail_reference(m, ts), label)

    def test_inputs_are_left_unchanged(self):
        ts = np.linspace(0.0, 0.99, 64)
        before = ts.copy()
        tail_values(parse_measure("atom(0.5,1)+powlaw(c=1,gamma=0.5,delta=3)"), ts)
        assert np.array_equal(ts, before)


class TestMoment:
    def test_lebesgue_identity(self):
        leb = Measure.lebesgue()
        for n in range(30):
            assert moment(leb, n) == pytest.approx(1.0 / (n + 1), rel=1e-12)

    def test_atom_power(self):
        assert moment(Measure.atom(0.5, 1.0), 10) == pytest.approx(2.0**-10, rel=1e-15)

    def test_powlaw_beta_value(self):
        # B(4,2) = 0.05 by direct integration of t^3 (1-t)
        assert moment(Measure.powlaw(1.0, 1.0), 3) == pytest.approx(0.05, rel=1e-11)

    def test_atom_at_zero(self):
        m = Measure.atom(0.0, 2.0)
        assert moment(m, 0) == 2.0
        assert moment(m, 1) == 0.0

    @pytest.mark.parametrize("order", [-1, -0.5, math.nan])
    def test_orders_outside_the_domain_raise(self, order):
        # moments_at checks its domain for moment too: below 0 the atom's
        # power and the densities' poch would give inf, 3.414... or nan.
        m = parse_measure("atom(0.5,1)+lebesgue")
        for ns in ([order], [0, 3, order, 5], np.array([2.0, order])):
            with pytest.raises(ValueError, match=f"moment index must be >= 0, got {order!r}"):
                moments_at(m, ns)
        with pytest.raises(ValueError, match=f"moment index must be >= 0, got {order!r}"):
            moment(m, order)

    def test_moment_sequence_of_a_mixture_is_the_sum_of_its_parts(self):
        # Atoms first, then each density's term, added left to right.
        count = 1 << 17
        atoms = ((0.5, 1.0), (0.9, 0.25))
        densities = ((1.0, 0.0, 0.0), (0.5, 0.3, 1.0), (0.2, -0.4, 2.5))
        for with_atoms in (atoms, ()):
            parts = [Measure(atoms=with_atoms)] if with_atoms else []
            parts += [Measure(densities=(d,)) for d in densities]
            want = moment_sequence(parts[0], count)
            for part in parts[1:]:
                want = want + moment_sequence(part, count)
            got = moment_sequence(Measure(atoms=with_atoms, densities=densities), count)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), with_atoms

    def test_moment_sequence_matches_pointwise(self):
        # The sequence's ratio recurrence keeps every entry within 1e-12 of
        # mpmath up to 2^20, on each panel exponent pair, the two where a
        # plain quotient drifts, and the mixtures with their atoms.
        count = SEQUENCE_NS[-1] + 1
        for gamma, delta in SEQUENCE_EXPONENTS:
            m = Measure.powlaw(1.0, gamma, delta)
            assert worst_moment_error(m, moment_sequence(m, count)) <= 1e-12, (gamma, delta)
        for expr in PANEL:
            m = parse_measure(expr)
            assert worst_moment_error(m, moment_sequence(m, count)) <= 1e-12, expr
        # moments_at evaluates each entry on its own, so a grid agrees with
        # moment bit for bit.  The last measure overflows Gamma and poch,
        # taking the log route.
        for expr in PANEL + ["powlaw(c=1,gamma=200,delta=300) + atom(0.5,1.0)"]:
            m = parse_measure(expr)
            grid = moments_at(m, MOMENT_GRID)
            for i, n in enumerate(MOMENT_GRID):
                assert grid[i] == moment(m, n)


class TestMomentAccuracy:
    # The dyadic grid of the moment engine, and the band where scipy's
    # poch switches from its log-gamma difference to its asymptotic series.
    NS = dyadic_grid(1 << 20) + list(range(5000, 10001, 10))

    def test_panel_exponents_against_mpmath(self):
        for gamma, delta in PANEL_EXPONENTS:
            m = Measure.powlaw(1.0, gamma, delta)
            for n in self.NS:
                exact = exact_moment(m, n)
                rel = float(abs((mpmath.mpf(moment(m, n)) - exact) / exact))
                assert rel <= 1e-10, (gamma, delta, n, rel)

    @pytest.mark.parametrize("gamma", [60.0, 170.0, 200.0])
    @pytest.mark.parametrize("delta", [0.0, 300.0, 1e6])
    def test_extreme_exponents_stay_finite_and_accurate(self, gamma, delta):
        # Gamma(gamma+1) and poch(n+delta+1, gamma+1) overflow here, so the
        # plain quotient would give inf, nan or a spurious 0.
        # moment_sequence starts from the same mu_0 and is held to the
        # same rule.
        m = Measure.powlaw(1.0, gamma, delta)
        seq = moment_sequence(m, (1 << 20) + 1)
        for n in (0, 1, 10, 1000, 1 << 20):
            exact = exact_moment(m, n)
            for got in (moment(m, n), float(seq[n])):
                assert math.isfinite(got) and got >= 0.0, (gamma, delta, n, got)
                if exact >= 1e-300:
                    rel = float(abs((mpmath.mpf(got) - exact) / exact))
                    assert rel <= 1e-7, (gamma, delta, n, got, exact)
                else:
                    assert got <= 1e-300, (gamma, delta, n, got, exact)


class TestMomentByParts:
    def test_lebesgue_n2(self):
        # oracle: 2 * int t (1-t) dt = 1/3
        got = moment_by_parts(Measure.lebesgue(), 2)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_atom_n4(self):
        # oracle: 4 * int_0^{1/2} t^3 dt = 1/16
        got = moment_by_parts(Measure.atom(0.5, 1.0), 4)
        assert got == pytest.approx(0.0625, abs=1e-8)

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            moment_by_parts(Measure.lebesgue(), 0)

    def test_parts_identity_on_panel(self):
        # Within 1e-7 relative of the direct moment, or 1e-20 absolute
        # where the moment itself lies below 1e-20.
        for expr in PANEL:
            m = parse_measure(expr)
            for n in sorted(set(range(1, 65)) | set(dyadic_grid(1 << 20))):
                direct = moment(m, n)
                bound = max(1e-7 * direct, 1e-20)
                assert abs(moment_by_parts(m, n) - direct) <= bound, (expr, n)

    def test_endpoint_singular_density(self):
        m = parse_measure("atom(0.9,0.25)+powlaw(c=0.5,gamma=-0.9,delta=1)")
        for n in (1, 5, 33, 64):
            assert abs(moment_by_parts(m, n) - moment(m, n)) <= 1e-7

    def test_rejects_n_past_its_accuracy_limit(self):
        assert BY_PARTS_N_MAX == 2**32
        got = moment_by_parts(Measure.lebesgue(), 2**32)
        assert got == pytest.approx(1.0 / (2**32 + 1), rel=1e-7)
        with pytest.raises(ValueError, match=str(2**32)):
            moment_by_parts(Measure.lebesgue(), 2**32 + 1)

    def test_large_n(self):
        # The docstring promises 1e-7 relative up to n = 2^32.
        for n in (100_000, 1 << 32):
            got = moment_by_parts(Measure.lebesgue(), n)
            assert got == pytest.approx(1.0 / (n + 1), rel=1e-7), n

    def test_worst_error_against_mpmath_up_to_2_20(self):
        # Rounding, not the rule's order, sets the error: the worst read
        # 1.35e-11, and 1.78e-11 with 24 points a panel.  A moment below
        # the 1e-20 floor need only lie within 1e-20 of its exact value.
        exprs = PANEL + ["atom(0.9,0.25)+powlaw(c=0.5,gamma=-0.9,delta=1)"]
        ns = sorted(set(range(1, 65)) | set(SEQUENCE_NS[1:]))
        worst = 0.0
        for expr in exprs:
            m = parse_measure(expr)
            for n in ns:
                got = moment_by_parts(m, n)
                exact = exact_moment(m, n)
                if exact < 1e-20:
                    assert abs(got - float(exact)) <= 1e-20, (expr, n)
                    continue
                error = float(abs((mpmath.mpf(got) - exact) / exact))
                worst = max(worst, error)
        assert worst <= 5e-11, worst


# The by-parts node set as the moment_by_parts docstring describes it.
_BY_PARTS_EDGES = np.unique(
    [0.0, 1.0] + [0.5**j for j in range(1, 46)] + [1.0 - 0.5**j for j in range(1, 46)]
)
_BY_PARTS_NS = list(range(1, 65)) + [1 << k for k in range(7, 33)]


def _by_parts_reference(m: Measure, n: int) -> float:
    """The quadrature of mu([u^{1/n},1)) du on the documented panels."""
    nodes, weights = np.polynomial.legendre.leggauss(12)
    half = 0.5 * np.diff(_BY_PARTS_EDGES)[:, None]
    us = _BY_PARTS_EDGES[:-1, None] + half * (1.0 + nodes)
    ts = np.minimum(us ** (1.0 / n), np.nextafter(1.0, 0.0))
    return float(np.sum(half * weights * tail_values(m, ts)))


class TestMomentByPartsClosedForm:
    """Atoms enter in closed form; densities keep the documented quadrature."""

    def test_atom_free_measures_match_the_documented_quadrature(self):
        for expr in PANEL:
            m = parse_measure(expr)
            if m.atoms:
                continue
            for n in _BY_PARTS_NS:
                assert moment_by_parts(m, n) == _by_parts_reference(m, n), (expr, n)

    @pytest.mark.parametrize(
        "expr",
        ["atom(0.5,1.0)", "atom(0.9,1.0)", "atom(0.0,2.0)", "atom(0.3,0.7)+atom(0.99,1.5)"],
    )
    def test_pure_atoms_are_their_closed_form(self, expr):
        m = parse_measure(expr)
        for n in _BY_PARTS_NS:
            assert moment_by_parts(m, n) == sum(mass * t0**n for t0, mass in m.atoms)

    @pytest.mark.parametrize("expr", ["atom(0.5,1.0)", "atom(0.9,1.0)"])
    def test_panel_atoms_have_zero_abs_diff_in_the_moments_table(self, expr):
        # As the README states for the moments table up to n = 2^20.
        m = parse_measure(expr)
        for n in dyadic_grid(1 << 20):
            assert moment_by_parts(m, n) == moment(m, n), n

    def test_mixture_is_atoms_plus_its_density_part(self):
        for expr in PANEL:
            m = parse_measure(expr)
            if not (m.atoms and m.densities):
                continue
            density_only = Measure(densities=m.densities)
            for n in _BY_PARTS_NS:
                steps = sum(mass * t0**n for t0, mass in m.atoms)
                assert moment_by_parts(m, n) == steps + moment_by_parts(density_only, n)

    def test_mixed_templates_against_mpmath(self):
        panel = build_panel(default_config())
        mixed = [m for name, m, _, _ in panel if name in ("mix_atom_crit", "mix_atom_sub")]
        assert len(mixed) == 10
        for m in mixed:
            for n in (1, 7, 64, 1 << 20, 1 << 32):
                exact = exact_moment(m, n)
                with mpmath.workdps(40):
                    rel = abs((mpmath.mpf(moment_by_parts(m, n)) - exact) / exact)
                assert rel <= 1e-7, (format_measure(m), n, float(rel))


class TestMomentByPartsAllocation:
    def test_mixture_builds_no_measure(self, monkeypatch):
        # The densities' tails are read from m.densities directly: no
        # Measure is rebuilt, so Measure.__post_init__ (and its betaln)
        # never runs.
        m = parse_measure("atom(0.9,0.25)+powlaw(c=0.5,gamma=0.5,delta=1)+lebesgue")
        want = [moment_by_parts(m, n) for n in (1, 7, 1 << 20)]
        calls = []
        original = Measure.__post_init__

        def counting(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(Measure, "__post_init__", counting)
        assert [moment_by_parts(m, n) for n in (1, 7, 1 << 20)] == want
        assert calls == []
        Measure.lebesgue()
        assert len(calls) == 1


class TestMomentsAtAtoms:
    """moments_at skips pow where an atom's power rounds to +0, bit for bit."""

    @pytest.mark.parametrize("t0", [0.0, 0.5, 0.9, 0.99, 1.0 - 2.0**-20])
    def test_matches_the_plain_power(self, t0):
        rng = np.random.default_rng(7)
        sparse = rng.permutation(np.unique(rng.integers(0, 1 << 20, 4096))).astype(float)
        for ns in (np.arange(1 << 17, dtype=float), sparse):
            got = moments_at(Measure.atom(t0, 0.75), ns)
            want = 0.75 * t0**ns
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), t0


def test_dyadic_grid():
    assert dyadic_grid(64) == [1, 2, 4, 8, 16, 32, 64]
    assert dyadic_grid(100) == [1, 2, 4, 8, 16, 32, 64]
    with pytest.raises(ValueError):
        dyadic_grid(0)
