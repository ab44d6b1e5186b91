"""Closed-form period entries, block periods, quadrature routes, and the
Euler-integral pairings."""

import cmath
import math
import re
import time
import warnings
from unittest import mock

import level_by_level_quadrature as reference
import numpy as np
import pytest
from hypothesis import assume, given, settings
from strategies import endpoint_exponents, uniform, wirtinger_params

from twistedperiods.hypergeom import (HypergeomError, beta_real, gamma_real,
                                      gauss_2f1)
from twistedperiods.matrices import (AdmissibilityError, HgParams,
                                     unit_phase)
from twistedperiods.periods import (SHIFT_RULES, PeriodError, block_periods,
                                    euler_pairing, euler_pairing_closed,
                                    period_matrices, period_matrix,
                                    wirtinger_quadrature)
from twistedperiods import periods, quadrature, series, verify
from twistedperiods.quadrature import QuadratureError, tanh_sinh
from twistedperiods.series import TauPoint, lambda_tau, theta_constants
from twistedperiods.verify import SWEEP_TAUS, sample_admissible

P_REF = HgParams(0.30, 0.21, 0.77)
TAU_I = TauPoint(1j)


def period(i, j, p, tau):
    """Period of cocycle i over cycle j (both 1..4), by the closed forms."""
    return period_matrix(p, tau)[i - 1, j - 1]


def block_nodes() -> int:
    """The number of nodes of levels 0.._BLOCK, which one integrand call
    covers."""
    return sum(quadrature._level_nodes(level)[0].size
               for level in range(quadrature._BLOCK + 1))


# 30-digit oracle: Gamma(0.3) Gamma(0.47) / (2 Gamma(0.77)) *
# th2^1.54 th3^-1.02 th4^-0.52 * 2F1(0.3, 0.21, 0.77; 0.5) at tau = i
ENTRY_31_REF = 2.075818212282446322824


class TestTanhSinh:
    def test_beta_integral(self):
        # int_0^1 t^(-1/2) (1-t)^(-1/2) dt = pi
        val = tanh_sinh(lambda x, dl, dr: dl**-0.5 * dr**-0.5, 0.0, 1.0)
        assert complex(val).real == pytest.approx(math.pi, rel=1e-13)

    def test_endpoint_singularity(self):
        val = tanh_sinh(lambda x, dl, dr: dl**-0.5, 0.0, 1.0)
        assert complex(val).real == pytest.approx(2.0, rel=1e-13)

    def test_smooth_integrand(self):
        val = tanh_sinh(lambda x, dl, dr: np.exp(x), 0.0, 1.0)
        assert complex(val).real == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_interval_validation(self):
        with pytest.raises(QuadratureError, match="need a < b"):
            tanh_sinh(lambda x, dl, dr: x, 1.0, 0.0)

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (0.0, math.inf),
                                      (-1e308, 1e308)])
    def test_interval_without_a_finite_width_refused(self, a, b):
        # b - a is NaN or infinite: the interval is refused before the
        # integrand is called, not blamed on its values
        with pytest.raises(QuadratureError,
                           match="need a < b and endpoint exponents > -1"):
            tanh_sinh(lambda x, dl, dr: pytest.fail("integrand called"),
                      a, b)

    @pytest.mark.parametrize("eps, e", [(1e-6, -0.99), (1e-9, -0.999)])
    def test_endpoint_tail_of_a_power_near_minus_one(self, eps, e):
        # int_0^1 (1 + eps t^e) dt = 1 + eps / (e + 1); below the last
        # node, at about 6e-276, lies the fraction 6e-276^(e + 1) (0.002
        # and 0.53) of the power's part, so the end with exponent e is
        # subtracted and integrated in closed form
        def f(x, dl, dr):
            return 1.0 + eps * dl**e
        exact = 1.0 + eps / (e + 1.0)
        assert tanh_sinh(f, 0.0, 1.0, (e, 0.0)).real == pytest.approx(
            exact, rel=1e-12)
        mirrored = tanh_sinh(lambda x, dl, dr: f(x, dr, dl), 0.0, 1.0,
                             (0.0, e))
        assert mirrored.real == pytest.approx(exact, rel=1e-12)

    def test_unknown_exponent_near_minus_one_raises(self):
        # without exponents nothing is subtracted, and the part of
        # 1e-6 t^-0.97 below the last node, about 1.8e-13, is above
        # rounding: the call raises instead of estimating it
        with pytest.raises(QuadratureError,
                           match="pass the endpoint exponents"):
            tanh_sinh(lambda x, dl, dr: 1.0 + 1e-6 * dl**-0.97, 0.0, 1.0)

    @pytest.mark.parametrize("exponents", [(-0.5, -0.25), (-0.94, 0.3)])
    def test_exponents_above_the_threshold_change_nothing(self, exponents):
        # an end whose part below the last node is below rounding is
        # summed as it is, bit for bit
        e0, e1 = exponents

        def f(x, dl, dr):
            return dl**e0 * dr**e1 * np.cos(x)
        assert (tanh_sinh(f, 0.0, 1.0, exponents)
                == tanh_sinh(f, 0.0, 1.0))

    @pytest.mark.parametrize("exponents", [(-1.0, 0.0), (0.0, -1.5),
                                           (math.nan, 0.0)])
    def test_exponents_must_exceed_minus_one(self, exponents):
        with pytest.raises(QuadratureError, match="endpoint exponents > -1"):
            tanh_sinh(lambda x, dl, dr: x, 0.0, 1.0, exponents)

    def test_non_finite_integrand_raises_at_its_first_level(self):
        # the log of a negative number on the level-2 nodes, an overflow to
        # inf at level 0: each raises at the level where it first appears,
        # and no RuntimeWarning escapes (the pytest configuration makes one
        # an error).  Levels 0.._BLOCK come in one call, in order of t, at
        # the positions _block_slice gives
        calls = []

        def level_2_nan(x, dl, dr):
            calls.append(x.size)
            arg = np.ones_like(x)
            arg[quadrature._block_slice(1)] = 0.25
            arg[quadrature._block_slice(2)] = -0.5
            return np.log(arg)
        with pytest.raises(QuadratureError,
                           match="non-finite value nan at level 2"):
            tanh_sinh(level_2_nan, 0.0, 1.0)
        assert calls == [block_nodes()]
        with pytest.raises(QuadratureError,
                           match="non-finite value inf at level 0"):
            tanh_sinh(lambda x, dl, dr: 1e300 * dl**-0.99, 0.0, 1.0,
                      (-0.99, 0.0))

    def test_no_tail_where_the_end_value_is_zero(self):
        # f vanishes at the outermost nodes, so nothing lies below them;
        # the sum alone is the integral of 1 over (1e-100, 1)
        def f(x, dl, dr):
            return np.where(dl < 1e-100, 0.0, 1.0)
        assert tanh_sinh(f, 0.0, 1.0).real == pytest.approx(1.0, rel=1e-12)

    def test_cached_nodes_read_only(self):
        for level in range(quadrature._LEVELS + 1):
            nodes = quadrature._level_nodes(level)
            assert quadrature._level_nodes(level) is nodes
            rebuilt = quadrature._level_nodes.__wrapped__(level)
            for cached, fresh in zip(nodes, rebuilt):
                assert np.array_equal(cached, fresh)
                assert not cached.flags.writeable
                with pytest.raises(ValueError):
                    cached[0] = 0.5

    @pytest.mark.parametrize("level", range(quadrature._LEVELS + 1))
    def test_every_level_keeps_its_full_grid(self, level):
        # 13 integer nodes on [-6, 6] at level 0, the 6 * 2^l odd
        # multiples of 2^-l after it: no endpoint distance underflows
        sigma, comp, w = quadrature._level_nodes(level)
        assert sigma.size == comp.size == w.size == (
            13 if level == 0 else 6 * 2**level)
        assert sigma.min() > 0.0

    def test_block_ends_are_level_0_s_ends(self):
        # the values the endpoint pass reads
        sigma = quadrature._level_nodes(0)[0]
        assert quadrature._BLOCK_SIGMA[0] == sigma[0]
        assert quadrature._BLOCK_SIGMA[-1] == sigma[-1]

    @pytest.mark.parametrize("level", range(quadrature._LEVELS + 1))
    def test_nodes_mirror_symmetric(self, level):
        # integrands may read their values at dr as those at dl reversed
        sigma, comp, w = quadrature._level_nodes(level)
        assert comp.tobytes() == sigma[::-1].tobytes()
        assert w.tobytes() == w[::-1].tobytes()

    def test_repeated_calls_identical(self):
        def f(x, dl, dr):
            return dl**-0.5 * dr**-0.25 * np.cos(3.0 * x)
        assert tanh_sinh(f, 0.2, 1.7) == tanh_sinh(f, 0.2, 1.7)

    def test_more_levels_same_value_when_converged(self, monkeypatch):
        def f(x, dl, dr):
            return dl**-0.5 * dr**-0.5
        default = tanh_sinh(f, 0.0, 1.0)
        monkeypatch.setattr(quadrature, "_LEVELS", 12)
        assert tanh_sinh(f, 0.0, 1.0) == default

    def test_levels_past_the_cached_tables(self, monkeypatch):
        # cos(3000 x) converges at level 11, one past the default depth:
        # one call for levels 0.._BLOCK, then one per level
        sums = []

        def f(x, dl, dr):
            sums.append(x.size)
            return np.cos(3000.0 * x)
        monkeypatch.setattr(quadrature, "_LEVELS", 12)
        val = tanh_sinh(f, 0.0, 1.0)
        assert sums == [block_nodes()] + [
            quadrature._level_nodes(level)[0].size
            for level in range(quadrature._BLOCK + 1, 12)]
        assert complex(val).real == pytest.approx(math.sin(3000.0) / 3000.0,
                                                  abs=1e-13)


class TestLevelBlock:
    """Levels 0.._BLOCK share one integrand call, on nodes built once, and
    every integral keeps the bits of the level-by-level reference
    (``level_by_level_quadrature``)."""

    def test_block_nodes_built_once_read_only(self, monkeypatch):
        # the levels' sigma interleaved by _block_slice, in order of t
        sigma = quadrature._BLOCK_SIGMA
        assert sigma.size == block_nodes()
        for level in range(quadrature._BLOCK + 1):
            assert (sigma[quadrature._block_slice(level)].tobytes()
                    == quadrature._level_nodes(level)[0].tobytes())
        assert np.all(np.diff(sigma) >= 0.0)
        assert not sigma.flags.writeable
        with pytest.raises(ValueError):
            sigma[0] = 0.5
        # and not rebuilt by a call
        monkeypatch.setattr(quadrature, "_block_sigma",
                            lambda: pytest.fail("block rebuilt"))
        assert tanh_sinh(lambda x, dl, dr: np.ones_like(x), 0.0,
                         1.0) == pytest.approx(1.0, rel=1e-13)

    @staticmethod
    def outcome(quad, f, a, b, exponents):
        """quad's value as the bits of its parts, or its error's text."""
        try:
            value = complex(quad(f, a, b, exponents))
        except QuadratureError as exc:
            return str(exc)
        return value.real.hex(), value.imag.hex()

    def assert_bitwise(self, calls):
        assert calls
        for f, a, b, exponents in calls:
            assert (self.outcome(tanh_sinh, f, a, b, exponents)
                    == self.outcome(reference.tanh_sinh, f, a, b, exponents))

    @staticmethod
    def integrals(route, *args):
        """The (f, a, b, exponents) of each tanh_sinh call of ``route``."""
        calls = []
        with mock.patch.object(periods, "tanh_sinh",
                               lambda *call: calls.append(call) or 1.0):
            route(*args)
        return calls

    @settings(max_examples=40)
    @given(wirtinger_params, uniform(0.1, 3.0))
    def test_wirtinger_integrands(self, p, im):
        try:
            calls = self.integrals(wirtinger_quadrature, p,
                                   TauPoint(complex(0.0, im)))
        except AdmissibilityError:
            assume(False)
        self.assert_bitwise(calls)

    @settings(max_examples=40)
    @given(wirtinger_params, uniform(0.0, 1.0).filter(lambda z: z > 0.0))
    def test_euler_pairings(self, p, z):
        self.assert_bitwise(self.integrals(
            euler_pairing, "1+", p.alpha, p.beta, p.gamma, z))

    @settings(max_examples=60)
    @given(endpoint_exponents, endpoint_exponents, uniform(-20.0, 20.0),
           uniform(-2.0, 2.0), uniform(0.1, 3.0))
    def test_pointwise_integrands(self, e0, e1, k, a, width):
        # many exponents lie in (-1, -0.94], where an end is subtracted
        def f(x, dl, dr):
            return dl**e0 * dr**e1 * (2.0 + np.cos(k * x))
        self.assert_bitwise([(f, a, a + width, (e0, e1))])

    @pytest.mark.parametrize("f, stop", [
        (lambda x: np.zeros_like(x), 1),
        (lambda x: np.ones_like(x), 3),
        (lambda x: np.exp(-x * x), 4),
        (lambda x: np.cos(30.0 * x), 5),
        (lambda x: np.cos(100.0 * x), 6)])
    def test_one_call_covers_levels_0_to_3(self, f, stop):
        # the reference calls f once per level 0..stop; tanh_sinh once for
        # levels 0.._BLOCK, then once per level
        counts = {}
        for quad in (reference.tanh_sinh, tanh_sinh):
            sizes = counts[quad] = []
            quad(lambda x, dl, dr: sizes.append(x.size) or f(x), 0.0, 1.0)
        assert len(counts[reference.tanh_sinh]) == stop + 1
        assert len(counts[tanh_sinh]) == 1 + max(stop - quadrature._BLOCK, 0)
        assert counts[tanh_sinh][0] == block_nodes()


class TestShiftRules:
    def test_table(self):
        assert SHIFT_RULES == {
            1: (0.5, 0.5, 1.0),
            2: (-0.5, 0.5, 0.0),
            3: (0.0, 0.0, 0.0),
            4: (0.0, 1.0, 1.0),
        }

    def test_shift_consistency(self):
        # entry(i, j, p) is entry(3, j, shifted p) up to the reduction
        # scale, which depends only on the shift in gamma
        tc = theta_constants(TAU_I)
        for i, (da, db, dg) in SHIFT_RULES.items():
            scale = (tc.th3_0 / tc.th2_0) ** (2.0 * dg)
            for j in (1, 2, 3, 4):
                lhs = period(i, j, P_REF, TAU_I)
                rhs = scale * period(3, j, P_REF.shifted(da, db, dg), TAU_I)
                assert lhs == pytest.approx(rhs, rel=1e-13)


class TestPeriodEntries:
    def test_entry_31_oracle(self):
        assert period(3, 1, P_REF, TAU_I) == pytest.approx(
            ENTRY_31_REF, rel=1e-13)

    def test_column_four_relation(self):
        p = P_REF
        for i, (da, db, dg) in SHIFT_RULES.items():
            ps = p.shifted(da, db, dg)
            ratio = period(i, 4, p, TAU_I) / period(i, 1, p, TAU_I)
            expect = 1.0 - unit_phase(ps.gamma - ps.alpha)
            assert ratio == pytest.approx(expect, rel=1e-13)

    def test_column_two_combination(self):
        p, tau = P_REF, TAU_I
        e = unit_phase
        for i, (da, db, dg) in SHIFT_RULES.items():
            a, b, g = p.alpha + da, p.beta + db, p.gamma + dg
            s1 = period(i, 1, p, tau)
            s3 = period(i, 3, p, tau)
            expect = -((1.0 - e(a)) * s1
                       + e(2 * a + 2 * b - 2 * g) * (1.0 - e(g - b)) * s3) / (
                e(2 * a - 2 * g) * (1.0 - e(g)))
            assert period(i, 2, p, tau) == pytest.approx(expect, rel=1e-13)


class TestPeriodMatrices:
    def test_an_overflowing_prefactor_is_a_period_error(self):
        # at Im tau = 50, theta2^(4 - 2 gamma) overflows for gamma = 12.3:
        # a typed error, unwarned, and the period relations' errored rows
        p, tau = HgParams(0.31, 0.22, 12.3), TauPoint(50j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PeriodError, match="prefactor .* overflows"):
                period_matrix(p, tau)
            rows = verify.verify_tpr(p, tau)
        assert [r.error is not None and "prefactor" in r.error
                for r in rows] == [True, True, True, False]

    def test_an_overflowing_beta_factor_raises_a_typed_error(self):
        # every Gamma factor is finite, but a row's Gamma(a) Gamma(g - a)
        # overflows before the division by Gamma(g)
        with pytest.raises(HypergeomError, match=re.escape(
                "Gamma(-0.3) Gamma(171.60000000000002) / Gamma(171.3) "
                "overflows double precision")):
            period_matrix(HgParams(-0.3, 0.1, 170.3), TAU_I)

    def test_gamma_error_of_row_one_wins_over_its_2f1_error(self):
        # row 1's first 2F1 series cancels to rounding, but its Gamma factor
        # is read first, also when the draw sits in a batch
        q = HgParams(-171.3, -0.21, -0.77)
        row1 = q.shifted(*SHIFT_RULES[1])
        with pytest.raises(HypergeomError, match="lost every digit"):
            gauss_2f1(row1.alpha, row1.beta, row1.gamma, lambda_tau(TAU_I))
        with pytest.raises(HypergeomError,
                           match=re.escape("1/Gamma(-170.8) overflows")):
            period_matrix(q, TAU_I)
        draws = [(P_REF, TAU_I), (q, TAU_I), (P_REF.negated(), TAU_I)]
        text = "1/Gamma(-170.8) overflows double precision"
        with pytest.raises(HypergeomError, match=re.escape(text)):
            period_matrices(draws)
        # the checks redo the failed batch draw by draw: only q's errors
        batch = verify._verify_tpr_batch(draws, "default")
        assert [r.error for r in batch[1][:3]] == [text] * 3
        for draw, rows in zip(draws[::2], batch[::2]):
            assert rows == verify._verify_tpr_batch([draw], "default")[0]

    def test_minus_matrix_negates_parameters(self):
        # P- is the period matrix at -p: its entry (3, 1) is the Gauss
        # closed form of ENTRY_31_REF at the negated parameters
        a, b, g = -P_REF.alpha, -P_REF.beta, -P_REF.gamma
        tc = theta_constants(TAU_I)
        expect = (beta_real(a, g) / 2.0 * tc.th2_0 ** (2 * g)
                  * tc.th3_0 ** (-2 * a - 2 * b)
                  * tc.th4_0 ** (2 * a + 2 * b - 2 * g)
                  * gauss_2f1(a, b, g, lambda_tau(TAU_I)))
        pm = period_matrix(P_REF.negated(), TAU_I)
        assert pm[2, 0] == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("tau_val", [-0.4 + 0.2j, 0.4 + 0.2j,
                                         0.5 + 0.49j, -0.7 + 0.2j])
    def test_rejects_tau_inside_the_discs(self, tau_val):
        # lambda crosses its cut on the circles |tau -+ 1/2| = 1/2, and
        # inside them the closed forms are on the wrong branch
        with pytest.raises(PeriodError, match="inside a disc"):
            period_matrix(P_REF, TauPoint(tau_val))

    @pytest.mark.parametrize("tau_val", [1.6 + 0.2j, -2.4 + 0.2j,
                                         1.05 + 1.2j, -1.3 + 1.2j])
    def test_rejects_real_part_beyond_one(self, tau_val):
        # beyond |Re tau| = 1 sigma_1 is the integral times a phase
        # exp(+-i pi gamma), or off in modulus too inside a shifted disc:
        # at 1.6 + 0.2i, where lambda is that of -0.4 + 0.2i, |sigma_1| is
        # 0.677 of the integral's
        with pytest.raises(PeriodError, match=r"\|Re tau\| > 1"):
            period_matrix(P_REF, TauPoint(tau_val))

    def test_admits_real_part_one(self):
        pm = period_matrix(P_REF, TauPoint(1.0 + 1.2j))
        assert np.isfinite(pm).all()

    @pytest.mark.parametrize("tau_val", [0.5 + 0.5j, -0.5 + 0.5j])
    def test_admits_the_circles(self, tau_val):
        # on the circles lambda = 2 lies on its cut, so the build passes
        # the disc test and stops at the 2F1 radius guard
        with pytest.raises(HypergeomError, match="radius guard"):
            period_matrix(P_REF, TauPoint(tau_val))

    def test_block_entries(self):
        bp = block_periods(period_matrix(P_REF, TAU_I))
        assert bp[1][0, 0] == pytest.approx(
            period(3, 1, P_REF, TAU_I), rel=1e-14)
        assert bp[1][1, 1] == pytest.approx(
            period(4, 3, P_REF, TAU_I), rel=1e-14)
        assert bp[-1][0, 0] == pytest.approx(
            period(1, 1, P_REF, TAU_I), rel=1e-14)

    def test_blocks_are_exact_slices(self):
        # rows (1,2) and (3,4), columns (1,3) of the full matrix
        rng = np.random.default_rng(47)
        for tau_val in SWEEP_TAUS:
            for _ in range(5):
                p = sample_admissible(rng)
                for q in (p, p.negated()):
                    full = period_matrix(q, TauPoint(tau_val))
                    blocks = block_periods(full)
                    cols = full[:, [0, 2]]
                    assert np.array_equal(blocks[-1], cols[[0, 1]])
                    assert np.array_equal(blocks[1], cols[[2, 3]])

    def test_blocks_match_basis_changed_periods(self):
        # integrating over the eigenspace cycle combinations reproduces
        # the first and third cycle columns
        from twistedperiods.matrices import basis_change
        rng = np.random.default_rng(41)
        for tau in (TAU_I, TauPoint(0.3 + 1.2j)):
            p = sample_admissible(rng)
            for q in (p, p.negated()):
                full = period_matrix(q, tau)
                combo = basis_change(q)
                blocks = block_periods(full)
                for eps, rows in ((-1, (0, 1)), (1, (2, 3))):
                    projected = full[rows, :] @ combo[eps].T
                    expect = blocks[eps]
                    assert np.max(np.abs(projected - expect)) < 1e-11 * max(
                        1.0, float(np.max(np.abs(expect))))


def _per_row_period_matrix(q, tau):
    """The period matrix with each row's theta-constant prefactors taken
    at its shifted parameters and rescaled by (theta3/theta2)^(2 d_gamma):
    the reference for the prefactors taken once per matrix."""
    def cpow(z, s):
        return cmath.exp(s * cmath.log(z))

    tc, lam, e = theta_constants(tau), lambda_tau(tau), unit_phase
    rows = []
    for i in (1, 2, 3, 4):
        d_gamma = SHIFT_RULES[i][2]
        ps = q.shifted(*SHIFT_RULES[i])
        a, b, g = ps.alpha, ps.beta, ps.gamma
        s1 = (gamma_real(a) * gamma_real(g - a) / (2.0 * gamma_real(g))
              * cpow(tc.th2_0, 2 * g) * cpow(tc.th3_0, -2 * a - 2 * b)
              * cpow(tc.th4_0, -2 * g + 2 * a + 2 * b)
              * gauss_2f1(a, b, g, lam))
        s3 = (-e(0.5 * (a + b - g))
              * gamma_real(1 - b) * gamma_real(1 - g + b)
              / (2.0 * gamma_real(2 - g))
              * cpow(tc.th2_0, 4 - 2 * g) * cpow(tc.th3_0, 2 * a + 2 * b - 4)
              * cpow(tc.th4_0, 2 * g - 2 * a - 2 * b)
              * gauss_2f1(1 - b, 1 - a, 2 - g, lam))
        if d_gamma != 0.0:
            scale = cpow(tc.th3_0 / tc.th2_0, 2.0 * d_gamma)
            s1 *= scale
            s3 *= scale
        s4 = (1.0 - e(g - a)) * s1
        s2 = -((1.0 - e(a)) * s1
               + e(2 * a + 2 * b - 2 * g) * (1.0 - e(g - b)) * s3) / (
            e(2 * a - 2 * g) * (1.0 - e(g)))
        rows.append([s1, s2, s3, s4])
    return np.array(rows, dtype=complex)


# tau outside the discs |tau -+ 1/2| < 1/2, where the closed forms hold
PREFACTOR_TAUS = (*SWEEP_TAUS, 0.1 + 0.6j, 0.45 + 0.9j, -0.4 + 0.9j,
                  -0.45 + 1.1j)


class TestPrefactorsOncePerMatrix:
    @pytest.mark.parametrize("tau_val", PREFACTOR_TAUS)
    def test_matches_per_row_prefactors(self, tau_val):
        tau = TauPoint(tau_val)
        assert min(abs(tau_val - 0.5), abs(tau_val + 0.5)) > 0.5
        rng = np.random.default_rng(59)
        for _ in range(30):
            p = sample_admissible(rng)
            for q in (p, p.negated()):
                old = _per_row_period_matrix(q, tau)
                err = np.abs(period_matrix(q, tau) - old)
                # entry by entry for the closed forms (columns 1 and 3);
                # column 2 is a cancelling combination of them
                assert np.max(err[:, ::2] / np.abs(old[:, ::2])) <= 1e-13
                assert np.max(err) <= 1e-13 * np.max(np.abs(old))

    def test_one_prefactor_table_per_batch(self, monkeypatch):
        # P1 and P3 of every draw of a batch, taken once for its four rows
        calls = []
        original = periods._prefactors

        def counting(p, taus):
            calls.append(len(taus))
            return original(p, taus)

        monkeypatch.setattr(periods, "_prefactors", counting)
        period_matrix(P_REF, TauPoint(0.3 + 1.2j))
        periods.period_matrices([(P_REF, TAU_I), (P_REF.negated(), TAU_I)])
        assert calls == [1, 2]


def _four_theta_wirtinger(p, tau):
    """The Wirtinger integral with one table per theta factor and level,
    real prefactors summed, which is what the real part of a vector theta
    call summed when real u had a path of its own (every node lies in
    [0, 1/2], where theta sums at u as given): the reference for the
    two-table integrand.  theta1's prefactors are divided by the same
    power of two s, and the integral multiplied by s^(2g-2)."""
    a, b, g = p.alpha, p.beta, p.gamma
    s = 2.0 ** round(math.log2(series._theta_terms(1, tau, 0.0)[1][0].real))

    def real_theta(j, x):
        freq, pref = series._theta_terms(j, tau, 0.0)
        trig = np.sin if j == 1 else np.cos
        pref = pref.real / s if j == 1 else pref.real.copy()
        return series.trig_sums(trig, x, freq, pref)[0]

    def integrand(u, dl, dr):
        t1 = real_theta(1, dl)
        t2 = real_theta(1, dr)
        t3 = real_theta(3, u)
        t4 = real_theta(4, u)
        return (t1 ** (2 * a - 1) * t2 ** (2 * g - 2 * a - 1)
                * t3 ** (-2 * b + 1) * t4 ** (2 * b - 2 * g + 1))

    return s ** (2 * g - 2) * float(np.real(tanh_sinh(
        integrand, 0.0, 0.5, (2 * a - 1, 2 * g - 2 * a - 1))))


def _outcome(fn, p, tau):
    """The value's bytes, or the text of the QuadratureError raised."""
    try:
        return np.float64(fn(p, tau)).tobytes()
    except QuadratureError as exc:
        return str(exc)


def _wirtinger_cases():
    # draws as in the quadrature benchmark, then endpoint exponents near
    # -1 (a or g - a below 0.02), Re tau = 1e-13, and both near -1 at
    # Im tau = 50, where theta1's powers overflow unless its prefactors
    # are scaled
    rng = np.random.default_rng(2024)
    cases = []
    while len(cases) < 35:
        p = sample_admissible(rng)
        if p.alpha > 0.0 and p.gamma - p.alpha > 0.0:
            cases.append((p, complex(0.0, rng.uniform(0.1, 3.0))))
    return cases + [
        (HgParams(0.013, 0.3, 0.6), 1j),
        (HgParams(0.4, 0.7, 0.415), 0.5j),
        (HgParams(0.019, -1.2, 0.031), 0.23j),
        (P_REF, complex(1e-13, 0.8)),
        (HgParams(0.011, -0.37, 0.019), 2j),
        (HgParams(0.0001, -0.13, 0.0025), 50j),
    ]


WIRTINGER_CASES = _wirtinger_cases()


class TestWirtingerQuadrature:
    def test_matches_closed_form(self):
        tc = theta_constants(TAU_I)
        raw = wirtinger_quadrature(P_REF, TAU_I)
        closed = period(3, 1, P_REF, TAU_I)
        assert math.pi * tc.th2_0.real**2 * raw == pytest.approx(
            closed.real, rel=1e-12)

    def test_gauss_chain(self):
        # raw integral times the closed-form prefactor reproduces the
        # Beta-weighted hypergeometric value
        a, b, g = P_REF.alpha, P_REF.beta, P_REF.gamma
        tc = theta_constants(TAU_I)
        lam = lambda_tau(TAU_I).real
        chain = (wirtinger_quadrature(P_REF, TAU_I)
                 * 2.0 * math.pi * tc.th3_0.real**2
                 * lam ** ((1 - g) / 2) * (1 - lam) ** ((g - a - b) / 2))
        target = (gamma_real(a) * gamma_real(g - a) / gamma_real(g)
                  * gauss_2f1(a, b, g, lam).real)
        assert chain == pytest.approx(target, rel=1e-12)

    def test_symmetric_case(self):
        # alpha = beta = gamma/2 makes the integrand symmetric about
        # u = 1/4 (the two theta factors of each pair swap under
        # u -> 1/2 - u, so their exponents must match pairwise)
        p = HgParams(0.385, 0.385, 0.77)
        full = wirtinger_quadrature(p, TAU_I)

        def half(lo, hi):
            from twistedperiods.series import theta

            def integrand(u, dl, dr):
                # exact endpoint distances where a theta factor vanishes
                arg1 = dl if lo == 0.0 else u
                arg2 = dr if hi == 0.5 else 0.5 - u
                t1 = np.real(theta(1, arg1, TAU_I))
                t2 = np.real(theta(1, arg2, TAU_I))
                t3 = np.real(theta(3, u, TAU_I))
                t4 = np.real(theta(4, u, TAU_I))
                return (t1 ** (2 * p.alpha - 1)
                        * t2 ** (2 * p.gamma - 2 * p.alpha - 1)
                        * t3 ** (-2 * p.beta + 1)
                        * t4 ** (2 * p.beta - 2 * p.gamma + 1))
            return complex(tanh_sinh(integrand, lo, hi)).real

        assert half(0.0, 0.25) == pytest.approx(half(0.25, 0.5), rel=1e-10)
        assert half(0.0, 0.25) + half(0.25, 0.5) == pytest.approx(full,
                                                                  rel=1e-10)

    @pytest.mark.parametrize("p, tau_val", WIRTINGER_CASES)
    def test_bitwise_equal_to_four_theta_integrand(self, p, tau_val):
        tau = TauPoint(tau_val)
        assert (_outcome(wirtinger_quadrature, p, tau)
                == _outcome(_four_theta_wirtinger, p, tau))

    @pytest.mark.parametrize("p, tau_val, rel", [
        # endpoint exponent 2a - 1 = -0.974, subtracted
        (HgParams(0.013, 0.3, 0.6), 1j, 1e-13),
        # both exponents below -0.96; failed to converge before
        # subtraction
        (HgParams(0.011, -0.37, 0.019), 2j, 1e-14),
    ])
    def test_exponent_near_minus_one_matches_closed_form(self, p, tau_val,
                                                         rel):
        tau = TauPoint(tau_val)
        closed = period(3, 1, p, tau) / (
            math.pi * theta_constants(tau).th2_0**2)
        assert wirtinger_quadrature(p, tau) == pytest.approx(closed.real,
                                                             rel=rel)

    def test_theta4_prefactors_taken_from_theta3s(self, monkeypatch):
        # theta4's prefactors are theta3's with the odd terms negated, byte
        # for byte, at any tau; the Wirtinger integrand sums exactly those
        # and builds no theta4 terms of its own
        built, summed = [], []

        def terms(j, *args):
            built.append(j)
            return series._theta_terms(j, *args)

        def sums(trig, x, freq, *weights):
            summed.append((trig, freq, weights))
            return series.trig_sums(trig, x, freq, *weights)
        monkeypatch.setattr(periods, "_theta_terms", terms)
        monkeypatch.setattr(periods, "trig_sums", sums)
        sizes = set()
        for tau_val in (0.1j, 0.55j, 1j, 3j, 50j, 0.3 + 1.2j):
            tau = TauPoint(tau_val)
            freq3, pref3 = series._theta_terms(3, tau, 0.0)
            freq4, pref4 = series._theta_terms(4, tau, 0.0)
            negated = pref3.copy()
            negated[1::2] *= -1.0
            assert freq3.tobytes() == freq4.tobytes()
            assert negated.tobytes() == pref4.tobytes()
            sizes.add(pref4.size)
            if tau_val.real:
                continue
            built.clear()
            summed.clear()
            wirtinger_quadrature(P_REF, tau)
            assert built == [1, 3]
            # the integrand's first call sums theta1, then theta3 and theta4
            trig, freq, (th3, th4) = summed[1]
            assert trig is np.cos and freq.tobytes() == freq4.tobytes()
            assert th3.tobytes() == pref3.real.tobytes()
            assert th4.tobytes() == pref4.real.tobytes()
            assert th4.base.tobytes() == pref4.tobytes()
        # theta3 and theta4 have a constant term beyond the count
        assert series.MIN_TERMS + 1 in sizes and len(sizes) > 1

    def test_preconditions(self):
        with pytest.raises(PeriodError):
            wirtinger_quadrature(P_REF, TauPoint(0.3 + 1.2j))
        # 2a - 1 = -1.6: tanh_sinh is the one check of the exponents
        with pytest.raises(QuadratureError, match="endpoint exponents > -1"):
            wirtinger_quadrature(HgParams(-0.3, 0.21, 0.27), TAU_I)

    @pytest.mark.parametrize("p, tau, text", [
        # 2g - 2a - 1 = -82.2, where s^(2g - 2) alone would overflow first
        (HgParams(0.3, 0.21, -40.3), TauPoint(50j), "endpoint exponents"),
        # the integrand overflows, where 2^(2g - 2) alone would overflow
        (HgParams(300.3, 0.21, 600.7), TauPoint(0.1j), "non-finite value"),
    ])
    def test_the_integral_is_checked_before_its_rescale(self, p, tau, text):
        with pytest.raises(QuadratureError, match=text):
            wirtinger_quadrature(p, tau)

    @pytest.mark.parametrize("p, tau, power", [
        # the integrand underflows to 0 and the integral is finite, but
        # s^(2g - 2) = 2^1072.4 is not
        (HgParams(512.1, 198.9, 537.2), TauPoint(0.38j), "1072.4"),
        # the integral (5.8e240) and s^(2g - 2) are finite, their product
        # is not
        (HgParams(10.1, 38.3, 118.7), TauPoint(0.13j), "235.4"),
    ])
    def test_an_overflowing_rescale_raises_a_typed_error(self, p, tau, power):
        with pytest.raises(PeriodError, match=re.escape(
                f"the rescale 2.0^{power} of the Wirtinger integral "
                "overflows double precision")):
            wirtinger_quadrature(p, tau)


class TestEulerPairings:
    def test_p1_plus_closed_form(self):
        a, b, c, z = 0.35, 0.27, 1.22, 0.5
        quad = euler_pairing("1+", a, b, c, z)
        closed = euler_pairing_closed("1+", a, b, c, z)
        target = (gamma_real(a) * gamma_real(c - a) / gamma_real(c)
                  * gauss_2f1(a, b, c, z))
        assert quad == pytest.approx(complex(target), rel=1e-9)
        assert closed == pytest.approx(complex(target), rel=1e-13)

    def test_p2_sides_quadrature_vs_closed(self):
        a, b, c, z = 0.35, 0.27, 1.22, 0.4
        for side in ("2+", "2-"):
            quad = euler_pairing(side, a, b, c, z)
            closed = euler_pairing_closed(side, a, b, c, z)
            assert quad == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("a, b, c, z", [
        (0.002, 0.3, 0.7, 0.5),    # e0 = a - 1 = -0.998
        (0.4, 0.3, 0.401, 0.9),    # e1 = c - a - 1 = -0.999
    ])
    def test_p1_plus_exponent_near_minus_one(self, a, b, c, z):
        quad = euler_pairing("1+", a, b, c, z)
        assert quad == pytest.approx(euler_pairing_closed("1+", a, b, c, z),
                                     rel=1e-14)

    def test_p1_minus_diverges_where_p1_plus_converges(self):
        # the literal integral has endpoint exponent -a - 2 < -1
        with pytest.raises(QuadratureError, match="endpoint exponents > -1"):
            euler_pairing("1-", 0.35, 0.27, 1.22, 0.5)

    def test_combination_identity(self):
        e = unit_phase
        rng = np.random.default_rng(43)
        for z in (0.3, 0.5, 0.7):
            a = rng.uniform(0.15, 0.85)
            b = rng.uniform(0.15, 0.85)
            c = rng.uniform(1.15, 1.85)
            if abs(c - a - 1.0) < 0.05 or abs(c - b - 1.0) < 0.05:
                continue
            p1 = (euler_pairing_closed("1+", a, b, c, z)
                  * euler_pairing_closed("1-", a, b, c, z))
            p2 = (euler_pairing_closed("2+", a, b, c, z)
                  * euler_pairing_closed("2-", a, b, c, z))
            combo = ((1 - e(a)) * (1 - e(c - a)) / (1 - e(c)) * p1
                     + (1 - e(-b)) * (1 - e(b - c)) / (1 - e(-c)) * p2)
            target = 2j * math.pi / (a * (a + 1)) * ((a - b + 1) * z + c)
            assert combo == pytest.approx(target, rel=1e-10)

    def test_invalid_side(self):
        with pytest.raises(PeriodError):
            euler_pairing_closed("3+", 0.3, 0.2, 1.1, 0.5)
        with pytest.raises(PeriodError, match="invalid pairing side"):
            euler_pairing("3+", 0.3, 0.2, 1.1, 0.5)

    def test_an_overflowing_beta_factor_raises_a_typed_error(self):
        # B(-0.5, 171.4) = -46.31 (mpmath), but Gamma(-0.5) Gamma(171.4)
        # overflows before the division by Gamma(170.9)
        with pytest.raises(HypergeomError, match=re.escape(
                "Gamma(-0.5) Gamma(171.4) / Gamma(170.9) overflows double "
                "precision")):
            euler_pairing_closed("1+", -0.5, 0.25, 170.9, 0.5)

    @pytest.mark.parametrize("fn, side, a, b, c, z", [
        # z^z_power past the double range, in cmath.exp and in a float **
        (euler_pairing_closed, "2+", 0.3, 0.2, 2.5, 1e-300),
        (euler_pairing_closed, "2-", 0.3, 0.2, -2.5, 1e-300),
        (euler_pairing, "2+", 0.3, 0.99, 1.98, 5e-324),
        # B = -1.0e9 times 2F1 = 2.1e301, an infinite product
        (euler_pairing_closed, "2+", 1000.0, 1.000000001, 0.0, 0.5),
    ])
    def test_an_overflowing_pairing_raises_a_typed_error(self, fn, side, a, b,
                                                         c, z):
        with pytest.raises(PeriodError, match=re.escape(
                f"the {side} Euler pairing at z = {z} overflows double "
                "precision")):
            fn(side, a, b, c, z)

    def test_quadrature_exponents_per_side(self):
        # (e0, e1, ez, z_power) of t^e0 (1-t)^e1 (1-zt)^ez written out
        # side by side; the table derives them from Euler's integral
        a, b, c = 0.35, 0.27, 1.22
        written_out = {
            "1+": (a - 1.0, c - a - 1.0, -b, 0.0),
            "1-": (-a - 2.0, a - c, b - 1.0, 0.0),
            "2+": (b - c, -b, c - a - 1.0, 1.0 - c),
            "2-": (c - b + 1.0, b - 1.0, a - c, c + 1.0),
        }
        for side, expect in written_out.items():
            A, B, C, zpow = periods._euler_side(side, a, b, c)
            assert (A - 1.0, C - A - 1.0, -B, zpow) == pytest.approx(
                expect, abs=1e-15)

    @pytest.mark.parametrize("side", ["2+", "2-"])
    def test_closed_form_second_sides_at_z_zero_raise(self, side):
        # the (1/z, infinity) sides carry z^z_power, with no value at 0
        with pytest.raises(PeriodError,
                           match=re.escape(f"side {side} is undefined")):
            euler_pairing_closed(side, 0.2, 0.3, 0.6, 0.0)

    @pytest.mark.parametrize("side", ["1+", "1-"])
    def test_closed_form_first_sides_at_z_zero(self, side):
        # 2F1 is 1 at z = 0, leaving Euler's Beta factor B(A, C)
        A, _, C, _ = periods._euler_side(side, 0.2, 0.3, 0.6)
        assert euler_pairing_closed(side, 0.2, 0.3, 0.6, 0.0) == beta_real(
            A, C)

    def test_z_domain(self):
        with pytest.raises(PeriodError):
            euler_pairing("1+", 0.35, 0.27, 1.22, 1.5)
