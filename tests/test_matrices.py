"""Exponent bookkeeping, intersection matrices, basis change, guarded solve."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistedperiods
from twistedperiods import matrices
from twistedperiods.matrices import (AdmissibilityError, ConditioningError,
                                     HgParams, admissible, basis_change,
                                     block_C, block_H_prime, cohomology_C,
                                     diagonal_solve, guarded_solve,
                                     homology_H, require_admissible,
                                     unit_phase)
from twistedperiods.periods import SHIFT_RULES
from twistedperiods.series import TauPoint, theta_constants
from twistedperiods.verify import sample_admissible

P_REF = HgParams(0.30, 0.21, 0.77)
TC_I = theta_constants(TauPoint(1j))


def _nested_admissible(p, guard):
    """The admissibility test as a nested loop over scaled exponent
    groups, with the (1/2)Z rows that restate c1..c4: the reference for
    the flat loop of ``admissible``."""
    violations = []
    for scale, condition, values in (
            (1.0, "integral", (("c0", p.c0), ("c1", p.c1), ("c2", p.c2),
                               ("c3", p.c3), ("c4", p.c4))),
            (2.0, "in (1/2)Z", (("alpha", p.alpha), ("beta", p.beta),
                                ("gamma-alpha", p.gamma - p.alpha),
                                ("gamma-beta", p.gamma - p.beta)))):
        for name, value in values:
            x = scale * value
            if not math.isfinite(x):
                violations.append(f"{name} not finite ({name} = {value})")
            elif abs(x - round(x)) <= guard:
                violations.append(f"{name} {condition} ({name} = {value})")
    return (not violations, violations)


def _nested_c_rows(p, guard):
    """The nested oracle's verdict and its c0..c4 rows: the (1/2)Z rows
    for alpha, beta, gamma - alpha and gamma - beta re-test c1, -c3, c2
    and -c4, so they flag only where a c-row does."""
    ok, violations = _nested_admissible(p, guard)
    return ok, [v for v in violations if v.startswith("c")]


class TestUnitPhase:
    def test_trivials(self):
        assert unit_phase(0.0) == 1.0
        assert unit_phase(0.5) == pytest.approx(-1.0, abs=1e-15)
        x = 0.3172
        assert unit_phase(x) * unit_phase(-x) == pytest.approx(1.0, abs=1e-15)


class TestHgParams:
    def test_exponents(self):
        p = P_REF
        assert p.c0 == 0.77
        assert p.c1 == 0.60
        assert p.c2 == pytest.approx(0.94)
        assert p.c3 == -0.42
        assert p.c4 == pytest.approx(-1.12)
        assert p.c1 + p.c2 + p.c3 + p.c4 == pytest.approx(0.0, abs=1e-15)

    def test_negated_and_shifted(self):
        p = P_REF.negated()
        assert (p.alpha, p.beta, p.gamma) == (-0.30, -0.21, -0.77)
        q = P_REF.shifted(0.5, 0.5, 1.0)
        assert (q.alpha, q.beta, q.gamma) == (0.80, 0.71, 1.77)


class TestAdmissible:
    def test_reference_point_admissible(self):
        ok, violations = admissible(P_REF)
        assert ok and violations == []

    def test_integral_gamma(self):
        ok, violations = admissible(HgParams(0.30, 0.21, 1.0))
        assert not ok
        assert violations == ["c0 integral (c0 = 1.0)"]

    def test_guard_sets_the_integrality_distance(self):
        p = HgParams(0.30, 0.21, 1.0005)
        assert admissible(p)[0]
        ok, violations = admissible(p, guard=1e-3)
        assert not ok and violations == ["c0 integral (c0 = 1.0005)"]

    def test_half_integer_alpha(self):
        # alpha in (1/2)Z is c1 integral, named once
        ok, violations = admissible(HgParams(0.5, 0.21, 0.77))
        assert not ok
        assert violations == ["c1 integral (c1 = 1.0)"]

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 1e308])
    def test_non_finite_values_are_violations(self, value):
        ok, violations = admissible(HgParams(value, 0.21, 0.77))
        assert not ok
        assert "c1 not finite (c1 = {})".format(2.0 * value) in violations
        assert all(v.startswith("c") for v in violations)

    def test_require_raises(self):
        with pytest.raises(AdmissibilityError) as err:
            require_admissible(HgParams(0.30, 0.21, 1.0))
        assert "c0 integral" in str(err.value)

    # a coordinate anywhere in the sampled range, or within 2e-3 of a
    # half-integer, where the (1/2)Z and integrality conditions bite
    _coordinate = st.one_of(
        st.floats(-2.0, 2.0),
        st.builds(lambda k, d: k / 2.0 + d, st.integers(-4, 4),
                  st.floats(-2e-3, 2e-3)))

    # any double (inf, nan and overflow included), or a value within 2e-3
    # of a quarter-integer
    _any_coordinate = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.builds(lambda k, d: k / 4.0 + d, st.integers(-12, 12),
                  st.floats(-2e-3, 2e-3)))

    @settings(max_examples=500)
    @given(st.builds(HgParams, _any_coordinate, _any_coordinate,
                     _any_coordinate),
           st.sampled_from([1e-9, 1e-3, 0.1]))
    def test_flat_loop_matches_nested_groups(self, p, guard):
        assert admissible(p, guard) == _nested_c_rows(p, guard)

    @pytest.mark.parametrize("value", [1e308, -1e308, 0.25, 0.5, -0.75,
                                       1.0 + 1e-12, math.nan, math.inf])
    @pytest.mark.parametrize("guard", [1e-9, 1e-3, 0.1])
    def test_flat_loop_at_edge_values(self, value, guard):
        for p in (HgParams(value, 0.21, 0.77), HgParams(0.3, value, 0.77),
                  HgParams(0.3, 0.21, value)):
            assert admissible(p, guard) == _nested_c_rows(p, guard)

    # hypothesis seeds a derandomized test from its source, decorators
    # included, so this one keeps its full settings and its examples: the
    # property fails one ulp from the guard (see the strict xfail below)
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.builds(HgParams, _coordinate, _coordinate, _coordinate),
           st.sampled_from([1e-9, 1e-3]))
    def test_negation_and_shifts_keep_the_violations(self, p, guard):
        # negation and every SHIFT_RULES shift move each of the five
        # exponents c0..c4 by an integer, so one check of the signed
        # parameters covers every period row
        def names(q):
            return [v.split()[0] for v in admissible(q, guard)[1]]

        expected = names(p)
        for q in (p, p.negated()):
            assert names(q) == expected
            for shift in SHIFT_RULES.values():
                assert names(q.shifted(*shift)) == expected

    @pytest.mark.xfail(strict=True, reason="FOUND in CHANGES.md: a shift "
                       "moves a value at the guard distance by one ulp")
    def test_shift_keeps_a_violation_at_the_guard_distance(self):
        # gamma = -0.001 sits exactly 1e-3 from 0; shifted by 1 it reads
        # 0.999, 1e-3 + 1 ulp from 1, and c0 is no longer flagged
        p = HgParams(-0.0, -0.0, -0.001)
        shifted = p.shifted(*SHIFT_RULES[1])
        assert any(v.startswith("c0 ") for v in admissible(shifted, 1e-3)[1])


class TestHomologyH:
    def test_zero_entries_exact(self):
        h = homology_H(P_REF)
        for i, j in ((0, 2), (2, 3), (3, 1), (1, 3), (2, 0), (3, 2)):
            assert h[i, j] == 0.0

    def test_entry_formulas(self):
        p = P_REF
        h = homology_H(p)
        e = unit_phase
        assert h[3, 0] == pytest.approx(
            (1 - e(p.c0)) / (1 - e(p.c1)), rel=1e-14)
        expect_11 = (1 - e(p.c1 + p.c2)) / ((1 - e(p.c1)) * (1 - e(p.c2)))
        assert h[0, 0] == pytest.approx(expect_11, rel=1e-14)

    def test_determinant_nonzero(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = sample_admissible(rng)
            assert abs(np.linalg.det(homology_H(p))) > 1e-10

    def test_negated_parameters_flip_phases(self):
        p = P_REF
        h_neg = homology_H(p.negated())
        e = unit_phase
        # spot entries: every e(c_j) is replaced by e(-c_j)
        assert h_neg[3, 0] == pytest.approx(
            (1 - e(-p.c0)) / (1 - e(-p.c1)), rel=1e-14)
        assert h_neg[0, 1] == pytest.approx(-1 / (1 - e(-p.c2)), rel=1e-14)

    def test_inadmissible_raises(self):
        with pytest.raises(AdmissibilityError):
            homology_H(HgParams(0.5, 0.21, 0.77))


class TestCohomologyC:
    def test_structure(self):
        c = cohomology_C(P_REF, TC_I)
        assert c[0, 0] == 0.0
        two_pi_i = 2j * math.pi
        assert c[0, 1] == pytest.approx(two_pi_i / (P_REF.c1 + 1.0), rel=1e-14)
        assert c[2, 3] == c[3, 2] == pytest.approx(two_pi_i / P_REF.c1,
                                                   rel=1e-14)

    def test_off_block_zeros_exact(self):
        c = cohomology_C(P_REF, TC_I)
        for i in (0, 1):
            for j in (2, 3):
                assert c[i, j] == 0.0 and c[j, i] == 0.0


class TestBasisChange:
    def test_first_row_support(self):
        b = basis_change(P_REF)
        for sign in (-1, 1):
            row = b[sign][0]
            assert row[1] == 0.0 and row[2] == 0.0

    def test_sigma4_coefficients(self):
        p = P_REF
        b = basis_change(p)
        e = unit_phase
        # first combination: -/+ 1/(2 e(gamma - alpha)); second: +/- e(gamma)/(2 e(beta + gamma))
        assert b[1][0, 3] == pytest.approx(
            -1.0 / (2.0 * e(p.gamma - p.alpha)), rel=1e-14)
        assert b[-1][0, 3] == pytest.approx(
            1.0 / (2.0 * e(p.gamma - p.alpha)), rel=1e-14)
        assert b[1][1, 3] == pytest.approx(
            e(p.gamma) / (2.0 * e(p.beta + p.gamma)), rel=1e-14)
        assert b[-1][1, 3] == pytest.approx(
            -e(p.gamma) / (2.0 * e(p.beta + p.gamma)), rel=1e-14)


def test_negated_parameters_give_the_conjugate_bit_for_bit():
    # for real exponents every entry is a real rational function of unit
    # phases, and e(-x) is conj e(x) bit for bit, so X(-p) is conj X(p)
    # (array_equal lets the signed zeros differ); the orthogonality check
    # reads -p's basis change so.  Sampler draws, then draws from (-40, 40)^3
    rng = np.random.default_rng(37)
    draws = [sample_admissible(rng) for _ in range(1000)]
    wide = (HgParams(*map(float, r)) for r in rng.uniform(-40.0, 40.0,
                                                           (1000, 3)))
    draws += [p for p in wide if admissible(p)[0]]
    for build in (basis_change, homology_H, block_H_prime):
        def stacked(p):
            x = build(p)
            return np.array([x[-1], x[1]]) if isinstance(x, dict) else x

        at_p = np.array([stacked(p) for p in draws])
        at_minus_p = np.array([stacked(p.negated()) for p in draws])
        assert np.array_equal(at_minus_p, at_p.conj())


class TestBlocks:
    def test_h_prime_diagonal(self):
        hp = block_H_prime(P_REF)
        for sign in (-1, 1):
            blk = hp[sign]
            assert blk[0, 1] == 0.0 and blk[1, 0] == 0.0

    def test_h_prime_entry_formula(self):
        p = P_REF
        e = unit_phase
        for sign in (-1, 1):
            blk = block_H_prime(p)[sign]
            expect = (1.0 - e(p.gamma)) / 2.0 / (
                (1.0 - sign * e(p.gamma - p.alpha)) * (1.0 - sign * e(p.alpha)))
            assert blk[0, 0] == pytest.approx(expect, rel=1e-14)

    def test_h_prime_consistency_with_basis_change(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            p = sample_admissible(rng)
            h = homology_H(p)
            rows = basis_change(p)
            dual = basis_change(p.negated())
            hp = block_H_prime(p)
            for sign in (-1, 1):
                product = rows[sign] @ h @ dual[sign].T
                scale = max(1.0, float(np.max(np.abs(hp[sign]))))
                assert np.max(np.abs(product - hp[sign])) < 1e-12 * scale

    def test_orthogonality(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            p = sample_admissible(rng)
            h = homology_H(p)
            rows = basis_change(p)
            dual = basis_change(p.negated())
            for sign in (-1, 1):
                cross = rows[sign] @ h @ dual[-sign].T
                assert np.max(np.abs(cross)) < 1e-12

    def test_block_c_structure(self):
        p = P_REF
        cb = block_C(cohomology_C(p, TC_I))
        assert cb[-1][0, 0] == 0.0
        assert cb[1][0, 1] == cb[1][1, 0] == pytest.approx(
            2j * math.pi / (2.0 * p.alpha), rel=1e-14)

    def test_pairs_are_keyed_by_eigenvalue(self):
        c = cohomology_C(P_REF, TC_I)
        for pair in (basis_change(P_REF), block_H_prime(P_REF), block_C(c)):
            assert list(pair) == [-1, 1]

    def test_blocks_match_full_matrix(self):
        p = P_REF
        c = cohomology_C(p, TC_I)
        cb = block_C(c)
        assert np.array_equal(c[:2, :2], cb[-1])
        assert np.array_equal(c[2:, 2:], cb[1])


class TestLuInverse:
    """LU solves behind the condition-number guard (``guarded_solve``)."""

    def test_inverse_residual(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        inv = guarded_solve(a, np.eye(4))
        assert np.max(np.abs(a @ inv - np.eye(4))) < 1e-13

    def test_conditioning_rejection(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]], dtype=complex)
        with pytest.raises(ConditioningError):
            guarded_solve(a, np.eye(2))

    def test_diagonal_solve_matches_lu(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            d = rng.normal(size=2) + 1j * rng.normal(size=2)
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            x = diagonal_solve(np.diag(d), b)
            assert np.allclose(x, np.linalg.solve(np.diag(d), b),
                               rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("ratio", [1e11, 1e13])
    def test_diagonal_condition_is_exact(self, ratio):
        # max|d| / min|d| is the 2-norm condition number, and both solves
        # share COND_LIMIT
        a = np.diag([1.0, ratio * 1j])
        assert np.linalg.cond(a) == pytest.approx(ratio, rel=1e-12)
        if ratio < matrices.COND_LIMIT:
            diagonal_solve(a, np.eye(2))
            guarded_solve(a, np.eye(2))
        else:
            for solve in (diagonal_solve, guarded_solve):
                with pytest.raises(ConditioningError,
                                   match="exceeds limit 1e\\+12"):
                    solve(a, np.eye(2))

    @pytest.mark.parametrize("entry", [0.0, math.nan, math.inf])
    def test_diagonal_solve_rejects_a_degenerate_diagonal(self, entry):
        with pytest.raises(ConditioningError):
            diagonal_solve(np.diag([1.0, entry]).astype(complex), np.eye(2))

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_non_finite_matrix_is_a_conditioning_error(self, entry):
        # np.linalg.cond raises an untyped LinAlgError on a nan
        a = np.eye(4, dtype=complex)
        a[1, 2] = entry
        for m, b in ((a, np.eye(4)), (np.array([np.eye(4), a]),
                                       np.ones((2, 4, 4)))):
            with pytest.raises(ConditioningError,
                               match="condition estimate nan exceeds"):
                guarded_solve(m, b)

    def test_package_imports_without_scipy(self):
        # numpy is the only runtime dependency
        src = Path(twistedperiods.__file__).resolve().parents[1]
        code = ("import sys, twistedperiods, twistedperiods.cli; "
                "print('scipy' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
