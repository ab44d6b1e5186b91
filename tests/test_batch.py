"""The period relations over a batch of draws: each draw's slice of a
stack has the bits of its batch of one, the period rows agree with their
scalar closed forms, and H has the bits of its written-out literal
(``scalar_closed_forms``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_closed_forms as scalar
from strategies import params, taus
from twistedperiods import matrices, periods, verify
from twistedperiods.matrices import HgParams
from twistedperiods.series import TauPoint
from twistedperiods.verify import (SAMPLER_MARGIN, SWEEP_TAUS,
                                   VerificationReport, run_sweep,
                                   sample_admissible, verify_tpr)


# the bound on the relative difference between the period rows' closed-form
# columns and the scalar closed forms over the 500 draws of the test below,
# 100 of them at the sampler margin; measured: 1.3e-15 (numpy and CPython
# round complex products and quotients differently)
SCALAR_REL_BOUND = 1e-14


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


def _report_json(rows) -> str:
    return VerificationReport("x", 0, list(rows)).to_json()


# tau outside the discs |tau -+ 1/2| < 1/2 and with |Re tau| <= 1, where
# the period matrices are defined
outside_taus = taus.filter(lambda t: abs(t.tau.real) <= 1.0 and min(
    abs(t.tau - 0.5), abs(t.tau + 0.5)) >= 0.5)

# p from the sweep's sampler, or anywhere in the params strategy,
# inadmissible points included
draw_params = st.one_of(
    st.integers(0, 2**32 - 1).map(
        lambda seed: sample_admissible(np.random.default_rng(seed))),
    params)

draws_strategy = st.lists(st.tuples(draw_params, outside_taus),
                          min_size=1, max_size=9)


@settings(max_examples=25)
@given(draws_strategy)
def test_each_batch_row_is_its_batch_of_one(draws):
    batch = verify._verify_tpr_batch(draws, "default")
    for draw, rows in zip(draws, batch):
        assert _report_json(rows) == _report_json(verify_tpr(*draw))


def _outcome(build, *args):
    """The value of ``build(*args)``, or the text of its typed error."""
    try:
        return build(*args)
    except verify.RECOVERABLE as exc:
        return str(exc)


@settings(max_examples=25)
@given(draws_strategy)
def test_each_stack_slice_is_its_batch_of_one(draws):
    stack = _outcome(periods.period_matrices, draws)
    if not isinstance(stack, str):  # else some draw raises
        for k, draw in enumerate(draws):
            assert _bits(stack[k]) == _bits(periods.period_matrix(*draw))


def _sampled_draws(count: int) -> list:
    """Sampler draws over the sweep taus, and copies of some moved to the
    sampler margin: an exponent SAMPLER_MARGIN above an integer."""
    rng = np.random.default_rng(2024)
    taus = [TauPoint(t) for t in (*SWEEP_TAUS, 0.1 + 0.6j, -0.45 + 1.1j)]
    draws = []
    for k in range(count):
        p = sample_admissible(rng)
        if k % 5 == 0:  # c1 = 2 alpha at the margin
            edge = HgParams((np.floor(p.c1) + SAMPLER_MARGIN) / 2.0,
                            p.beta, p.gamma)
            p = edge if all(matrices.admissible(r)[0] for v in (
                edge, edge.negated()) for r in periods.row_params(v)) else p
        draws.append((p, taus[k % len(taus)]))
    return draws


def test_period_rows_agree_with_the_scalar_closed_forms():
    draws = _sampled_draws(500)
    pm = periods.period_matrices(draws)
    worst = 0.0
    for k, (q, tau) in enumerate(draws):
        # columns 1 and 3 are the closed forms; 2 and 4 combine them
        m = scalar.period_matrix(q, tau)
        worst = max(worst, float(np.max(np.abs(pm[k] - m)[:, ::2]
                                        / np.abs(m[:, ::2]))))
    assert worst <= SCALAR_REL_BOUND


def test_homology_H_has_the_bits_of_its_written_out_literal():
    # the chain rule runs the literal's complex arithmetic, entry by entry
    for p, _ in _sampled_draws(500):
        assert (matrices.homology_H(p).tobytes()
                == scalar.homology_H(p).tobytes())


@pytest.mark.parametrize("p", [
    HgParams(0.5, 0.21, 0.77), HgParams(0.3, 0.21, 1.0),
    HgParams(0.3, -0.5, 0.77), HgParams(np.nan, 0.21, 0.77),
    HgParams(0.3, 0.21, np.inf)])
def test_homology_H_refuses_with_the_literal_s_text(p):
    texts = []
    for build in (matrices.homology_H, scalar.homology_H):
        with pytest.raises(matrices.AdmissibilityError) as info:
            build(p)
        texts.append(str(info.value))
    assert texts[0] == texts[1] and texts[0].startswith(
        "inadmissible parameters: ")


def test_admissibility_tests_of_a_sweep(monkeypatch):
    # per draw, 15 tests: the sampler's 8 sets, entry22's p, the scalar
    # builders C, H, H' and the basis change of p one each (orthogonality
    # reads -p's basis change as its conjugate), and the period matrices
    # p and -p
    calls = []
    original = matrices.admissible
    monkeypatch.setattr(matrices, "admissible", lambda p, *g: (
        calls.append(p), original(p, *g))[1])
    monkeypatch.setattr(verify, "admissible", matrices.admissible)
    report = run_sweep(1, 4)
    assert report.summary["errored"] == 0
    assert len(calls) == 60


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_draw_raises_its_own_text(value):
    # each draw is tested in order, so the batch raises the text of the
    # bad draw alone
    tau = TauPoint(1j)
    bad = (HgParams(value, 0.22, 0.78), tau)
    with pytest.raises(matrices.AdmissibilityError) as err:
        periods.period_matrices([(HgParams(0.31, 0.22, 0.78), tau), bad])
    assert str(err.value) == _outcome(periods.period_matrix, *bad)
