"""The benchmark's own correctness verdict on a few units of each workload.

perfbench reports ``correct: false`` when any value lies further than
WRONG_TOL from its mpmath oracle or a report fails its JSON round trip.
These tests run the unmodified workload and oracle modules in-process, so
a change that would make the benchmark's outputs incorrect fails here
first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import twistedperiods as tp

pytest.importorskip("mpmath")

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """perfbench/<name>.py as module ``perfbench_<name>``, leaving sys.path
    alone; dataclasses need the module in sys.modules while it runs."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


oracle = _load("oracle")
workloads = _load("workloads")

UNITS = 3


@pytest.fixture(autouse=True)
def _oracle_importable(monkeypatch):
    # workloads.score runs ``import oracle``; serve it the module loaded
    # above for the length of one test
    monkeypatch.setitem(sys.modules, "oracle", oracle)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_timed_units_are_correct(name):
    wl = workloads.WORKLOADS[name](7)
    records = [wl.record(wl.run(wl.inputs(workloads.TIMED, index)))
               for index in range(UNITS)]
    score = workloads.score(records, UNITS)
    assert score.attempted > 0
    assert score.wrong == 0 and score.roundtrip_failures == 0


def _assert_quadrature_unit_agrees(seed, unit):
    """Both integrals of one timed quadrature unit lie within QUAD_TOL of
    their oracles."""
    p, tau_im, z = workloads.Quadrature(seed).inputs(workloads.TIMED, unit)
    value = tp.wirtinger_quadrature(p, tp.TauPoint(complex(0.0, tau_im)))
    ref = oracle.wirtinger_integral(p.alpha, p.beta, p.gamma, tau_im)
    assert abs(value - ref) <= workloads.QUAD_TOL * abs(ref)
    value = tp.euler_pairing("1+", p.alpha, p.beta, p.gamma, z).real
    ref = oracle.euler_plus(p.alpha, p.beta, p.gamma, z)
    assert abs(value - ref) <= workloads.QUAD_TOL * abs(ref)


def test_quadrature_near_minus_one_endpoint_exponent():
    # seed 13, unit 31414: the Wirtinger integrand's endpoint exponent
    # 2g - 2a - 1 is -0.99898, so the piece below the last tanh-sinh node
    # is 2.8e-6 of the integral, and the Euler pairing's is -0.99949; both
    # ends are subtracted and integrated in closed form
    _assert_quadrature_unit_agrees(13, 31414)


def test_quadrature_subtracts_both_integrals_of_a_unit():
    # seed 1, unit 9: endpoint exponents -0.9949 (Wirtinger) and -0.9975
    # (Euler pairing), where level doubling alone does not converge
    _assert_quadrature_unit_agrees(1, 9)
