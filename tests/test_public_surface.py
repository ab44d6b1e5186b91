"""The names the package exports."""

from collections import Counter

import twistedperiods


def test_every_exported_name_resolves():
    for name in twistedperiods.__all__:
        assert hasattr(twistedperiods, name), name


def test_no_name_exported_twice():
    twice = [n for n, k in Counter(twistedperiods.__all__).items() if k > 1]
    assert twice == []


def test_closed_form_helpers_stay_internal():
    for name in ("beta_real", "theta_bracket"):
        assert name not in twistedperiods.__all__
