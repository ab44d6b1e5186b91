"""The verifier contract over the admitted domain: each ``verify_*`` call
returns its registered checks in order, never raises and warns nothing,
and the CLI answers every draw with an exit code."""

import contextlib
import io
import warnings

from hypothesis import given, settings
from strategies import params, taus

from twistedperiods.cli import main
from twistedperiods.verify import (CHECK_REGISTRY, verify_entry22,
                                   verify_series_identities, verify_tpr,
                                   verify_whipple)


def _names(*categories: str) -> list[str]:
    """The registry's checks of these tolerance categories, in order."""
    return [name for name, (category, _) in CHECK_REGISTRY.items()
            if category in categories]


TPR = _names("matrix", "orthogonality")
ENTRY22 = _names("entry22")
WHIPPLE = _names("whipple")
SERIES = _names("series")


@settings(max_examples=300)
@given(params, taus)
def test_each_verifier_returns_its_registered_checks(p, tau):
    a, b, c = p.alpha - 0.5, p.beta + 0.5, p.gamma
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        calls = (
            (verify_tpr(p, tau), TPR),
            (verify_entry22(a, b, c, tau), ENTRY22),
            ([verify_whipple(a, b, c)], WHIPPLE),
            (verify_series_identities(tau), SERIES),
        )
    for results, names in calls:
        assert [r.name for r in results] == names
        for r in results:
            # an error text exactly when there is no residual
            assert (r.error is None) == (r.residual is not None)


@settings(max_examples=100)
@given(params, taus)
def test_cli_exits_with_a_code(p, tau):
    a, b, c = p.alpha - 0.5, p.beta + 0.5, p.gamma
    abg = [f"--alpha={p.alpha!r}", f"--beta={p.beta!r}",
           f"--gamma={p.gamma!r}"]
    where = [f"--tau-re={tau.tau.real!r}", f"--tau-im={tau.tau.imag!r}"]
    for argv in (["tpr", "full", *abg], ["tpr", "blocks", *abg],
                 ["tpr", "entry22", f"--a={a!r}", f"--b={b!r}", f"--c={c!r}"]):
        with (warnings.catch_warnings(),
              contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(io.StringIO())):
            warnings.simplefilter("error")
            assert main(argv + where) in (0, 1, 2)
