"""The names the package exports, and the process caches it keeps."""

import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import twistedperiods
from twistedperiods import quadrature
from twistedperiods.series import KERNEL_CACHE_SIZE


def test_every_exported_name_resolves():
    for name in twistedperiods.__all__:
        assert hasattr(twistedperiods, name), name


def test_no_name_exported_twice():
    twice = [n for n, k in Counter(twistedperiods.__all__).items() if k > 1]
    assert twice == []


def test_closed_form_helpers_stay_internal():
    for name in ("beta_real", "theta_bracket"):
        assert name not in twistedperiods.__all__


def _process_caches() -> dict:
    """Every functools cache defined at module or class level in the
    package, by ``module.qualname``."""
    caches = {}
    for info in pkgutil.iter_modules(twistedperiods.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"twistedperiods.{info.name}")
        for obj in vars(module).values():
            members = [obj, *vars(obj).values()] if isinstance(
                obj, type) else [obj]
            for member in members:
                member = getattr(member, "__func__", member)
                if (hasattr(member, "cache_parameters")
                        and member.__module__ == module.__name__):
                    caches[f"{info.name}.{member.__qualname__}"] = member
    return caches


def _readme_cache_paragraph() -> str:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (paragraph,) = [p for p in readme.read_text().split("\n\n")
                    if "KERNEL_CACHE_SIZE" in p]
    return paragraph


def test_readme_names_every_process_cache():
    named = set(re.findall(r"`(\w+\.\w+)`", _readme_cache_paragraph()))
    assert named == set(_process_caches())


def test_every_cache_is_bounded():
    for name, cache in _process_caches().items():
        if name == "quadrature._level_nodes":
            # unbounded, but keyed by level: at most _LEVELS + 1 entries
            continue
        assert cache.cache_parameters()["maxsize"] == KERNEL_CACHE_SIZE, name


def test_level_nodes_hold_one_entry_per_level():
    quadrature._level_nodes.cache_clear()
    rng = np.random.default_rng(5)
    with pytest.raises(quadrature.QuadratureError):
        quadrature.tanh_sinh(lambda x, dl, dr: rng.standard_normal(x.shape),
                             0.0, 1.0)
    assert quadrature._level_nodes.cache_info().currsize == (
        quadrature._LEVELS + 1)
