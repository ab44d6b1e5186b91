"""The benchmark's workloads reach the library only through names on the
``twistedperiods`` package; every such name must keep resolving."""

import ast
import functools
from pathlib import Path

import pytest

import twistedperiods

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _tp_chains(tree: ast.AST) -> set:
    """Every attribute chain rooted at the name ``tp``, e.g.
    ``("verify", "SWEEP_TAUS")`` for ``tp.verify.SWEEP_TAUS``."""
    chains = set()
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if names and isinstance(node, ast.Name) and node.id == "tp":
            chains.add(tuple(reversed(names)))
    return chains


TREE = ast.parse(WORKLOADS.read_text())
CHAINS = sorted(_tp_chains(TREE))


def test_workloads_import_the_package_as_tp():
    assert any(isinstance(node, ast.Import)
               and any(a.name == "twistedperiods" and a.asname == "tp"
                       for a in node.names)
               for node in ast.walk(TREE))
    assert len(CHAINS) >= 10


@pytest.mark.parametrize("chain", CHAINS, ids=".".join)
def test_chain_resolves_on_the_package(chain):
    functools.reduce(getattr, chain, twistedperiods)
