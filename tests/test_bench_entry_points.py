"""The benchmark's workloads reach the library only through names on the
``twistedperiods`` package; every such name must keep resolving.  Its
tracer wraps library functions by (module, qualname), and a target that no
longer resolves silently reports zero for its layer."""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

import twistedperiods

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"

# tracer targets whose functions were merged away before this test existed
STALE_TRACER_TARGETS = {
    ("hypergeom", "product_term1_coeff"), ("hypergeom", "product_term2_coeff"),
    ("matrices", "lu_inverse"), ("verify", "verify_full_tpr"),
    ("verify", "verify_block_tpr"), ("verify", "verify_orthogonality")}


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


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves_but_the_known_stale_ones():
    unresolved = set()
    for targets in _load_tracer().LAYERS.values():
        for module, qualname, _ in targets:
            owner = importlib.import_module(f"twistedperiods.{module}")
            try:
                functools.reduce(getattr, qualname.split("."), owner)
            except AttributeError:
                unresolved.add((module, qualname))
    assert unresolved - STALE_TRACER_TARGETS == set()
