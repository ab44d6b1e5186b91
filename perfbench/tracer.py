"""Span tracing of the library's layers, installed from outside ``src/``.

``Tracer.install`` replaces each public function listed in ``LAYERS`` with a
recording wrapper at every module binding it is called through: the package
namespace, the other modules' ``from .x import f`` bindings, and the defining
module itself, so intra-module calls such as ``lambda_tau -> theta_constants``
are traced too.  ``uninstall`` puts the originals back; untraced runs never
install anything.

A span is ``[layer, start_ns, end_ns, parent index, unit, info, errored]``.
Spans stay in memory until the run ends.  A layer's self time is its span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np


def _theta_points(tracer, span, args, kwargs):
    span[5] = int(np.size(args[1] if len(args) > 1 else kwargs["u"]))
    return args


def _tau_key(tracer, span, args, kwargs):
    span[5] = (args[0] if args else kwargs["tau"]).tau
    return args


def _count_nodes(tracer, span, args, kwargs):
    """Trace the integrand as its own layer and count the nodes tanh-sinh
    evaluates it at, so the integrand's arithmetic is not tanh-sinh's."""
    integrand = args[0]
    span[5] = 0

    def counted(x, dl, dr):
        span[5] += int(np.size(x))
        return integrand(x, dl, dr)

    return (tracer.wrap("periods.integrand", counted, None),) + tuple(args[1:])


# layer -> [(module, function or Class.method)], with an optional hook that
# records the span's work (theta points, quadrature nodes) or key (tau)
LAYERS = {
    "series.theta": [("series", "theta", _theta_points)],
    "series.theta_constants": [("series", "theta_constants", _tau_key)],
    "series.theta_taylor": [("series", "theta_taylor", None)],
    "series.lambda_tau": [("series", "lambda_tau", None)],
    "series.eisenstein_g2": [("series", "eisenstein_g2", None)],
    "hypergeom.gauss_2f1": [("hypergeom", "gauss_2f1", None)],
    "hypergeom.gamma_real": [("hypergeom", "gamma_real", None)],
    "hypergeom.product_coeff": [("hypergeom", "product_term1_coeff", None),
                                ("hypergeom", "product_term2_coeff", None)],
    "quadrature.tanh_sinh": [("quadrature", "tanh_sinh", _count_nodes)],
    "matrices.lu_inverse": [("matrices", "lu_inverse", None)],
    "matrices.build": [("matrices", name, None) for name in (
        "homology_H", "cohomology_C", "basis_change", "block_H_prime",
        "block_C")],
    "matrices.admissible": [("matrices", "admissible", None)],
    "periods.period_matrix": [("periods", "period_matrix", None)],
    "periods.block_periods": [("periods", "block_periods", None)],
    "periods.wirtinger_quadrature": [
        ("periods", "wirtinger_quadrature", None)],
    "periods.euler_pairing": [("periods", "euler_pairing", None)],
    "verify.full_tpr": [("verify", "verify_full_tpr", None)],
    "verify.block_tpr": [("verify", "verify_block_tpr", None)],
    "verify.orthogonality": [("verify", "verify_orthogonality", None)],
    "verify.entry22": [("verify", "verify_entry22", None)],
    "verify.whipple": [("verify", "verify_whipple", None)],
    "verify.series_identities": [
        ("verify", "verify_series_identities", None)],
    "verify.sample_admissible": [("verify", "sample_admissible", None)],
    "verify.report": [("verify", "VerificationReport.to_json", None),
                      ("verify", "VerificationReport.from_json", None)],
}


# The per-layer metrics a traced run reports, as layer -> fields.  Counts
# (calls, errors, points, nodes, calls_per_tau) come from the traced count
# prefix and repeat exactly for a seed; self_ms comes from the traced timed
# loop.  All are per unit.
METRICS = {
    "series.theta_constants": ("calls", "calls_per_tau", "self_ms"),
    "series.lambda_tau": ("calls",),
    "series.theta": ("calls", "points", "self_ms"),
    "series.theta_taylor": ("calls", "self_ms"),
    "series.eisenstein_g2": ("calls", "self_ms"),
    "hypergeom.gauss_2f1": ("calls", "self_ms", "errors"),
    "hypergeom.gamma_real": ("calls", "self_ms"),
    "hypergeom.product_coeff": ("self_ms",),
    "quadrature.tanh_sinh": ("calls", "nodes", "self_ms", "errors"),
    "matrices.lu_inverse": ("calls", "self_ms", "errors"),
    "matrices.build": ("calls", "self_ms"),
    "matrices.admissible": ("calls", "self_ms"),
    "periods.period_matrix": ("calls", "self_ms"),
    "periods.block_periods": ("calls", "self_ms"),
    "periods.wirtinger_quadrature": ("self_ms",),
    "periods.euler_pairing": ("self_ms",),
    "periods.integrand": ("self_ms",),
    **{f"verify.{name}": ("self_ms",) for name in (
        "full_tpr", "block_tpr", "orthogonality", "entry22", "whipple",
        "series_identities", "sample_admissible", "report")},
}

FIELD_UNITS = {"calls": "count", "errors": "count", "points": "count",
               "nodes": "count", "calls_per_tau": "ratio", "self_ms": "ms"}


class Tracer:
    """Records spans from the wrappers it installs; ``unit`` is set by the
    loop around each unit's timed call."""

    def __init__(self):
        self.spans: list = []
        self.parent = -1
        self.unit = -1
        self._saved: list = []

    def wrap(self, layer: str, fn, hook):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            parent = tracer.parent
            span = [layer, 0, 0, parent, tracer.unit, None, False]
            tracer.parent = len(spans)
            spans.append(span)
            if hook is not None:
                args = hook(tracer, span, args, kwargs)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = clock()
                tracer.parent = parent

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> list:
        """Wrap every listed function; returns the names not found (a
        refactor may remove one; its metrics then read 0)."""
        package = [m for name, m in list(sys.modules.items())
                   if name == "twistedperiods"
                   or name.startswith("twistedperiods.")]
        missing = []
        for layer, targets in LAYERS.items():
            for module_name, qualname, hook in targets:
                module = importlib.import_module(
                    "twistedperiods." + module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name, None)
                    raw = getattr(owner, "__dict__", {}).get(attr)
                    if raw is None:
                        missing.append(qualname)
                    elif isinstance(raw, classmethod):
                        self._patch(owner, attr, classmethod(
                            self.wrap(layer, raw.__func__, hook)))
                    else:
                        self._patch(owner, attr, self.wrap(layer, raw, hook))
                    continue
                fn = getattr(module, qualname, None)
                if fn is None:
                    missing.append(qualname)
                    continue
                wrapped = self.wrap(layer, fn, hook)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, attr, wrapped)
        return missing

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def self_times(spans: list) -> list:
    """Per span: duration minus the time its direct children cover."""
    child = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def layer_counts(spans: list) -> dict:
    """layer -> [calls, errors, work (points or nodes), distinct (unit, tau)],
    over the spans recorded inside units."""
    counts = defaultdict(lambda: [0, 0, 0, set()])
    for layer, _s, _e, _p, unit, info, errored in spans:
        if unit < 0:
            continue
        c = counts[layer]
        c[0] += 1
        c[1] += errored
        if isinstance(info, int):
            c[2] += info
        elif info is not None:
            c[3].add((unit, info))
    return {layer: [c[0], c[1], c[2], len(c[3])]
            for layer, c in counts.items()}


def layer_self_ns(spans: list) -> dict:
    out = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        if span[4] >= 0:
            out[span[0]] += own
    return out


def top_level_ns(spans: list) -> int:
    """Time covered by spans inside units with no traced parent."""
    return sum(s[2] - s[1] for s in spans if s[3] < 0 and s[4] >= 0)


def write_spans(path, phases: dict) -> None:
    """One CSV row per span; ``parent`` indexes the rows of the same phase
    (-1: none), and unit -1 marks spans recorded while drawing inputs."""
    with open(path, "w") as fh:
        fh.write("phase,unit,layer,start_ns,end_ns,parent,errored\n")
        for phase, spans in phases.items():
            for layer, start, end, parent, unit, _info, errored in spans:
                fh.write(f"{phase},{unit},{layer},{start},{end},{parent},"
                         f"{int(errored)}\n")


def layer_metrics(counts: dict, spans: list, n_prefix: int,
                  n_traced: int, scale: float) -> dict:
    """name -> (value, unit) for every entry of METRICS; self times are
    multiplied by ``scale``."""
    self_ns = layer_self_ns(spans)
    out = {}
    for layer, fields in METRICS.items():
        calls, errors, work, taus = counts.get(layer, [0, 0, 0, 0])
        values = {
            "calls": calls / n_prefix,
            "errors": errors / n_prefix,
            "points": work / n_prefix,
            "nodes": work / n_prefix,
            "calls_per_tau": calls / taus if taus else 0.0,
            "self_ms": self_ns.get(layer, 0) / 1e6 * scale / n_traced,
        }
        for f in fields:
            out[f"{layer}.{f}"] = (values[f], FIELD_UNITS[f])
    return out
