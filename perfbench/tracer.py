"""Per-layer tracing of gradcalc from outside the program.

`Tracer.install()` replaces public functions and a few dunders of each
gradcalc module with wrappers, in every module namespace that bound the
name: `from .calculus import lie_bracket` copies the reference into
suite, checkers, dsl and the package itself, and lifts binds tensor
helpers the same way, so each copy is replaced.  Methods are replaced on
their class.  `uninstall()` puts every original object back.

Span wrappers record (name, parent span, item id, start, end) into
in-memory arrays; count wrappers only bump a counter.  A layer's self time
is its spans' durations minus the part covered by their child spans.
Layers are named after modules.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import factorial

from gradcalc import (calculus, checkers, cli, dsl, lifts, oracle, poly,
                      render, sampling, tensor)

CHECKER_FUNCTIONS = (
    "is_weighted_tensor", "is_poisson", "is_weighted_poisson", "is_nijenhuis",
    "is_weighted_nijenhuis", "is_almost_complex", "is_almost_product",
    "is_almost_tangent", "is_weighted_pn", "is_involutive",
    "is_weighted_distribution", "is_weighted_contact",
)
CALCULUS_OPS = {"lie": "lie_bracket", "schouten": "schouten_bracket",
                "fn": "fn_bracket", "nr": "nr_bracket",
                "liederiv": "lie_derivative", "d": "exterior_derivative",
                "concomitant": "concomitant"}


def _targets() -> list:
    """(owner, attribute, wrapper kind, name) for every traced callable."""
    P, T, L = poly.Poly, tensor.TensorField, lifts.LiftContext
    out = [
        (P, "__mul__", "span", "poly.mul"),
        (P, "diff", "span", "poly.diff"),
        (P, "substitute", "span", "poly.substitute"),
        (P, "__add__", "count", "poly.add.calls"),
        (P, "evaluate", "count", "poly.evaluate.calls"),
        (T, "__init__", "count", "tensor.construct.count"),
        (tensor, "coordinate_vector_field", "count", "tensor.coordinate_field.count"),
        (tensor, "coordinate_one_form", "count", "tensor.coordinate_field.count"),
        (T, "expand", "span", "tensor.expand"),
        (T, "__add__", "span", "tensor.arith"),
        (T, "__sub__", "span", "tensor.arith"),
        (T, "__neg__", "span", "tensor.arith"),
        (T, "__mul__", "span", "tensor.arith"),
        (T, "__eq__", "span", "tensor.eq"),
        (tensor, "wedge", "span", "tensor.wedge"),
        (tensor, "wedge_list", "span", "tensor.wedge_list"),
        (tensor, "insert_multivector", "span", "tensor.insert"),
        (tensor, "insert_form", "span", "tensor.insert"),
        (tensor, "tensor_product", "span", "tensor.product"),
        (tensor, "contract", "span", "tensor.contract"),
        (tensor, "compose_11", "span", "tensor.compose"),
        (tensor, "tagged", "span", "tensor.tagged"),
        (tensor, "degree_of_tensor", "span", "tensor.degree"),
        (tensor, "_from_expanded", "span", "tensor.from_expanded"),
        (calculus, "vf_apply", "span", "calculus.vf_apply"),
        (calculus, "nijenhuis_torsion", "span", "calculus.torsion"),
        (L, "__init__", "span", "lifts.context"),
        (lifts, "lift_tensor", "span", "lifts.lift_tensor"),
        (lifts, "lift_function_jets", "span", "lifts.jets"),
        (lifts, "lift_function", "span", "lifts.lift_function"),
        (lifts, "lift_linear_connection", "span", "lifts.connection"),
        (lifts, "covariant_derivative", "span", "lifts.covd"),
        (lifts, "lift_distribution", "span", "lifts.distribution"),
        (lifts, "tangent_connection", "span", "lifts.tangent_connection"),
        (checkers, "rational_rank", "span", "checkers.rank"),
        (checkers, "rank_at_point", "span", "checkers.rank_at_point"),
        (oracle, "taylor_lift_oracle", "span", "oracle.taylor"),
        (oracle, "koszul_concomitant_oracle", "span", "oracle.koszul"),
        (oracle, "identity_spot_check", "span", "oracle.spotcheck"),
        (oracle, "evaluate_tensor_at", "span", "oracle.evaluate"),
        (dsl, "parse", "span", "dsl.parse"),
        (dsl, "execute", "span", "dsl.execute"),
        (dsl, "records_to_json", "span", "dsl.to_json"),
        (cli, "main", "span", "cli"),
    ]
    out += [(calculus, fn, "span", f"calculus.{op}") for op, fn in CALCULUS_OPS.items()]
    out += [(checkers, fn, "span", f"checkers.{fn}") for fn in CHECKER_FUNCTIONS]
    out += [(render, fn, "span", "render") for fn in
            ("render_poly", "render_tensor", "poly_to_json", "tensor_to_json",
             "chart_to_json")]
    out += [(sampling, fn, "span", "sampling") for fn in sampling.__all__]
    return out


def _perm_count(idx: tuple, sym: str) -> int:
    """Number of expanded keys one stored index block stands for."""
    if sym == "none" or len(idx) < 2:
        return 1
    if sym == "antisym":
        return factorial(len(idx))
    n = factorial(len(idx))
    for v in set(idx):
        n //= factorial(idx.count(v))
    return n


@lru_cache(maxsize=None)
def _useful_assignments(slots: int, r: int, lam: int) -> int:
    """Level tuples in [0, r]^slots whose sum s leaves 0 <= lam - s <= r."""
    ways = [1]
    for _ in range(slots):
        nxt = [0] * (len(ways) + r)
        for s, w in enumerate(ways):
            for level in range(r + 1):
                nxt[s + level] += w
        ways = nxt
    return sum(w for s, w in enumerate(ways) if 0 <= lam - s <= r)


def gradcalc_namespaces() -> list:
    """Every module of the package plus the classes whose methods are traced."""
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gradcalc" or name.startswith("gradcalc."))]
    return mods + [poly.Poly, tensor.TensorField, lifts.LiftContext]


class Tracer:
    def __init__(self):
        self.item = -1
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list = []
        self.counts: dict = defaultdict(int)
        self.installed: list = []
        self._jets_item = None
        self._jets_seen: set = set()

    # -- hooks computing counts where the work happens -------------------

    def _pre_mul(self, args) -> None:
        a, b = args[0], args[1]
        nb = len(b.terms) if isinstance(b, poly.Poly) else 1
        self.counts["poly.mul.term_products"] += len(a.terms) * nb

    def _post_mul(self, args, result) -> None:
        if isinstance(result, poly.Poly):
            coefs = result.terms.values()
            self.counts["poly.mul.result_terms"] += len(coefs)
            self.counts["poly.mul.fraction_terms"] += sum(
                1 for c in coefs if isinstance(c, Fraction) and c.denominator != 1)

    def _pre_expand(self, args) -> None:
        if args[0]._expanded is None:
            self.counts["tensor.expand.misses"] += 1

    def _post_lie(self, args, result) -> None:
        if result.is_zero():
            self.counts["calculus.lie.zero"] += 1

    def _pre_lift_tensor(self, args) -> None:
        t, lam, ctx = args[0], args[1], args[2]
        r = ctx.r
        if not 0 <= lam <= r:
            return
        for up, down in t.components:
            perms = _perm_count(up, t.contra_sym) * _perm_count(down, t.cov_sym)
            slots = len(up) + len(down)
            self.counts["lifts.assign.total"] += perms * (r + 1) ** slots
            self.counts["lifts.assign.useful"] += perms * _useful_assignments(slots, r, lam)

    def _pre_jets(self, args) -> None:
        if self.item != self._jets_item:
            self._jets_item = self.item
            self._jets_seen = set()
        key = (frozenset(args[0].terms.items()), id(args[1]))
        if key in self._jets_seen:
            self.counts["lifts.jets.repeats"] += 1
        self._jets_seen.add(key)

    def _post_sample_points(self, args, result) -> None:
        self.counts["checkers.sample_points.count"] += len(result)

    def _pre_execute(self, args) -> None:
        self.counts["dsl.statements"] += len(args[0].statements)

    # -- wrappers --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn, name: str, pre=None, post=None):
        nid = self._name_id(name)
        names, parents, items = self.span_name, self.span_parent, self.span_item
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            items.append(tracer.item)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        hooks = {
            "poly.mul": (self._pre_mul, self._post_mul),
            "tensor.expand": (self._pre_expand, None),
            "calculus.lie": (None, self._post_lie),
            "lifts.lift_tensor": (self._pre_lift_tensor, None),
            "lifts.jets": (self._pre_jets, None),
            "dsl.execute": (self._pre_execute, None),
        }
        wrappers: dict = {}
        for owner, attr, kind, name in _targets():
            fn = vars(owner)[attr]
            if kind == "count":
                wrapper = self._count(fn, name)
            elif fn is sampling.sample_points:
                wrapper = self._span(fn, name, None, self._post_sample_points)
            else:
                wrapper = self._span(fn, name, *hooks.get(name, (None, None)))
            wrappers[id(fn)] = (fn, wrapper)
        for owner in gradcalc_namespaces():
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])
                    self.installed.append((owner, attr, value))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self.installed):
            setattr(owner, attr, value)
        self.installed = []

    # -- results -----------------------------------------------------------------

    def self_times(self, begin: float, end: float):
        """Per span name: (calls, self seconds), plus root-span coverage,
        over spans that start inside [begin, end]."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        n = len(starts)
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        covered = 0.0
        for i in range(n):
            if not begin <= starts[i] <= end:
                continue
            name = self.names[self.span_name[i]]
            dur = ends[i] - starts[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            if parents[i] < 0:
                covered += dur
        return calls, self_s, covered

    def write_spans(self, directory: str) -> None:
        """Dump the span arrays (native byte order) and a JSON header."""
        os.makedirs(directory, exist_ok=True)
        fields = {"name": self.span_name, "parent": self.span_parent,
                  "item": self.span_item, "start": self.span_start,
                  "end": self.span_end}
        for field, arr in fields.items():
            with open(os.path.join(directory, f"{field}.bin"), "wb") as fh:
                arr.tofile(fh)
        header = {"count": len(self.span_start), "names": self.names,
                  "fields": {f: a.typecode for f, a in fields.items()},
                  "byteorder": sys.byteorder, "clock": "time.perf_counter"}
        with open(os.path.join(directory, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(header, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> unit, in the order they are reported
PER_LAYER_UNITS = {}


def _declare(unit: str, *names: str) -> None:
    for n in names:
        PER_LAYER_UNITS[n] = unit


_declare("count", "poly.mul.calls", "poly.mul.term_products", "poly.mul.result_terms")
_declare("s", "poly.mul.self_s")
_declare("count", "poly.add.calls", "poly.diff.calls")
_declare("s", "poly.diff.self_s")
_declare("count", "poly.substitute.calls")
_declare("s", "poly.substitute.self_s")
_declare("count", "poly.evaluate.calls")
_declare("fraction", "poly.coef.fraction_share")
_declare("count", "tensor.construct.count", "tensor.coordinate_field.count",
         "tensor.expand.calls")
_declare("fraction", "tensor.expand.miss_ratio")
_declare("count", "tensor.wedge.calls")
_declare("s", "tensor.wedge.self_s")
_declare("count", "tensor.insert.calls")
_declare("s", "tensor.insert.self_s", "tensor.self_s")
for _op in CALCULUS_OPS:
    _declare("count", f"calculus.{_op}.calls")
    _declare("s", f"calculus.{_op}.self_s")
_declare("fraction", "calculus.lie.zero_ratio")
for _layer in ("context", "lift_tensor", "jets"):
    _declare("count", f"lifts.{_layer}.calls")
    _declare("s", f"lifts.{_layer}.self_s")
_declare("fraction", "lifts.jets.repeat_ratio")
_declare("count", "lifts.assign.total")
_declare("fraction", "lifts.assign.useful_ratio")
for _layer in ("connection", "covd"):
    _declare("count", f"lifts.{_layer}.calls")
    _declare("s", f"lifts.{_layer}.self_s")
for _fn in CHECKER_FUNCTIONS:
    _declare("count", f"checkers.{_fn}.calls")
    _declare("s", f"checkers.{_fn}.self_s")
_declare("count", "checkers.rank.calls", "checkers.sample_points.count")
for _layer in ("taylor", "koszul", "spotcheck"):
    _declare("count", f"oracle.{_layer}.calls")
    _declare("s", f"oracle.{_layer}.self_s")
_declare("s", "dsl.parse.self_s", "dsl.execute.self_s")
_declare("count", "dsl.statements", "render.calls")
_declare("s", "render.self_s")
_declare("bytes", "cli.json_bytes")
_declare("s", "cli.self_s", "sampling.self_s")
_declare("s", "trace.wall_s", "unattributed_s")
_declare("ratio", "trace.overhead_ratio")


def layer_metrics(tracer: Tracer, begin: float, end: float, json_bytes: int) -> dict:
    """Every per-layer metric except trace.overhead_ratio, which needs the
    untraced run."""
    calls, self_s, covered = tracer.self_times(begin, end)
    c = tracer.counts

    def prefixed(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    m = {
        "poly.mul.calls": calls["poly.mul"],
        "poly.mul.term_products": c["poly.mul.term_products"],
        "poly.mul.result_terms": c["poly.mul.result_terms"],
        "poly.mul.self_s": self_s["poly.mul"],
        "poly.add.calls": c["poly.add.calls"],
        "poly.diff.calls": calls["poly.diff"],
        "poly.diff.self_s": self_s["poly.diff"],
        "poly.substitute.calls": calls["poly.substitute"],
        "poly.substitute.self_s": self_s["poly.substitute"],
        "poly.evaluate.calls": c["poly.evaluate.calls"],
        "poly.coef.fraction_share": _ratio(c["poly.mul.fraction_terms"],
                                           c["poly.mul.result_terms"]),
        "tensor.construct.count": c["tensor.construct.count"],
        "tensor.coordinate_field.count": c["tensor.coordinate_field.count"],
        "tensor.expand.calls": calls["tensor.expand"],
        "tensor.expand.miss_ratio": _ratio(c["tensor.expand.misses"],
                                           calls["tensor.expand"]),
        "tensor.wedge.calls": calls["tensor.wedge"],
        "tensor.wedge.self_s": self_s["tensor.wedge"],
        "tensor.insert.calls": calls["tensor.insert"],
        "tensor.insert.self_s": self_s["tensor.insert"],
        "tensor.self_s": prefixed("tensor."),
        "calculus.lie.zero_ratio": _ratio(c["calculus.lie.zero"], calls["calculus.lie"]),
        "lifts.jets.repeat_ratio": _ratio(c["lifts.jets.repeats"], calls["lifts.jets"]),
        "lifts.assign.total": c["lifts.assign.total"],
        "lifts.assign.useful_ratio": _ratio(c["lifts.assign.useful"],
                                            c["lifts.assign.total"]),
        "checkers.rank.calls": calls["checkers.rank"],
        "checkers.sample_points.count": c["checkers.sample_points.count"],
        "dsl.parse.self_s": self_s["dsl.parse"],
        "dsl.execute.self_s": self_s["dsl.execute"],
        "dsl.statements": c["dsl.statements"],
        "render.calls": calls["render"],
        "render.self_s": self_s["render"],
        "cli.json_bytes": json_bytes,
        "cli.self_s": self_s["cli"],
        "sampling.self_s": self_s["sampling"],
        "trace.wall_s": end - begin,
        "unattributed_s": (end - begin) - covered,
    }
    for op in CALCULUS_OPS:
        m[f"calculus.{op}.calls"] = calls[f"calculus.{op}"]
        m[f"calculus.{op}.self_s"] = self_s[f"calculus.{op}"]
    for layer in ("context", "lift_tensor", "jets", "connection", "covd"):
        m[f"lifts.{layer}.calls"] = calls[f"lifts.{layer}"]
        m[f"lifts.{layer}.self_s"] = self_s[f"lifts.{layer}"]
    for fn in CHECKER_FUNCTIONS:
        m[f"checkers.{fn}.calls"] = calls[f"checkers.{fn}"]
        m[f"checkers.{fn}.self_s"] = self_s[f"checkers.{fn}"]
    for layer in ("taylor", "koszul", "spotcheck"):
        m[f"oracle.{layer}.calls"] = calls[f"oracle.{layer}"]
        m[f"oracle.{layer}.self_s"] = self_s[f"oracle.{layer}"]
    return m
