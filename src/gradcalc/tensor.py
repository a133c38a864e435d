"""Tensor fields with polynomial components on a fixed chart.

A (q, p) tensor field is stored as a sparse dict mapping index keys
(up, down) -- up a q-tuple and down a p-tuple of variable indices -- to
nonzero Poly coefficients.  Symmetry tags ("none", "sym", "antisym") apply
to the whole contravariant and covariant block respectively and control
which keys are stored:

* antisym: strictly increasing index tuples, sign-normalized;
* sym: non-decreasing index tuples;
* none: every key.

expand() materializes the full component table (all permutations, signs
applied); two tensors are equal iff their expanded tables agree, so a
wedge and its explicit tensor-product expansion compare equal.  Every
public result stores canonical keys and no zero component, so tensors
with the same tags are compared on their stored components; only
differently tagged ones are expanded.  _sum is the one n-ary sum of
tensors and + its two-operand case: a key of one operand keeps its Poly,
and the operands that share a key meet in one term dict (poly._acc_poly).
The products (tensor_product, wedge, insert_multivector and scaling)
add their term products into term dicts the same way
(poly._acc_product), and contract, which traces a tensor product in
compose_11, and from_components, which vector_field calls, sum through
poly._acc_poly: every sum of components here goes through that one
polynomial accumulator.

The wedge product is the unnormalized signed-shuffle product: on
one-forms a ^^ b = a ox b - b ox a, with no 1/k! factors anywhere.
Insertion operators pair against the leading slots of the other block.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import permutations

from .charts import Chart
from .errors import ChartMismatchError, ValenceError
from .poly import (ANY_DEGREE, Poly, _acc_poly, _acc_product, _coefficient, _polys,
                   degree_of_function)

__all__ = [
    "TensorField", "tensor_product", "wedge", "wedge_list", "contract",
    "insert_multivector", "insert_form", "degree_of_tensor",
    "compose_11", "identity_tensor", "weight_vector_field",
    "scalar_field", "vector_field",
    "coordinate_vector_field", "coordinate_one_form", "tagged",
]

_SYMS = ("none", "sym", "antisym")


def _same_chart(a, b) -> None:
    """The one chart check of the binary tensor operations: charts compare
    by identity, so equal variable tables on two charts still mismatch."""
    if a.chart is not b.chart:
        raise ChartMismatchError("tensors live on different charts")


def _check_valence(q, p) -> None:
    """The valence check of the public builders; the constructor takes a
    valence as it is."""
    if type(q) is not int or type(p) is not int or q < 0 or p < 0:
        raise ValenceError(f"valence ({q!r},{p!r}) must be two nonnegative integers")


def _sort_with_parity(idx: tuple) -> tuple:
    """(sign, sorted tuple); sign 0 when an index repeats.

    idx is a tuple.  Keys of length < 2 come back as they are with sign
    1, and a key of length 2 is settled by one comparison: the pair is
    kept, swapped with sign -1, or has sign 0 when both indices agree.
    Longer keys are sorted by insertion, flipping the sign per swap.
    """
    n = len(idx)
    if n < 2:
        return 1, idx
    if n == 2:
        a, b = idx
        if a < b:
            return 1, idx
        return (-1, (b, a)) if a > b else (0, idx)
    lst = list(idx)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(lst)):
        if lst[i - 1] == lst[i]:
            return 0, tuple(lst)
    return sign, tuple(lst)


def _is_canonical(idx: tuple, sym: str) -> bool:
    if sym == "none" or len(idx) < 2:
        return True
    if sym == "sym":
        return all(idx[i] <= idx[i + 1] for i in range(len(idx) - 1))
    return all(idx[i] < idx[i + 1] for i in range(len(idx) - 1))


def _block_expansion(idx: tuple, sym: str) -> list:
    """All (sign, permuted key) pairs representing one stored block."""
    if sym == "none" or len(idx) < 2:
        return [(1, idx)]
    if sym == "sym":
        return [(1, p) for p in set(permutations(idx))]
    out = []
    for p in permutations(idx):
        s, _ = _sort_with_parity(p)
        out.append((s, p))
    return out


class TensorField:
    """Sparse (q, p) tensor field over one chart."""

    __slots__ = ("chart", "q", "p", "components", "contra_sym", "cov_sym", "_expanded")

    def __init__(self, chart: Chart, q: int, p: int, components: dict,
                 contra_sym: str = "none", cov_sym: str = "none"):
        # components must already be canonical for the given tags
        if contra_sym not in _SYMS or cov_sym not in _SYMS:
            bad = ", ".join(repr(s) for s in (contra_sym, cov_sym) if s not in _SYMS)
            raise ValenceError(f"unknown symmetry tag {bad}; expected one of {', '.join(_SYMS)}")
        self.chart = chart
        self.q = q
        self.p = p
        self.components = components
        self.contra_sym = contra_sym if q >= 2 else "none"
        self.cov_sym = cov_sym if p >= 2 else "none"
        self._expanded = None

    # -- construction ---------------------------------------------------

    @staticmethod
    def zero(chart: Chart, q: int, p: int,
             contra_sym: str = "none", cov_sym: str = "none") -> "TensorField":
        _check_valence(q, p)
        return TensorField(chart, q, p, {}, contra_sym, cov_sym)

    @staticmethod
    def from_components(chart: Chart, q: int, p: int, entries: Mapping | Iterable,
                        contra_sym: str = "none", cov_sym: str = "none") -> "TensorField":
        """Build from canonical-key components; valence, keys and coefficients are checked."""
        _check_valence(q, p)
        items = entries.items() if isinstance(entries, Mapping) else entries
        comps: dict = {}
        for (up, down), coef in items:
            up, down = tuple(up), tuple(down)
            if len(up) != q or len(down) != p:
                raise ValenceError(f"key {(up, down)} does not match valence ({q},{p})")
            if not _is_canonical(up, contra_sym):
                raise ValenceError(f"non-canonical contravariant key {up} for tag {contra_sym}")
            if not _is_canonical(down, cov_sym):
                raise ValenceError(f"non-canonical covariant key {down} for tag {cov_sym}")
            for i in up + down:
                chart.check_index(i)
            _acc_poly(comps, (up, down), _coefficient(chart, coef, "component polynomial"))
        return TensorField(chart, q, p, _polys(chart, comps), contra_sym, cov_sym)

    # -- basics -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.components

    def __bool__(self) -> bool:
        return bool(self.components)

    def scalar_part(self) -> Poly:
        if self.q or self.p:
            raise ValenceError("not a scalar field")
        return self.components.get(((), ()), Poly.zero(self.chart))

    def expand(self) -> dict:
        """Full component table: every index order, signs applied."""
        if self._expanded is None:
            out: dict = {}
            for (up, down), coef in self.components.items():
                for su, pu in _block_expansion(up, self.contra_sym):
                    for sd, pd in _block_expansion(down, self.cov_sym):
                        s = su * sd
                        out[(pu, pd)] = coef if s == 1 else -coef
            self._expanded = out
        return self._expanded

    def component(self, up, down) -> Poly:
        """Component at an arbitrary index key (symmetry resolved)."""
        v = self.expand().get((tuple(up), tuple(down)))
        return v if v is not None else Poly.zero(self.chart)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorField):
            return NotImplemented
        if self.chart is not other.chart or self.q != other.q or self.p != other.p:
            return False
        if self.contra_sym == other.contra_sym and self.cov_sym == other.cov_sym:
            return self.components == other.components
        return self.expand() == other.expand()

    __hash__ = None

    def __repr__(self) -> str:
        from .render import render_tensor
        return render_tensor(self)

    # -- linear structure ---------------------------------------------------

    def _check(self, other: "TensorField") -> None:
        _same_chart(self, other)
        if self.q != other.q or self.p != other.p:
            raise ValenceError(
                f"valence mismatch: ({self.q},{self.p}) vs ({other.q},{other.p})")

    def __add__(self, other: "TensorField") -> "TensorField":
        """self + other, the two-operand case of _sum."""
        if not isinstance(other, TensorField):
            return NotImplemented
        return _sum([self, other])

    def __neg__(self) -> "TensorField":
        return TensorField(self.chart, self.q, self.p,
                           {k: -v for k, v in self.components.items()},
                           self.contra_sym, self.cov_sym)

    def __sub__(self, other: "TensorField") -> "TensorField":
        if not isinstance(other, TensorField):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "TensorField":
        if not isinstance(other, (int, Fraction, Poly)):
            return NotImplemented
        other = _coefficient(self.chart, other, "scalar")
        out: dict = {}
        for k, v in self.components.items():
            _acc_product(out, k, v, other)
        return TensorField(self.chart, self.q, self.p, _polys(self.chart, out),
                           self.contra_sym, self.cov_sym)

    __rmul__ = __mul__


def _sum(tensors: list) -> TensorField:
    """The one n-ary sum, each operand checked against the first: of stored
    components when all tags agree (the result keeps them), else of expanded
    tables (untagged).  A key of one operand alone keeps its Poly; the
    operands that share a key meet in one term dict of poly._acc_poly, so
    the result is stored as the left fold of + would store it."""
    first = tensors[0]
    tags = {(t.contra_sym, t.cov_sym) for t in tensors}
    tags = tags.pop() if len(tags) == 1 else ()
    out = dict(first.components if tags else first.expand())
    for t in tensors[1:]:
        first._check(t)
        for k, v in (t.components if tags else t.expand()).items():
            _acc_poly(out, k, v)
    return TensorField(first.chart, first.q, first.p, _polys(first.chart, out), *tags)


def _swap(t: TensorField) -> TensorField:
    """The (p, q) tensor with t's two index blocks and their tags exchanged."""
    return TensorField(t.chart, t.p, t.q,
                       {(down, up): c for (up, down), c in t.components.items()},
                       t.cov_sym, t.contra_sym)


def _from_expanded(chart: Chart, q: int, p: int, expanded: dict,
                   contra_sym: str = "none", cov_sym: str = "none") -> TensorField:
    """Canonical tensor from a zero-free expanded table known to have the symmetry."""
    comps = {}
    for (up, down), coef in expanded.items():
        if _is_canonical(up, contra_sym) and _is_canonical(down, cov_sym):
            comps[(up, down)] = coef
    return TensorField(chart, q, p, comps, contra_sym, cov_sym)


def tagged(t: TensorField, contra_sym: str = "none", cov_sym: str = "none") -> TensorField:
    """Re-store a tensor under symmetry tags, verifying the symmetry holds.

    Verification is extensional: the retagged tensor must expand back to
    the same component table, so a lone dx ox dy is rejected as antisym
    rather than silently completed to dx ox dy - dy ox dx.
    """
    exp = t.expand()
    out = _from_expanded(t.chart, t.q, t.p, exp, contra_sym, cov_sym)
    if out.expand() != exp:
        raise ValenceError("tensor lacks the claimed symmetry")
    return out


# -- convenience builders ----------------------------------------------------

def scalar_field(chart: Chart, value) -> TensorField:
    value = _coefficient(chart, value, "scalar")
    comps = {((), ()): value} if value else {}
    return TensorField(chart, 0, 0, comps)


def vector_field(chart: Chart, entries: Mapping) -> TensorField:
    return TensorField.from_components(
        chart, 1, 0, ((((chart.index(i),), ()), v) for i, v in entries.items()))


def coordinate_vector_field(chart: Chart, var) -> TensorField:
    return TensorField(chart, 1, 0, {((chart.index(var),), ()): Poly.const(chart, 1)})


def coordinate_one_form(chart: Chart, var) -> TensorField:
    return TensorField(chart, 0, 1, {((), (chart.index(var),)): Poly.const(chart, 1)})


def identity_tensor(chart: Chart) -> TensorField:
    one = Poly.const(chart, 1)
    return TensorField(chart, 1, 1,
                       {((i,), (i,)): one for i in range(chart.dim)})


def weight_vector_field(chart: Chart, component: int = 0) -> TensorField:
    """The weight (Euler) vector field: sum of w_i x^i d/dx^i."""
    chart.check_component(component)
    comps = {}
    for i in range(chart.dim):
        w = chart.weights[i][component]
        if w:
            comps[((i,), ())] = Poly.variable(chart, i) * w
    return TensorField(chart, 1, 0, comps)


# -- multiplicative operations ---------------------------------------------

def tensor_product(a: TensorField, b: TensorField) -> TensorField:
    """Tensor product; contravariant slots of a then b, likewise covariant.

    A block coming from a single operand keeps that operand's symmetry
    tag, so a scalar factor just scales the other operand.
    """
    _same_chart(a, b)
    cs = a.contra_sym if b.q == 0 else (b.contra_sym if a.q == 0 else "none")
    ps = a.cov_sym if b.p == 0 else (b.cov_sym if a.p == 0 else "none")
    out: dict = {}
    for (ua, da), ca in a.expand().items():
        for (ub, db), cb in b.expand().items():
            _acc_product(out, (ua + ub, da + db), ca, cb)
    return _from_expanded(a.chart, a.q + b.q, a.p + b.p, _polys(a.chart, out), cs, ps)


def _wedge_keys(t: TensorField):
    """Stored keys of a pure antisymmetric tensor as increasing tuples."""
    if t.q and t.p:
        raise ValenceError("wedge operands must be pure co- or contravariant")
    block = 0 if t.q else 1
    deg = t.q + t.p
    if deg >= 2:
        sym = t.contra_sym if t.q else t.cov_sym
        if sym != "antisym":
            raise ValenceError("wedge operands of degree >= 2 must be antisym-tagged")
    return block, deg, {k[block]: v for k, v in t.components.items()}


def wedge(a: TensorField, b: TensorField) -> TensorField:
    """Unnormalized exterior product of forms or of multivector fields."""
    _same_chart(a, b)
    if a.q == 0 and a.p == 0:
        return b * a.scalar_part()
    if b.q == 0 and b.p == 0:
        return a * b.scalar_part()
    ba, da, ka = _wedge_keys(a)
    bb, db, kb = _wedge_keys(b)
    if ba != bb:
        raise ValenceError("cannot wedge a form with a multivector")
    out: dict = {}
    for i, ca in ka.items():
        for j, cb in kb.items():
            sign, key = _sort_with_parity(i + j)
            if sign:
                _acc_product(out, (key, ()) if ba == 0 else ((), key), ca, cb, sign)
    deg = da + db
    if ba == 0:
        return TensorField(a.chart, deg, 0, _polys(a.chart, out), contra_sym="antisym")
    return TensorField(a.chart, 0, deg, _polys(a.chart, out), cov_sym="antisym")


def wedge_list(fields: Iterable[TensorField]) -> TensorField:
    fields = list(fields)
    if not fields:
        raise ValenceError("empty wedge")
    acc = fields[0]
    for f in fields[1:]:
        acc = wedge(acc, f)
    return acc


def contract(t: TensorField, contra_slot: int, cov_slot: int) -> TensorField:
    """Trace one contravariant against one covariant slot (0-based)."""
    if not (0 <= contra_slot < t.q and 0 <= cov_slot < t.p):
        raise ValenceError("contraction slot out of range")
    out: dict = {}
    for (up, down), coef in t.expand().items():
        if up[contra_slot] != down[cov_slot]:
            continue
        nu = up[:contra_slot] + up[contra_slot + 1:]
        nd = down[:cov_slot] + down[cov_slot + 1:]
        _acc_poly(out, (nu, nd), coef)
    return _from_expanded(t.chart, t.q - 1, t.p - 1, _polys(t.chart, out))


def insert_multivector(x: TensorField, t: TensorField) -> TensorField:
    """Pair a multivector's slots against the leading covariant slots of t."""
    _same_chart(x, t)
    if x.p != 0:
        raise ValenceError("insertion argument must be purely contravariant")
    l = x.q
    if l > t.p:
        raise ValenceError(f"cannot insert a {l}-vector into a tensor with {t.p} covariant slots")
    xe = x.expand()
    out: dict = {}
    for (up, down), coef in t.expand().items():
        xv = xe.get((down[:l], ()))
        if xv is not None:
            _acc_product(out, (up, down[l:]), coef, xv)
    return _from_expanded(t.chart, t.q, t.p - l, _polys(t.chart, out),
                          t.contra_sym, t.cov_sym)


def insert_form(w: TensorField, t: TensorField) -> TensorField:
    """Pair a form's slots against the leading contravariant slots of t."""
    _same_chart(w, t)
    if w.q != 0:
        raise ValenceError("insertion argument must be purely covariant")
    u = w.p
    if u > t.q:
        raise ValenceError(f"cannot insert a {u}-form into a tensor with {t.q} contravariant slots")
    return _swap(insert_multivector(_swap(w), _swap(t)))


def compose_11(a: TensorField, b: TensorField) -> TensorField:
    """Composition (a.b)(v) = a(b(v)) of (1,1) tensors, a trace of a ox b."""
    _same_chart(a, b)
    if (a.q, a.p) != (1, 1) or (b.q, b.p) != (1, 1):
        raise ValenceError("compose_11 needs two (1,1) tensors")
    return contract(tensor_product(a, b), 1, 0)


def degree_of_tensor(t: TensorField, component: int = 0) -> object:
    """Combined homogeneity degree of a tensor in one grading component.

    Each component contributes deg(coefficient monomial) + sum of covariant
    index weights - sum of contravariant index weights; all contributions
    must agree.  Returns the degree, ANY_DEGREE for the zero tensor, or
    None when inhomogeneous.
    """
    chart = t.chart
    chart.check_component(component)
    ws = chart.weights
    seen = None
    for (up, down), coef in t.components.items():
        d = degree_of_function(coef, component)
        if d is None:
            return None
        if d is ANY_DEGREE:
            continue
        d += sum(ws[j][component] for j in down) - sum(ws[i][component] for i in up)
        if seen is None:
            seen = d
        elif seen != d:
            return None
    return ANY_DEGREE if seen is None else seen
