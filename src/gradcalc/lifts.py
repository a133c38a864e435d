"""Lifts of functions, forms, fields and connections to prolonged charts.

The order-r prolongation of a chart replaces each variable x by the
family x = x_0, x_1, ..., x_r, the coordinates of the Weil functor of
the truncated algebra R[t]/(t^(r+1)).  The lambda-lift of a function f
is the coefficient extraction

    f^(lambda) = coefficient of t^lambda in f(sum_mu t^mu x_mu),

a polynomial on the prolonged chart; lambda outside 0..r gives zero, and
r = 0 lifts are the identity.  All lifts f^(0), ..., f^(r) together form
the jet of f, a list of r+1 polynomials, so t never appears as a
variable.  The jet of a monomial is read off in closed form: x^e
expands multinomially over the ways of spreading its e copies across
the levels, and a product of powers picks one term of each.  Inside a
context a monomial's jet is kept as plain term dicts
{level: {monomial: int}}, so building it builds no Poly; a function's
jet is returned as one Poly per level.  Lifts of tensors are generated
from the function lift and the basis rules

    (dx)^(lambda)   = dx_lambda,
    (d/dx)^(lambda) = d/d(x_{r-lambda}),

extended to arbitrary tensor products by distributing lambda over the
factors (coefficient included) and to wedge products by the same rule.
These choices make the top lift X^(r) of a vector field the complete
(flow) lift and X^(0) the vertical lift.

No lift sums terms.  A lifted variable x_mu projects to one base
variable x and one level mu (the fibration T^r M -> M in coordinates),
so a lifted monomial comes from exactly one base monomial, a lifted
index block from exactly one stored block and one level tuple, and a
lifted key, an up and a down block, from one stored key.  The terms of
a function's jet, of a monomial's jet and the components of a lifted
tensor are therefore disjoint: each is stored by assignment.  A lifted
connection is read off the complete lift of its Christoffel tensor
(lift_linear_connection).

All lift operations take a LiftContext so repeated lifts share one
prolonged chart object (charts compare by identity) and its caches:
monomial jets, lifted index blocks and the coefficient jets of the last
tensor lifted (see LiftContext).  An order r or a level lambda must be
an int (not a bool); anything else raises GradcalcError.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import comb

from .calculus import vf_apply
from .charts import (Chart, _check_int, prolong_chart, tangent_chart,
                     vb_split)
from .checkers import Distribution
from .errors import ChartMismatchError, GradcalcError, ValenceError
from .poly import Poly, _acc_poly, _acc_product, _coefficient, _polys
from .tensor import TensorField, _same_chart, _sort_with_parity

__all__ = [
    "LiftContext", "lift_function", "lift_function_jets", "lift_tensor",
    "lift_distribution", "LinearConnection", "tangent_connection",
    "lift_linear_connection", "horizontal_fields", "covariant_derivative",
]


class LiftContext:
    """Prolongation bookkeeping: base chart, order r, prolonged chart.

    Jets are computed in R[t]/(t^(r+1)) with coefficients on the prolonged
    chart.  A prolonged variable mu * n + i projects to base variable i at
    level mu, so every lift is assembled by assignment, never by summing
    (see the module docstring).  The context keeps three caches, each
    filled on first use:

    - _jets, keyed by monomial: the jet of each monomial it has met, with
      coefficient 1, as {level: {monomial: int}}: a term dict on the
      prolonged chart per nonzero level, every coefficient a positive
      int, no Poly.  A function's jet is its terms' cached jets, each
      scaled by its coefficient (one product per distinct multinomial of
      the jet) and stored side by side.  A power x_v^e is the monomial
      ((v, e),); a product of powers caches its powers too, so the cache
      is bounded by the distinct monomials lifted and their powers.
    - _blocks, keyed by (block, tag, contra): rows [(lifted block, sign),
      ...] by level sum a = 0..r, the block's canonical lifted keys over
      its level tuples summing to a, in product order, with the sign an
      antisym block picks up (sym duplicates dropped, see _lifted_block).
      Up and down blocks lift independently, so a block shared by stored
      keys of one tensor or several is lifted once.  Bounded by the
      distinct blocks and tags lifted, r + 1 rows each, C(r+q, q) level
      tuples visited for a q-slot block: the terms _lift_sizes counts for
      q unit slots.
    - _last: the coefficient jets of the stored components of the last
      tensor passed to lift_tensor, so lifting one tensor at every lambda
      in turn lifts each stored coefficient once.  One entry.
    """

    __slots__ = ("base", "r", "total", "_jets", "_blocks", "_last")

    def __init__(self, base: Chart, r: int):
        self.total = prolong_chart(base, r)
        self.base = base
        self.r = r
        self._jets = {(): {0: {(): 1}}}
        self._blocks: dict = {}
        self._last = (None, [])

    def var(self, i: int, mu: int) -> int:
        """Prolonged-chart index of level mu of base variable i."""
        self.base.check_index(i, "base variable index")
        _check_int(mu, "lift level")
        if not 0 <= mu <= self.r:
            raise GradcalcError(f"level {mu} outside 0..{self.r}")
        return mu * self.base.dim + i

    def _monomial_jet(self, mono: tuple) -> dict:
        """Sparse jet {level: {monomial: int}} of one monomial, built once.

        A power x_v^e is a multinomial expansion: one term per spread of
        its e copies, k_mu of them at level mu with sum mu * k_mu <= r
        (k_0 takes the rest), at level sum mu * k_mu with coefficient
        e! / prod k_mu! = prod C(left, k_mu), left being the copies not yet
        placed.  Level mu of x_v is the prolonged variable mu * n + v,
        inlined as in _block_table (v comes from a monomial of a Poly on
        the base chart, so it is a valid index), so each monomial is
        sorted as built.  A product of powers picks one term of each
        power's cached jet with levels summing to at most r; distinct base
        variables lift to distinct prolonged variables, so distinct picks
        are distinct monomials.  A pick is chained as (monomial, earlier
        picks) and flattened once, so the build is quadratic in the
        number of factors.
        """
        jets = self._jets
        jet = jets.get(mono)
        if jet is not None:
            return jet
        r, n = self.r, self.base.dim
        jet = {}
        if len(mono) == 1:
            (v, e), = mono
            spreads = [(0, e, 1, ())]      # (level, copies left, coefficient, monomial)
            for mu in range(1, r + 1):
                spreads = [(s + mu * k, left - k, c * comb(left, k),
                            m + ((mu * n + v, k),) if k else m)
                           for s, left, c, m in spreads
                           for k in range(min(left, (r - s) // mu) + 1)]
            for s, left, c, m in spreads:
                jet.setdefault(s, {})[((v, left),) + m if left else m] = c
        else:
            picks = [(0, 1, None)]          # (level, coefficient, chain)
            for power in mono:
                factor = self._monomial_jet((power,))
                picks = [(s + k, c * cm, (m, chain))
                         for s, c, chain in picks
                         for k, terms in factor.items() if s + k <= r
                         for m, cm in terms.items()]
            for s, c, chain in picks:
                flat = []
                while chain:
                    m, chain = chain
                    flat += m
                jet.setdefault(s, {})[tuple(sorted(flat))] = c
        jets[mono] = jet
        return jet

    def _block_table(self, block: tuple, sym: str, contra: bool) -> tuple:
        """Rows 0..r [(lifted block, sign), ...] of one index block: row a holds
        its canonical lifted keys (_lifted_block) over the level tuples summing
        to a, in product order, picked slot by slot while the sum stays within
        r, as in _monomial_jet.  Level v lifts a contravariant index i to level
        r - v and a covariant one to level v, self.var(i, mu) inlined."""
        table = self._blocks.get((block, sym, contra))
        if table is None:
            r, n = self.r, self.base.dim
            picks = [(0, ())]               # (level sum, lifted key)
            for i in block:
                slot = [(r - v if contra else v) * n + i for v in range(r + 1)]
                picks = [(s + v, key + (slot[v],)) for s, key in picks for v in range(r + 1 - s)]
            rows = [[] for _ in range(r + 1)]
            for s, key in picks:
                sign, key = _lifted_block(key, block, sym)
                if sign:
                    rows[s].append((key, sign))
            table = self._blocks[(block, sym, contra)] = tuple(rows)
        return table

    def __repr__(self) -> str:
        return f"<LiftContext r={self.r} of {self.base!r}>"


def lift_function_jets(f: Poly, ctx: LiftContext) -> list:
    """All lifts f^(0), ..., f^(r): the jet of f in R[t]/(t^(r+1)).

    Each term of f scales its monomial's jet by its coefficient, forming
    one product per distinct multinomial c of the jet in a per-term dict
    seeded with {1: coef}, so a unit jet coefficient costs no product and
    the jet terms that share a c share its value.
    """
    if f.chart is not ctx.base:
        raise ChartMismatchError("function does not live on the context's base chart")
    levels = [{} for _ in range(ctx.r + 1)]
    for mono, coef in f.terms.items():
        scaled = {1: coef}
        for k, p in ctx._monomial_jet(mono).items():
            acc = levels[k]
            for m, c in p.items():
                s = scaled.get(c)
                if s is None:
                    s = scaled[c] = coef * c
                acc[m] = s
    return [Poly(ctx.total, terms) for terms in levels]


def lift_function(f: Poly, lam: int, ctx: LiftContext) -> Poly:
    """The lambda-lift of a function; zero outside 0 <= lambda <= r."""
    if f.chart is not ctx.base:
        raise ChartMismatchError("function does not live on the context's base chart")
    _check_int(lam, "lift level")
    if lam < 0 or lam > ctx.r:
        return Poly.zero(ctx.total)
    return lift_function_jets(f, ctx)[lam]


def _level_counts(exps: tuple, r: int) -> list:
    """Terms of a monomial's lifts at levels 0..r (exact).

    The lift of x^a at level s has one term per multiset of a levels in
    0..r summing to s: a partition of s into at most a parts, since no
    part of s <= r exceeds r.  These are counted by prod_{i<=a} 1/(1-q^i).
    Distinct variables lift to distinct prolonged variables and every
    coefficient is positive, so a monomial multiplies the factors of its
    exponents.  A basis slot of a tensor takes one level: the factor of
    a = 1.
    """
    counts = [1] + [0] * r
    for a in exps:
        for i in range(1, min(a, r) + 1):
            for s in range(i, r + 1):       # divide by 1 - q^i
                counts[s] += counts[s - i]
    return counts


def _lift_sizes(t, r: int) -> list:
    """(terms, entries) of each lift of t at order r, per level.

    t is a TensorField or a LinearConnection, whose symbols lift like
    coefficients with two basis slots.  Entry lam counts the terms of
    lift_tensor(t, lam), or of the lifted symbols at fibre level lam: the
    sum over stored components and their monomials of _level_counts, with
    one slot per basis factor.  It is exact for every function, every
    connection and every tensor without a sym tag (disjoint, see the
    module docstring); for a sym tensor it is an upper bound, since it
    counts a sym block's duplicate level orders.  entries weights each
    term by what it stores: a lifted monomial holds at most min(e, r+1)
    prolonged variables of a base variable of exponent e, one per level
    its copies take, and a lifted key one index per basis slot.  The term
    count also bounds the work of the block tables (LiftContext._block_table):
    a block of q slots visits C(r+q, q) level tuples, the terms counted for
    a unit coefficient on those slots alone.
    """
    if isinstance(t, LinearConnection):
        coefs = [(2, g) for g in t.gamma.values()]
    else:
        coefs = [(len(up) + len(down), c) for (up, down), c in t.components.items()]
    terms = entries = [0] * (r + 1)
    cache: dict = {}
    for slots, coef in coefs:
        for mono in coef.terms:
            exps = tuple(sorted(min(e, r) for _, e in mono)) + (1,) * slots
            counts = cache.get(exps)
            if counts is None:
                counts = cache[exps] = _level_counts(exps, r)
            length = sum(min(e, r + 1) for _, e in mono) + slots
            terms = [a + b for a, b in zip(terms, counts)]
            entries = [a + b * length for a, b in zip(entries, counts)]
    return list(zip(terms, entries))


def _lifted_block(key: tuple, base: tuple, sym: str) -> tuple:
    """(sign, canonical key) of one lifted index block; sign 0 drops it.

    Lifted indices of distinct base indices are distinct, so an antisym
    block sorts with the sign of its permutation.  A sym block sorts
    without a sign, but where its base index repeats, every order of the
    levels would reach the same sorted key: only the order with
    non-decreasing lifted indices along each run of equal base indices
    is kept, so the diagonal is counted once.
    """
    if sym == "none":
        return 1, key
    if sym == "antisym":
        return _sort_with_parity(key)
    for i in range(len(key) - 1):
        if base[i] == base[i + 1] and key[i] > key[i + 1]:
            return 0, key
    return 1, tuple(sorted(key))


def lift_tensor(t: TensorField, lam: int, ctx: LiftContext) -> TensorField:
    """The lambda-lift of an arbitrary (q, p) tensor field.

    Distributes lambda over the coefficient and every basis factor of each
    stored component: the coefficient takes level lambda - a - b and the
    up and down blocks the levels of tuples summing to a and b.  Each
    lifted block is sorted back to its canonical key (_lifted_block), so
    symmetry tags survive and no permutation of a stored key is lifted.
    Zero outside 0..r.  A lifted antisym block can flip the sign of its
    component, so for an antisym-tagged tensor each stored coefficient c
    also has the jets of -c, lifted as a function like c's rather than
    negated term by term.  Two caches of ctx carry the work between
    calls: _last, the coefficient jets of the last tensor lifted, so
    lifting one tensor at every lambda lifts each stored coefficient
    once; and _blocks, the lifted keys of each index block by level sum,
    so a block met again, in this tensor or another, is not lifted again.
    """
    if t.chart is not ctx.base:
        raise ChartMismatchError("tensor does not live on the context's base chart")
    _check_int(lam, "lift level")
    r = ctx.r
    if lam < 0 or lam > r:
        return TensorField(ctx.total, t.q, t.p, {}, t.contra_sym, t.cov_sym)
    if ctx._last[0] is not t:
        # per stored component: its up and down block tables, and the
        # jets of its coefficient and, where an antisym block can flip
        # the sign, of the coefficient's negative
        flips = "antisym" in (t.contra_sym, t.cov_sym)
        comps = []
        for (up, down), coef in t.components.items():
            jets = lift_function_jets(coef, ctx)
            comps.append((ctx._block_table(up, t.contra_sym, True),
                          ctx._block_table(down, t.cov_sym, False),
                          jets, lift_function_jets(-coef, ctx) if flips else None))
        ctx._last = (t, comps)
    out: dict = {}
    for ups, downs, jets, negs in ctx._last[1]:
        for a, up_row in enumerate(ups):
            if a > lam:
                break
            for b, down_row in enumerate(downs):
                e = lam - a - b
                if e < 0:
                    break
                jet = jets[e]
                if not jet:
                    continue
                neg = negs[e] if negs else None
                for nup, su in up_row:
                    for ndown, sd in down_row:
                        out[(nup, ndown)] = jet if su == sd else neg
    return TensorField(ctx.total, t.q, t.p, out, t.contra_sym, t.cov_sym)


def lift_distribution(d, ctx: LiftContext):
    """All lifts of every generator: spans the prolonged distribution."""
    if d.chart is not ctx.base:
        raise ChartMismatchError("distribution does not live on the context's base chart")
    gens = []
    for x in d.generators:
        for nu in range(ctx.r + 1):
            gens.append(lift_tensor(x, nu, ctx))
    return Distribution(ctx.total, tuple(gens))


# -- linear connections -------------------------------------------------------

class LinearConnection:
    """Linear connection on a vector-bundle chart.

    gamma maps (base var k, fibre var A, fibre var B) to the Christoffel
    symbol G^A_{kB}, a polynomial on the total chart in base variables
    only.  Horizontal lifts are X_k = d/dx^k - G^A_{kB} y^B d/dy^A.  An
    index must be an int (not a bool) naming a variable of the chart.
    """

    __slots__ = ("chart", "vb_component", "gamma", "base", "fibre")

    def __init__(self, chart: Chart, vb_component: int, gamma: Mapping):
        self.chart = chart
        self.vb_component = vb_component
        self.base, self.fibre = vb_split(chart, vb_component)
        base_set, fibre_set = set(self.base), set(self.fibre)
        table = {}
        for (k, a, b), g in gamma.items():
            for i in (k, a, b):
                chart.check_index(i, "Christoffel index")
            if k not in base_set:
                raise GradcalcError(f"Christoffel base index {chart.names[k]} is not a base variable")
            if a not in fibre_set or b not in fibre_set:
                raise GradcalcError("Christoffel fibre index is not a fibre variable")
            g = _coefficient(chart, g, "Christoffel symbol", base_set)
            if g:
                table[(k, a, b)] = g
        self.gamma = table

    def __repr__(self) -> str:
        return f"<LinearConnection on {self.chart!r} with {len(self.gamma)} symbols>"


def tangent_connection(base_chart: Chart, gamma: Mapping) -> LinearConnection:
    """Affine connection on a chart, stored on its tangent chart.

    gamma maps (k, j, l) base-variable index triples to G^j_{kl}, read as
    nabla_{d/dk} d/dl = G^j_{kl} d/dj.  An index must be an int (not a
    bool) naming a variable of base_chart.
    """
    total = tangent_chart(base_chart)
    n = base_chart.dim
    table = {}
    for (k, j, l), g in gamma.items():
        for i in (k, j, l):
            base_chart.check_index(i, "Christoffel index")
        g = _coefficient(base_chart, g, "Christoffel symbol")
        table[(k, n + j, n + l)] = g.reindex(total)
    return LinearConnection(total, base_chart.grading_count, table)


def horizontal_fields(conn: LinearConnection) -> list:
    """One horizontal field per base variable, in chart order."""
    chart = conn.chart
    out = []
    for k in conn.base:
        comps = {((k,), ()): Poly.const(chart, 1)}
        for (k2, a, b), g in conn.gamma.items():
            if k2 != k:
                continue
            _acc_product(comps, ((a,), ()), g, Poly.variable(chart, b), -1)
        out.append(TensorField(chart, 1, 0, _polys(chart, comps)))
    return out


def lift_linear_connection(conn: LinearConnection, ctx: LiftContext) -> LinearConnection:
    """Prolong a linear connection: the complete lift of its Christoffel tensor.

    The symbols form the (1, 2) tensor G = G^a_{kb} d/dy^a ox dx^k ox dy^b,
    stored under ((a,), (k, b)).  Its lift at lambda = r puts a at level
    rho = r - v_a, k at level v_k, b at level v_b and the coefficient at
    level rho - v_k - v_b: each component of lift_tensor(G, r) is the
    symbol G^(a at rho)_{(k at v_k)(b at v_b)} of the prolonged connection.
    """
    if conn.chart is not ctx.base:
        raise ChartMismatchError("connection does not live on the context's base chart")
    christoffel = TensorField(conn.chart, 1, 2, {((a,), (k, b)): g
                                                 for (k, a, b), g in conn.gamma.items()})
    lifted = lift_tensor(christoffel, ctx.r, ctx).components
    return LinearConnection(ctx.total, conn.vb_component,
                            {(k, a, b): g for ((a,), (k, b)), g in lifted.items()})


def covariant_derivative(conn: LinearConnection, x: TensorField, y: TensorField) -> TensorField:
    """nabla_X Y for an affine connection (fibre identified with base).

    X and Y are vector fields on a chart containing the connection's base
    variables by name; the result lives on that chart.
    """
    if len(conn.fibre) != len(conn.base):
        raise GradcalcError("connection bundle is not a tangent bundle")
    _same_chart(x, y)
    if (x.q, x.p) != (1, 0) or (y.q, y.p) != (1, 0):
        raise ValenceError("covariant_derivative needs two vector fields")
    chart = x.chart
    names = conn.chart.names
    pos = {b: chart.index(names[b]) for b in conn.base}
    allowed = set(pos.values())
    for t in (x, y):
        for ((i,), _) in t.components:
            if i not in allowed:
                raise GradcalcError(
                    f"vector field has a component along {chart.names[i]}, "
                    "outside the connection's base directions")
    fibre_partner = {f: pos[conn.base[m]] for m, f in enumerate(conn.fibre)}
    out: dict = {}
    for ((a,), _), g in y.components.items():
        _acc_poly(out, ((a,), ()), vf_apply(x, g))
    for (k, a, b), g in conn.gamma.items():
        xk = x.component((pos[k],), ())
        if not xk:
            continue
        yb = y.component((fibre_partner[b],), ())
        if not yb:
            continue
        _acc_product(out, ((fibre_partner[a],), ()), g.reindex(chart) * xk, yb)
    return TensorField(chart, 1, 0, _polys(chart, out))
