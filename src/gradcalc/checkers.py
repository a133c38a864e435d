"""Decision procedures for weighted geometric structures.

Each checker returns a CheckReport rather than a bare bool so callers see
a witness on failure, the degrees that were computed, and whether the
verdict relied on random sampling (distribution checks evaluate exact
ranks at finitely many random rational points, so a pass is probabilistic
while a fail is definite).

A (q, p) tensor K on a chart of degree k (in the chosen grading
component) is *weighted* when its combined degree is -(q-1) k, which is
the verdict; equivalently L along the weight field equals -(q-1) k K,
and a FAIL names a component of that Euler residue.  Weighted Poisson
structures of degree k are bivectors of degree -k satisfying the Jacobi
identity, weighted (1,1) structures have degree 0, and the associated
algebraic conditions (N.N = -I, I, 0; skewness of N applied to a
bivector; vanishing compatibility concomitant) are checked exactly.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .calculus import (
    concomitant, exterior_derivative, lie_bracket, lie_derivative,
    nijenhuis_torsion, schouten_bracket,
)
from .charts import Chart, phase_shifted_cotangent_chart, shifted_dual_grl_chart, \
    tangent_chart, vb_split
from .errors import ChartMismatchError, GradcalcError, ValenceError, _checked_make
from .poly import ANY_DEGREE, Poly, _cleared, _coef, _coefficient, degree_matches, \
    degree_of_function, homogeneous_components
from .render import key_text, number_str, point_text
from .sampling import sample_points
from .tensor import (
    TensorField, compose_11, contract, degree_of_tensor, identity_tensor,
    insert_form, scalar_field, tensor_product, vector_field, wedge_list,
    weight_vector_field,
)

__all__ = [
    "CheckReport", "Distribution", "Section", "BundleMap",
    "is_weighted_tensor", "is_poisson", "is_weighted_poisson",
    "is_nijenhuis", "is_weighted_nijenhuis",
    "is_almost_complex", "is_almost_product", "is_almost_tangent",
    "is_weighted_pn", "sharp_map", "flat_map",
    "rank_at_point", "is_involutive", "is_weighted_distribution",
    "is_weighted_contact", "section_degree", "algebroid_bracket",
    "rational_rank",
]


class CheckReport(namedtuple("CheckReport", "verdict witness degrees seed")):
    """Outcome of a structure check.

    A sampled verdict is one that names its seed; probabilistic is true
    exactly then.
    """

    __slots__ = ()

    def __new__(cls, verdict: bool, witness: str | None = None,
                degrees: dict | None = None, seed: int | None = None):
        if not verdict and witness is None:
            raise GradcalcError("failing check must carry a witness")
        return super().__new__(cls, verdict, witness, degrees, seed)

    _make = _checked_make

    def __bool__(self) -> bool:
        return self.verdict

    @property
    def probabilistic(self) -> bool:
        return self.seed is not None

    def to_json(self) -> dict:
        out: dict = {"verdict": "pass" if self.verdict else "fail"}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.degrees is not None:
            out["degrees"] = {k: repr(v) if v is ANY_DEGREE else v
                              for k, v in self.degrees.items()}
        out["probabilistic"] = self.probabilistic
        if self.seed is not None:
            out["seed"] = self.seed
        return out


class Distribution(namedtuple("Distribution", "chart generators")):
    """A distribution given by a finite family of generating vector fields."""

    __slots__ = ()

    def __new__(cls, chart: Chart, generators: tuple):
        for x in generators:
            if x.chart is not chart:
                raise ChartMismatchError("generator lives on a different chart")
            if (x.q, x.p) != (1, 0):
                raise ValenceError("generators must be vector fields")
        return super().__new__(cls, chart, generators)

    _make = _checked_make


# Section of a vector-bundle chart, one component per fibre variable:
# values maps fibre variable indices to polynomials in base variables;
# missing fibre variables mean zero components.
Section = namedtuple("Section", "chart vb_component values graded_component",
                     defaults=(0,))


def _deg_str(d) -> str:
    return "any" if d is ANY_DEGREE else ("inhomogeneous" if d is None else number_str(d))


def _first_component(t: TensorField) -> str:
    key = sorted(t.components)[0]
    return f"component {key_text(t.chart.names, key)} = {t.components[key]!r}"


def _vanishes(t: TensorField, label: str = "", degrees: dict | None = None) -> CheckReport:
    """PASS when t is zero, else FAIL at t's first component after label."""
    if t.is_zero():
        return CheckReport(True, degrees=degrees)
    return CheckReport(False, witness=label + _first_component(t), degrees=degrees)


def _fails(label: str, rep: CheckReport, degrees: dict | None) -> CheckReport:
    """The FAIL of a sub-check, its witness after label."""
    return CheckReport(False, witness=label + rep.witness, degrees=degrees)


def _linear(chart: Chart, pairs) -> Poly:
    """sum of c x_v over (v, c) pairs, each c moved onto chart by name."""
    return Poly.from_terms(chart, (mc for v, c in pairs if c for mc in
                                   (Poly.variable(chart, v) * c.reindex(chart)).terms.items()))


# -- weighted tensors ---------------------------------------------------------

def is_weighted_tensor(t: TensorField, k: int, component: int = 0) -> CheckReport:
    """Check the combined degree is -(q-1) k, i.e. L along the weight
    field, which scales each monomial by its combined weight, equals
    -(q-1) k t.  Only a FAIL forms that Euler residue, for its witness.
    k must be the chart's actual degree in the component (precondition).
    """
    chart = t.chart
    if chart.degree(component) != k:
        raise GradcalcError(
            f"chart degree in component {component} is {chart.degree(component)}, not k={k}")
    want = -(t.q - 1) * k
    d = degree_of_tensor(t, component)
    degrees = {"expected": want, "computed": _deg_str(d)}
    if degree_matches(d, want):
        return CheckReport(True, degrees=degrees)
    return _vanishes(lie_derivative(weight_vector_field(chart, component), t) - t * want,
                     degrees=degrees)


def is_poisson(lam: TensorField) -> CheckReport:
    """Jacobi identity: the bracket of the bivector with itself vanishes."""
    if (lam.q, lam.p) != (2, 0):
        raise ValenceError("expected a bivector")
    if lam.contra_sym != "antisym":
        raise ValenceError("bivector must be antisym-tagged")
    return _vanishes(schouten_bracket(lam, lam))


def is_weighted_poisson(lam: TensorField, k: int, component: int = 0) -> CheckReport:
    """Poisson plus combined degree -k in the chosen component."""
    p = is_poisson(lam)
    w = is_weighted_tensor(lam, k, component)
    return w if p.verdict else _fails("Jacobi fails: ", p, w.degrees)


def is_nijenhuis(n: TensorField) -> CheckReport:
    return _vanishes(nijenhuis_torsion(n), "torsion: ")


def is_weighted_nijenhuis(n: TensorField, component: int = 0) -> CheckReport:
    """Vanishing torsion plus combined degree 0 (q = 1 forces the zero)."""
    d = degree_of_tensor(n, component)
    degrees = {"expected": 0, "computed": _deg_str(d)}
    if not degree_matches(d, 0):
        return CheckReport(False, witness=f"degree is {_deg_str(d)}, not 0", degrees=degrees)
    return _vanishes(nijenhuis_torsion(n), "torsion: ", degrees)


def _square_is(n: TensorField, sign: int) -> CheckReport:
    if (n.q, n.p) != (1, 1):
        raise ValenceError("expected a (1,1) tensor")
    return _vanishes(compose_11(n, n) - identity_tensor(n.chart) * sign)


def is_almost_complex(n: TensorField) -> CheckReport:
    """N.N = -identity."""
    return _square_is(n, -1)


def is_almost_product(n: TensorField) -> CheckReport:
    """N.N = identity."""
    return _square_is(n, 1)


def is_almost_tangent(n: TensorField) -> CheckReport:
    """N.N = 0."""
    return _square_is(n, 0)


def is_weighted_pn(lam: TensorField, n: TensorField, k: int,
                   component: int = 0) -> CheckReport:
    """Weighted Poisson-Nijenhuis pair.

    Four exact conditions: lam is weighted Poisson of degree k, n is
    weighted with vanishing torsion, n applied to lam stays
    antisymmetric, and the compatibility concomitant vanishes.
    """
    wp = is_weighted_poisson(lam, k, component)
    if not wp.verdict:
        return _fails("weighted Poisson fails: ", wp, wp.degrees)
    wn = is_weighted_nijenhuis(n, component)
    if not wn.verdict:
        return _fails("weighted Nijenhuis fails: ", wn, wn.degrees)
    nl = contract(tensor_product(lam, n), 1, 0)     # lam^{il} n^j_l
    dim = lam.chart.dim
    for i in range(dim):
        for j in range(i, dim):
            if nl.component((i, j), ()) + nl.component((j, i), ()):
                names = lam.chart.names
                return CheckReport(
                    False,
                    witness=f"N applied to the bivector is not skew at ({names[i]},{names[j]})",
                    degrees=wp.degrees)
    return _vanishes(concomitant(lam, n), "concomitant: ", wp.degrees)


# -- bundle maps --------------------------------------------------------------

# Component matrix of a musical bundle map plus its degree report.
BundleMap = namedtuple("BundleMap", "matrix report")


def sharp_map(lam: TensorField, k: int | None = None, component: int = 0) -> BundleMap:
    """Matrix of the bundle map sending a momentum to lam(., p).

    matrix[l][j] is the (l, j) expanded component.  With k given, the
    momenta functions sum_l p_l lam^{lj} are formed on the k-shifted
    cotangent chart and each must be homogeneous of the weight of x^j.
    """
    return _bundle_map(lam, True, k, component)


def flat_map(w: TensorField, k: int | None = None, component: int = 0) -> BundleMap:
    """Matrix of the bundle map sending a velocity to w(v, .).

    matrix[l][j] is the (l, j) expanded component.  With k given, the
    velocity pairings sum_l v^l w_{lj} are formed on the tangent chart
    and each must be homogeneous of weight k minus the weight of x^j.
    """
    return _bundle_map(w, False, k, component)


def _bundle_map(t: TensorField, sharp: bool, k: int | None, component: int) -> BundleMap:
    """sharp_map of a bivector (sharp) or flat_map of a two-form (not sharp)."""
    valence, what = ((2, 0), "a bivector") if sharp else ((0, 2), "a two-form")
    if (t.q, t.p) != valence:
        raise ValenceError(f"expected {what}")
    chart = t.chart
    te = t.expand()
    dim = chart.dim
    matrix = tuple(tuple(te.get(((l, j), ()) if sharp else ((), (l, j)), Poly.zero(chart))
                         for j in range(dim)) for l in range(dim))
    report = None
    if k is not None:
        chart.check_component(component)
        graded = phase_shifted_cotangent_chart(chart, k, component) if sharp else \
            tangent_chart(chart)
        degrees = {}
        bad = None
        for j in range(dim):
            d = degree_of_function(
                _linear(graded, ((dim + l, matrix[l][j]) for l in range(dim))), component)
            degrees[chart.names[j]] = _deg_str(d)
            want = chart.weights[j][component] if sharp else k - chart.weights[j][component]
            if bad is None and not degree_matches(d, want):
                bad = f"{'momentum' if sharp else 'velocity'} entry for {chart.names[j]} " \
                      f"has degree {_deg_str(d)}, expected {want}"
        report = CheckReport(bad is None, witness=bad, degrees=degrees)
    return BundleMap(matrix, report)


# -- exact rational linear algebra -------------------------------------------

def rational_rank(rows: list) -> int:
    """Rank of a matrix of numbers (each an int or a Fraction, by the one
    number rule of poly._coef) by fraction-free elimination.

    Each row is scaled to integers by the LCM of its denominators
    (poly._cleared), which keeps the rank.  Bareiss elimination (Math.
    Comp. 22, 1968) then keeps every entry an integer: after a pivot p,
    each row below becomes (p * row - a * pivot row) // previous pivot, a
    division that is exact because every entry is a minor of the integer
    matrix.  A column with no nonzero entry at or below the current row
    is skipped; a pivot row found lower down is swapped up first.
    GradcalcError if two rows differ in length.
    """
    m = [_cleared([_coef(a) for a in r])[1] for r in rows]
    if not m:
        return 0
    for r in m:
        if len(r) != len(m[0]):
            raise GradcalcError(f"matrix rows differ in length: {len(m[0])} and {len(r)}")
    rank = 0
    prev = 1
    for col in range(len(m[0])):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        p = top[col]
        for r in range(rank + 1, len(m)):
            a = m[r][col]
            m[r] = [(p * x - a * y) // prev for x, y in zip(m[r], top)]
        prev = p
        rank += 1
        if rank == len(m):
            break
    return rank


# -- distributions ------------------------------------------------------------

def _row(x: TensorField, point: dict) -> list:
    """Values of a vector field's components at one rational point."""
    row = [0] * x.chart.dim
    for ((i,), _), c in x.components.items():
        row[i] = c.evaluate(point)
    return row


def rank_at_point(d: Distribution, point: dict) -> int:
    """Exact rank of the generator span at one rational point."""
    return rational_rank([_row(x, point) for x in d.generators])


def _span_check(d: Distribution, points: list, seed: int, brackets) -> CheckReport:
    """Fail at the first (label, bracket) that raises the generators' rank
    at a sample point.  brackets is lazy: none is formed after a failure.
    A point's generator rows and their rank are computed once, on first
    use, and shared by every bracket.
    """
    base: dict = {}             # point index -> (generator rows, their rank)
    for label, br in brackets:
        if br.is_zero():
            continue
        for n, pt in enumerate(points):
            if n not in base:
                rows = [_row(x, pt) for x in d.generators]
                base[n] = rows, rational_rank(rows)
            rows, rank = base[n]
            if rational_rank(rows + [_row(br, pt)]) != rank:
                return CheckReport(
                    False, seed=seed,
                    witness=f"{label} leaves the span at {point_text(d.chart.names, pt)}")
    return CheckReport(True, seed=seed)


def is_involutive(d: Distribution, seed: int = 0) -> CheckReport:
    """Pairwise brackets stay in the span at every sample point.

    A pass is probabilistic (finitely many random points); a fail is exact
    at the witness point.
    """
    gens = d.generators
    return _span_check(d, sample_points(d.chart, seed), seed, (
        (f"bracket of generators {i},{j}", lie_bracket(gens[i], gens[j]))
        for i, j in combinations(range(len(gens)), 2)))


def is_weighted_distribution(d: Distribution, component: int = 0,
                             seed: int = 0) -> CheckReport:
    """The weight field preserves the distribution at every sample point."""
    nabla = weight_vector_field(d.chart, component)
    return _span_check(d, sample_points(d.chart, seed), seed, (
        (f"weight-field bracket of generator {j}", lie_bracket(nabla, x))
        for j, x in enumerate(d.generators)))


# -- contact ------------------------------------------------------------------

def is_weighted_contact(alpha: TensorField, k: int, n: int,
                        component: int = 0) -> CheckReport:
    """alpha has degree k and alpha ^^ (d alpha)^n is a nonzero top form."""
    if (alpha.q, alpha.p) != (0, 1):
        raise ValenceError("expected a one-form")
    chart = alpha.chart
    if chart.dim != 2 * n + 1:
        raise GradcalcError(f"chart dimension {chart.dim} is not 2n+1 with n={n}")
    d = degree_of_tensor(alpha, component)
    degrees = {"alpha": _deg_str(d), "expected": k}
    if d is ANY_DEGREE or d != k:
        return CheckReport(False, witness=f"form degree is {_deg_str(d)}, expected {k}",
                           degrees=degrees)
    if wedge_list([alpha] + [exterior_derivative(alpha)] * n).is_zero():
        return CheckReport(False, witness="alpha ^^ (d alpha)^n vanishes identically",
                           degrees=degrees)
    return CheckReport(True, degrees=degrees)


# -- sections and algebroid brackets ------------------------------------------

def section_degree(sec: Section):
    """Homogeneity degree of a section of a vector-bundle chart.

    The component at a fibre variable of graded weight s must be
    homogeneous of degree lambda + s for one common lambda.  Returns
    lambda, ANY_DEGREE for the zero section, or None when inhomogeneous.
    The result is cross-checked against the degree of the associated
    fibrewise-linear function on the plain dual chart.
    """
    chart = sec.chart
    base, fibre = vb_split(chart, sec.vb_component)
    fibre_set = set(fibre)
    base_set = set(base)
    gc = sec.graded_component
    if gc == sec.vb_component:
        raise GradcalcError(
            "graded_component must name a grading component other than the VB one")
    for f, v in sec.values.items():
        if chart.check_index(f, "section key") not in fibre_set:
            raise GradcalcError(f"{chart.names[f]} is not a fibre variable")
        if not isinstance(v, Poly):
            raise GradcalcError(f"section component {v!r} is not a polynomial")
        _coefficient(chart, v, "section component", base_set)
    # v^f d/df has degree deg(v^f) - s, the lambda of that component
    lam = degree_of_tensor(vector_field(chart, sec.values), gc)
    if lam is None or lam is ANY_DEGREE:
        return lam
    dual = shifted_dual_grl_chart(chart, 0, sec.vb_component, gc)
    dual_deg = degree_of_function(_linear(dual, sec.values.items()), gc)
    if dual_deg != lam:
        raise GradcalcError(
            f"internal: dual-pairing degree {dual_deg} disagrees with section degree {lam}")
    return lam


def algebroid_bracket(lam: TensorField, vb_component: int, x, y) -> list:
    """Bracket of two sections induced by a fibrewise-linear bivalent tensor.

    lam lives on the dual chart: base variables plus dual fibre
    coordinates, with components at most linear in the fibre variables.
    Sections of the primal bundle are coefficient lists against the basis
    dual to the fibre coordinates.  The defining property is that the
    linear function of the bracket is the lam-bracket of the linear
    functions: iota([x,y]) = {iota(x), iota(y)}.
    """
    chart = lam.chart
    if (lam.q, lam.p) != (2, 0):
        raise ValenceError("expected a bivalent contravariant tensor")
    base, fibre = vb_split(chart, vb_component)
    base_set = set(base)
    # VB weights are 0 or 1, so the weight of a part is its fibre degree
    if any(w > 1 for c in lam.components.values()
           for w in homogeneous_components(c, vb_component)):
        raise GradcalcError("tensor is not linear in the fibre variables")

    def as_section(vals) -> list:
        if len(vals) != len(fibre):
            raise GradcalcError(f"section needs {len(fibre)} components")
        return [_coefficient(chart, v, "section component", base_set) for v in vals]

    # h = lam^ij d_i iota_x d_j iota_y, the lam-bracket of the linear functions
    h = insert_form(tensor_product(
        exterior_derivative(scalar_field(chart, _linear(chart, zip(fibre, as_section(x))))),
        exterior_derivative(scalar_field(chart, _linear(chart, zip(fibre, as_section(y)))))),
        lam).scalar_part()
    if not degree_matches(degree_of_function(h, vb_component), 1):
        raise GradcalcError(
            "bracket of linear functions is not fibrewise linear; tensor is malformed")
    return [h.diff(f) for f in fibre]
