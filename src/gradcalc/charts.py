"""Graded coordinate charts.

A chart is an ordered list of variable names together with one integer
weight per grading component for every variable.  A chart with grading
count d assigns each variable a weight vector in Z^d; the homogeneity
structure h_t acts on a variable of weight w by x |-> t^w x, one scaling
parameter per component.  A component is N-graded (a graded bundle)
exactly when none of its weights is negative; negative weights enter only
through duals such as T*[k]M, which make their component Z-graded.  The
flags are derived from the weights and cannot be declared.

Every chart, declared or derived, is checked by its constructor: the
names are distinct ASCII identifiers, each carries one vector of
grading_count int weights and the label is a str, so bad input raises
GradcalcError wherever the chart comes from.

Charts are value objects compared by identity.  Every constructor below
returns a fresh chart; combining polynomials or tensors from two different
chart objects is an error even if their variable tables agree, because the
variables denote coordinates of distinct spaces.

Naming conventions used by the derived-chart constructors (these names are
what the DSL and the renderer show):

* prolongation level mu > 0 of x  ->  "x_1", "x_2", ...  (level 0 keeps "x")
* tangent-fibre velocity of x     ->  "x_dot"
* cotangent-fibre momentum of x   ->  "p_x"
* dual of a fibre coordinate z    ->  "p_z"
"""

from __future__ import annotations

from .errors import GradcalcError

__all__ = [
    "Chart",
    "make_chart",
    "prolong_chart",
    "prolonged_names",
    "prolonged_base_name",
    "tangent_chart",
    "cotangent_chart",
    "phase_shifted_cotangent_chart",
    "shifted_dual_grl_chart",
    "vb_split",
]


def _check_int(value, what: str) -> int:
    """value, if it is an int; GradcalcError otherwise (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise GradcalcError(f"{what} must be an integer, not {value!r}")
    return value


def _as_tuple(value, what: str) -> tuple:
    """value as a tuple, if it is a tuple or list; GradcalcError otherwise."""
    if not isinstance(value, (tuple, list)):
        raise GradcalcError(f"{what} must be a tuple or list, not {value!r}")
    return tuple(value)


class Chart:
    """Ordered variable table with per-variable integer weight vectors.

    The constructor is the one check of a chart's names, weights and
    label; it stores the names and every weight vector as tuples.
    """

    __slots__ = ("names", "weights", "grading_count", "label", "_index")

    def __init__(self, names: tuple[str, ...], weights: tuple[tuple[int, ...], ...],
                 grading_count: int, label: str = ""):
        _check_int(grading_count, "grading count")
        if grading_count < 1:   # a graded chart has a homogeneity structure
            raise GradcalcError(
                f"a chart needs at least one grading component, got {grading_count}")
        if not isinstance(label, str):
            raise GradcalcError(f"chart label must be a str, not {label!r}")
        names = _as_tuple(names, "chart names")
        weights = _as_tuple(weights, "chart weights")
        if len(weights) != len(names):
            raise GradcalcError("one weight vector required per variable")
        index = {}
        rows = []
        for i, (n, w) in enumerate(zip(names, weights)):
            if not (isinstance(n, str) and n.isascii() and n.isidentifier()):
                raise GradcalcError(f"bad variable name {n!r}")
            if n in index:
                raise GradcalcError(f"variable name {n!r} collides with an existing one")
            w = _as_tuple(w, f"weight vector of {n}")
            if len(w) != grading_count:
                raise GradcalcError("inconsistent weight vector lengths")
            for c in w:
                if type(c) is not int:      # a plain int needs no call
                    _check_int(c, f"weight of {n}")
            index[n] = i
            rows.append(w)
        self.names = names
        self.weights = tuple(rows)
        self.grading_count = grading_count
        self.label = label
        self._index = index

    # Charts compare and hash by identity (object default); no __eq__ override.

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def n_graded(self) -> tuple[bool, ...]:
        """Per component: True when none of its weights is negative."""
        return tuple(all(w[c] >= 0 for w in self.weights)
                     for c in range(self.grading_count))

    def index(self, var) -> int:
        """The index of a variable given by its name or by its index."""
        if not isinstance(var, str):
            return self.check_index(var)
        try:
            return self._index[var]
        except KeyError:
            raise GradcalcError(f"chart has no variable named {var!r}") from None

    def check_index(self, i, what: str = "variable index") -> int:
        """i, if it is an int (not a bool) naming a variable of the chart."""
        _check_int(i, what)
        if not 0 <= i < self.dim:
            raise GradcalcError(f"{what} {i} outside 0..{self.dim - 1}")
        return i

    def check_component(self, component: int) -> int:
        """The grading component index, if the chart has that component."""
        _check_int(component, "grading component")
        if not 0 <= component < self.grading_count:
            raise GradcalcError("no such grading component")
        return component

    def degree(self, component: int = 0) -> int:
        """Largest absolute weight in the component; 0 for an empty chart."""
        c = self.check_component(component)
        return max((abs(w[c]) for w in self.weights), default=0)

    def component_weights(self, component: int = 0) -> tuple[int, ...]:
        c = self.check_component(component)
        return tuple(w[c] for w in self.weights)

    def __repr__(self) -> str:
        label = self.label or "chart"
        vars_part = ", ".join(
            f"{n}:{w[0] if len(w) == 1 else w}" for n, w in zip(self.names, self.weights))
        return f"<{label} {{{vars_part}}}>"


def make_chart(names, weights, label: str = "") -> Chart:
    """Build a chart from variable names and weight vectors.

    names is a tuple or list, checked by Chart: a str is refused, not
    split into one variable per letter.  weights maps each variable to
    either a single int (grading count 1) or a tuple or list of ints, one
    per grading component; the first row sets the grading count.  The
    N-graded flags are not declared: Chart.n_graded derives them from the
    weights.
    """
    rows = tuple(tuple(w) if isinstance(w, (tuple, list)) else (w,) for w in weights)
    return Chart(names, rows, len(rows[0]) if rows else 1, label)


def prolong_chart(chart: Chart, r: int) -> Chart:
    """Order-r prolongation.

    Every variable x of weight vector w acquires copies x_mu for mu = 0..r
    (x_0 keeps the bare name) with weight vector w extended by a new
    N-graded component of weight mu.  Level blocks are appended in order,
    so the original variables sit at their old indices and level mu of
    variable i sits at index mu*dim + i.
    """
    _check_int(r, "prolongation order")
    if r < 0:
        raise GradcalcError("prolongation order must be >= 0")
    weights = tuple(w + (mu,) for mu in range(r + 1) for w in chart.weights)
    return Chart(chart.names + tuple(prolonged_names(chart.names, r)), weights,
                 chart.grading_count + 1, f"{chart.label or 'chart'}^T{r}")


def prolonged_names(names, r: int) -> list[str]:
    """Names of prolongation levels 1..r, level by level: x_1, y_1, x_2, ..."""
    return [f"{n}_{mu}" for mu in range(1, r + 1) for n in names]


def prolonged_base_name(name: str, r: int) -> str | None:
    """The inverse of prolonged_names: n if name is n_mu with mu in 1..r,
    written without leading zeros, else None.

    Its time does not grow with r, so a name of a prolonged chart is
    tested without listing the chart's names.
    """
    n, sep, mu = name.rpartition("_")
    if r < 1 or not (sep and mu.isascii() and mu.isdigit()) or mu[0] == "0":
        return None
    # a mu with more digits than r exceeds it; int() never sees a long one
    return n if len(mu) <= len(str(r)) and int(mu) <= r else None


def _fibred_chart(chart: Chart, fibre_names: list[str], fibre_rows, label: str) -> Chart:
    """The base variables with weight 0 in a new vector-bundle component,
    then one fibre variable per base variable with its row and weight 1."""
    weights = tuple(w + (0,) for w in chart.weights) + \
        tuple(tuple(row) + (1,) for row in fibre_rows)
    return Chart(chart.names + tuple(fibre_names), weights,
                 chart.grading_count + 1, label)


def tangent_chart(chart: Chart) -> Chart:
    """Tangent prolongation: appends velocities x_dot.

    A velocity carries the same graded weights as its base variable plus
    weight 1 in a new N-graded vector-bundle component.
    """
    return _fibred_chart(chart, [f"{n}_dot" for n in chart.names], chart.weights,
                         f"T{chart.label or 'chart'}")


def cotangent_chart(chart: Chart) -> Chart:
    """Cotangent prolongation: appends momenta p_x.

    A momentum carries minus the graded weights of its base variable plus
    weight 1 in a new vector-bundle component; graded components holding a
    nonzero weight therefore become Z-graded.
    """
    return _fibred_chart(chart, [f"p_{n}" for n in chart.names],
                         ((-c for c in w) for w in chart.weights),
                         f"T*{chart.label or 'chart'}")


def phase_shifted_cotangent_chart(chart: Chart, k: int, component: int = 0) -> Chart:
    """Shifted cotangent prolongation T*[k].

    Momentum p_x gets weight k - w in the chosen graded component (other
    components are negated as in cotangent_chart) plus weight 1 in a new
    vector-bundle component.  Requires k >= every weight in the component,
    so no momentum weight there is negative: the component stays N-graded
    when it was.
    """
    _check_int(k, "shift")
    chart.check_component(component)
    top = max((w[component] for w in chart.weights), default=0)
    if k < top:
        raise GradcalcError(
            f"shift k={k} is smaller than the top weight {top}; component would leave the N-grading")
    return _fibred_chart(chart, [f"p_{n}" for n in chart.names],
                         ((k - c if j == component else -c for j, c in enumerate(w))
                          for w in chart.weights),
                         f"T*[{k}]{chart.label or 'chart'}")


def vb_split(chart: Chart, vb_component: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Indices of (base, fibre) variables of a vector-bundle component.

    The component must be N-graded with weights in {0, 1}; weight-0
    variables are the base, weight-1 variables the fibre.
    """
    ws = chart.component_weights(vb_component)
    if any(w not in (0, 1) for w in ws):
        raise GradcalcError(
            f"component {vb_component} is not a vector-bundle grading (weights must lie in {{0,1}})")
    base = tuple(i for i, w in enumerate(ws) if w == 0)
    fibre = tuple(i for i, w in enumerate(ws) if w == 1)
    return base, fibre


def shifted_dual_grl_chart(chart: Chart, k: int, vb_component: int,
                           graded_component: int = 0) -> Chart:
    """Degree-k dual of a graded-linear chart.

    The chart must carry a vector-bundle grading component (weights in
    {0,1}).  Base variables (VB weight 0) keep their names and weights.
    Each fibre variable z of graded weight s is replaced by a dual
    variable p_z of graded weight k - s, keeping VB weight 1 and all other
    graded components negated.  Applying the construction twice restores
    all weights (names gain a p_ prefix each time).
    """
    _check_int(k, "shift")
    fibre_set = set(vb_split(chart, vb_component)[1])
    if chart.check_component(graded_component) == vb_component:
        raise GradcalcError("graded_component must name a grading component other than the VB one")
    names = []
    rows = []
    for i, w in enumerate(chart.weights):
        if i in fibre_set:
            names.append(f"p_{chart.names[i]}")
            rows.append(tuple(
                1 if j == vb_component else
                (k - c if j == graded_component else -c)
                for j, c in enumerate(w)))
        else:
            names.append(chart.names[i])
            rows.append(w)
    return Chart(tuple(names), tuple(rows), chart.grading_count,
                 f"({chart.label or 'chart'})*[{k}]")
