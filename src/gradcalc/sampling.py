"""Seeded random generators for polynomials, tensors and sample points.

The generators take an explicit random.Random so callers control
determinism; the same seed always produces the same objects.
sample_points draws the SAMPLES points of a sampled check from its seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .charts import Chart
from .errors import GradcalcError
from .poly import Poly
from .tensor import TensorField, _swap, scalar_field

# functions only: perfbench/tracer.py wraps every name listed here
__all__ = [
    "sample_points", "random_fraction", "random_poly",
    "random_vector_field", "random_one_form", "random_form",
    "random_multivector", "random_vv_form", "random_tensor",
]


# The sample points every sampled check draws.
SAMPLES = 8


def random_fraction(rng: random.Random, low: int = -5, high: int = 5) -> Fraction:
    """A nonzero integer of [low, high] as a Fraction; GradcalcError if the
    range holds none (a draw would never end or fail in randint)."""
    if low > high or low == high == 0:
        raise GradcalcError(f"no nonzero integer in [{low}, {high}]")
    while True:
        v = rng.randint(low, high)
        if v:
            return Fraction(v)


def sample_points(chart: Chart, seed: int) -> list:
    """SAMPLES random rational points with nonzero integer coordinates in -5..5."""
    rng = random.Random(seed)
    return [{i: random_fraction(rng) for i in range(chart.dim)} for _ in range(SAMPLES)]


def random_poly(rng: random.Random, chart: Chart, max_terms: int = 3,
                max_degree: int = 2) -> Poly:
    """1..max_terms terms of degree <= max_degree, nonzero coefficients in -3..3."""
    entries = []
    for _ in range(rng.randint(1, max_terms)):
        # a chart with no variables has constants only
        deg = rng.randint(0, max_degree) if chart.dim else 0
        counts: dict = {}
        for _ in range(deg):
            v = rng.randrange(chart.dim)
            counts[v] = counts.get(v, 0) + 1
        mono = tuple(sorted(counts.items()))
        entries.append((mono, random_fraction(rng, -3, 3)))
    return Poly.from_terms(chart, entries)


def _random_keys(rng: random.Random, chart: Chart, length: int, count: int) -> list:
    """Up to count distinct increasing index tuples of the given length."""
    pool = list(combinations(range(chart.dim), length))
    if not pool:
        return []
    rng.shuffle(pool)
    return pool[:count]


def random_vector_field(rng: random.Random, chart: Chart, max_components: int = 2,
                        **poly_opts) -> TensorField:
    comps = {}
    for _ in range(rng.randint(1, max_components)):
        i = rng.randrange(chart.dim)
        comps[((i,), ())] = random_poly(rng, chart, **poly_opts)
    return TensorField(chart, 1, 0, {k: v for k, v in comps.items() if v})


def random_one_form(rng: random.Random, chart: Chart, max_components: int = 2,
                    **poly_opts) -> TensorField:
    return _swap(random_vector_field(rng, chart, max_components, **poly_opts))


def random_form(rng: random.Random, chart: Chart, degree: int,
                max_components: int = 2, **poly_opts) -> TensorField:
    """Random antisymmetric (0, degree) form (may be zero if dim < degree)."""
    if degree == 0:
        return scalar_field(chart, random_poly(rng, chart, **poly_opts))
    comps = {}
    for key in _random_keys(rng, chart, degree, max_components):
        comps[((), key)] = random_poly(rng, chart, **poly_opts)
    return TensorField(chart, 0, degree, {k: v for k, v in comps.items() if v},
                       cov_sym="antisym")


def random_multivector(rng: random.Random, chart: Chart, degree: int,
                       max_components: int = 2, **poly_opts) -> TensorField:
    return _swap(random_form(rng, chart, degree, max_components, **poly_opts))


def random_vv_form(rng: random.Random, chart: Chart, degree: int,
                   max_components: int = 2, **poly_opts) -> TensorField:
    """Random (1, degree) vector-valued form, antisymmetric in the form slots."""
    comps = {}
    keys = _random_keys(rng, chart, degree, max_components)
    for key in keys:
        m = rng.randrange(chart.dim)
        comps[((m,), key)] = random_poly(rng, chart, **poly_opts)
    if degree == 0:
        for _ in range(rng.randint(1, max_components)):
            m = rng.randrange(chart.dim)
            comps[((m,), ())] = random_poly(rng, chart, **poly_opts)
    return TensorField(chart, 1, degree, {k: v for k, v in comps.items() if v},
                       cov_sym="antisym")


def random_tensor(rng: random.Random, chart: Chart, q: int, p: int,
                  max_components: int = 2, **poly_opts) -> TensorField:
    # the key's draws come before its polynomial's, as the tuple is built
    return TensorField.from_components(chart, q, p, (
        ((tuple(rng.randrange(chart.dim) for _ in range(q)),
          tuple(rng.randrange(chart.dim) for _ in range(p))),
         random_poly(rng, chart, **poly_opts))
        for _ in range(rng.randint(1, max_components))))
