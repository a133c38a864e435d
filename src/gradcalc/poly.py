"""Sparse multivariate polynomials over the rationals, tied to a chart.

Representation
--------------
A monomial is a tuple of (variable index, exponent) pairs, sorted by
variable index, with every exponent >= 1.  The empty tuple is the constant
monomial.  A polynomial is a dict mapping monomials to nonzero rational
coefficients; the empty dict is the zero polynomial.  Both are canonical:
two polynomials on the same chart are equal iff their dicts are equal.

Every Poly carries the chart it lives on.  Mixing polynomials from two
different chart objects raises ChartMismatchError even when the variable
tables agree; use reindex() to move a polynomial onto another chart by
variable name.

Coefficients are exact rationals.  _coef(value) is the one number
rule: a number passed to a constructor, an operator, evaluate() or a
builder elsewhere must be an int (not a bool) or a fractions.Fraction,
else GradcalcError.  A float or a str operand of + - * is left to
Python (NotImplemented), and == is False for any non-number.  A whole
number is stored as an int, so products of integer polynomials never
pay for a gcd.  Arithmetic between stored coefficients may still leave
a whole Fraction (Fraction(1, 2) * 2).  Equality is unaffected, because
Fraction(2) == 2 with equal hashes, and so is rendering, because both
print as 2.  No coefficient is ever a float.  _cleared(values) is the
one denominator rule next to it: the LCM d of the values' denominators
and each value times d as an int, which evaluate(),
checkers.rational_rank and dsl._power_work read, and no module but this
one calls math.lcm.  constant_value() and evaluate() return Fraction;
evaluate() sums in integers over one common denominator and builds only
that Fraction.  There is no division by non-constant polynomials.

A Poly keeps its variable set and the first derivatives it was asked
for.  variables_used() builds a frozenset on the first call and returns
the same one on every later call.  diff() computes each derivative once
and returns the same Poly on every later call; it keeps at most one
derivative per variable used, and their terms total at most (variables
per monomial) x its own term count.  Sharing is safe because no code
changes a Poly's terms in place, so a kept set cannot go stale and a
kept derivative is as immutable as any other Poly.

_acc(store, key, value) adds a number into a term dict and keeps the
dict free of zero coefficients: every sparse sum of coefficients goes
through it, and no module but this one calls it.  A sum of polynomials
at many keys, whole Polys or products sign * f * g, goes through the one
polynomial accumulator, which builds no Poly on the way: _acc_poly adds
a Poly or a term dict into a store of one entry per key, _acc_product
adds the term dict of one product, formed by _mul_terms (the one product
loop, which Poly.__mul__ runs too), and _polys wraps each surviving dict
in a Poly at the end.  _acc_poly holds a Poly until another contribution
meets its key, merges the smaller term dict into the larger, as
Poly.__add__ does, and deletes a key only once a whole contribution has
cancelled it, so a result is stored exactly as the sum of Polys was: the
same keys, terms and coefficient types in the same order.  Poly.__add__
keeps its own loop apart, because the storage tests fold Polys with it
and _acc as the reference these accumulators must match.  The oracles
keep their own loops to stay independent of the code they check.
Poly.from_terms and tensor._sum are the one n-ary sum of polynomials and
of tensors.

_coefficient(chart, value, what, base) is the one coefficient rule of
the builders outside this module: a number goes through _coef, a Poly
must live on the chart.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .charts import Chart
from .errors import ChartMismatchError, GradcalcError

__all__ = [
    "Monomial", "Poly", "ANY_DEGREE",
    "weight_of_monomial", "degree_of_function", "homogeneous_components",
]

Monomial = tuple  # tuple[tuple[int, int], ...]


def _coef(value):
    """The one number rule: value in stored form, an int when whole, else a
    Fraction.  Any value but an int (not a bool) or a Fraction raises."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise GradcalcError(f"a number must be an int or a Fraction, not {value!r}")


def _cleared(values) -> tuple:
    """The one denominator rule: (d, ints), d the LCM of the denominators
    of values (ints and Fractions, iterated twice) and ints each value
    times d, as an int."""
    d = 1
    for c in values:
        if type(c) is not int:
            d = math.lcm(d, c.denominator)
    return d, [c * d if type(c) is int else c.numerator * (d // c.denominator)
               for c in values]


def _acc(store: dict, key, value) -> None:
    """store[key] += value, keeping store free of zero entries."""
    if not value:
        return
    prev = store.get(key)
    s = value if prev is None else prev + value
    if s:
        store[key] = s
    elif prev is not None:
        del store[key]


def _acc_poly(store: dict, key, p) -> None:
    """store[key] += p, a Poly or a term dict, merged as Poly.__add__ merges.

    A key met once stores p itself: a Poly is held, a term dict is owned
    by the store from then on.  A key met again gets one owned dict: the
    larger of the two (the stored one on a tie, copied if a Poly holds it)
    with the smaller added term by term.  The key is deleted only once the
    whole contribution has cancelled it.
    """
    held = type(p) is Poly
    terms = p.terms if held else p
    if not terms:
        return
    prev = store.get(key)
    if prev is None:
        store[key] = p
        return
    copy = type(prev) is Poly
    if copy:
        prev = prev.terms
    if len(prev) < len(terms):
        prev, terms, copy = terms, prev, held
    if copy:
        prev = dict(prev)
    for m, c in terms.items():
        _acc(prev, m, c)
    if prev:
        store[key] = prev
    else:
        del store[key]


def _acc_product(store: dict, key, f: "Poly", g: "Poly", sign: int = 1) -> None:
    """store[key] += sign * f * g, with sign 1 or -1, building no Poly."""
    _acc_poly(store, key, _mul_terms(f.terms, g.terms, sign))


def _polys(chart: Chart, store: dict) -> dict:
    """The Polys of an accumulator store: each owned term dict wrapped, each
    held Poly as it is, in the store's key order."""
    return {k: v if type(v) is Poly else Poly(chart, v) for k, v in store.items()}


def _coefficient(chart: Chart, value, what: str, base=None) -> "Poly":
    """value as a coefficient on chart: a number becomes the constant, a
    Poly must live on chart and, when base (a set of variable indices) is
    given, use only those variables."""
    if not isinstance(value, Poly):
        return Poly.const(chart, value)
    if value.chart is not chart:
        raise ChartMismatchError(f"{what} lives on a different chart")
    if base is not None and not value.variables_used() <= base:
        raise GradcalcError(f"{what} must depend on base variables only")
    return value


class _AnyDegree:
    """Degree of the zero polynomial: compatible with every weight."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ANY_DEGREE"


ANY_DEGREE = _AnyDegree()

# Poly.evaluate refuses a point at which one term's powers may pass this
# many bits (about 1.3 million digits; 3^(2·10^6) takes about 0.1 s).
_MAX_POWER_BITS = 1 << 22


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Merge two sorted exponent lists, adding exponents."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mul_terms(a: dict, b: dict, sign: int = 1) -> dict:
    """The one product loop: the term dict of sign * a * b, with sign 1 or
    -1.  Terms come in the order their pairs first meet; one that cancels
    and comes back goes last.  The sign negates each coefficient of a, so
    a coefficient is -(ca * cb) in value and in type."""
    if len(a) == 1 and len(b) == 1:
        # one term by one term: both coefficients are nonzero
        (ma, ca), = a.items()
        (mb, cb), = b.items()
        return {mono_mul(ma, mb): ca * cb if sign == 1 else -(ca * cb)}
    out: dict = {}
    for ma, ca in a.items():
        if sign != 1:
            ca = -ca
        for mb, cb in b.items():
            _acc(out, mono_mul(ma, mb), ca * cb)
    return out


def mono_total_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def weight_of_monomial(m: Monomial, chart: Chart, component: int = 0) -> int:
    """Sum of exponent * variable weight over the monomial."""
    ws = chart.weights
    return sum(e * ws[v][component] for v, e in m)


def _mono_sort_key(m: Monomial, dim: int):
    # graded lexicographic: total degree first, then the dense exponent row
    dense = [0] * dim
    for v, e in m:
        dense[v] = e
    return (mono_total_degree(m), tuple(dense))


class Poly:
    """Polynomial with exact rational coefficients on a fixed chart."""

    __slots__ = ("chart", "terms", "_diffs", "_vars")

    def __init__(self, chart: Chart, terms: dict):
        # terms must already be canonical (no zero coefficients, sorted keys)
        self.chart = chart
        self.terms = terms
        self._diffs = None
        self._vars = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "Poly":
        return Poly(chart, {})

    @staticmethod
    def const(chart: Chart, value) -> "Poly":
        c = _coef(value)
        return Poly(chart, {(): c} if c else {})

    @staticmethod
    def variable(chart: Chart, var) -> "Poly":
        return Poly(chart, {((chart.index(var), 1),): 1})

    @staticmethod
    def from_terms(chart: Chart, entries: Iterable) -> "Poly":
        """Sum arbitrary (monomial, coefficient) pairs into canonical form."""
        acc: dict = {}
        for m, c in entries:
            _acc(acc, m, _coef(c))
        return Poly(chart, acc)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise GradcalcError("polynomial is not constant")
        return Fraction(self.terms.get((), 0))

    def variables_used(self) -> frozenset:
        """The indices of the variables that occur, built on the first call
        in term order and returned as the same frozenset on every later one."""
        used = self._vars
        if used is None:
            used = self._vars = frozenset(v for m in self.terms for v, _ in m)
        return used

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.chart is not other.chart:
            raise ChartMismatchError("polynomials live on different charts")

    def _coerce(self, other):
        if isinstance(other, Poly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.chart, other)
        return None

    def __add__(self, other):
        if type(other) is Poly:
            self._check(other)
        else:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for m, c in b.items():
            _acc(out, m, c)
        return Poly(self.chart, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.chart, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if type(other) is Poly:
            self._check(other)
        elif isinstance(other, (int, Fraction)):
            c = _coef(other)
            if not c:
                return Poly(self.chart, {})
            return Poly(self.chart, {m: k * c for m, k in self.terms.items()})
        else:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return Poly(self.chart, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Poly):
            if not other.is_constant():
                raise GradcalcError("can only divide by a nonzero constant")
            other = other.constant_value()
        if not _coef(other):
            raise ZeroDivisionError("division by zero")
        return self * Fraction(1, other)

    def __pow__(self, n: int):
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise GradcalcError("exponent must be a nonnegative integer")
        if n and len(self.terms) == 1:
            (m, c), = self.terms.items()
            return Poly(self.chart, {tuple((v, e * n) for v, e in m): c ** n})
        out = Poly.const(self.chart, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = Poly.const(self.chart, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.chart is other.chart and self.terms == other.terms

    __hash__ = None  # mutable dict inside; equality is structural

    # -- calculus and structure -----------------------------------------

    def diff(self, var) -> "Poly":
        """Partial derivative with respect to one chart variable.

        The index is checked first.  A nonzero derivative is then kept in
        _diffs under the variable index, so a name and its index share
        one entry and every later call returns the same Poly: at most one
        per variable used, (variables per monomial) x len(terms) terms in
        all.
        """
        if type(var) is not int or not 0 <= var < len(self.chart.names):
            var = self.chart.index(var)
        diffs = self._diffs
        if diffs is None:
            diffs = self._diffs = {}
        elif var in diffs:
            return diffs[var]
        out: dict = {}
        for m, c in self.terms.items():
            # a monomial's variables are sorted: stop at the first v >= var
            for pos, (v, e) in enumerate(m):
                if v < var:
                    continue
                if v == var:
                    # distinct monomials stay distinct and c * e != 0
                    if e == 1:
                        out[m[:pos] + m[pos + 1:]] = c
                    else:
                        out[m[:pos] + ((v, e - 1),) + m[pos + 1:]] = c * e
                break
        d = Poly(self.chart, out)
        if out:
            diffs[var] = d
        return d

    def substitute(self, images: Mapping, target: Chart | None = None) -> "Poly":
        """Replace every variable by its image polynomial.

        images maps every variable occurring in self (by index) to a Poly;
        all images must share one chart, which becomes the result chart.
        A missing variable is an error.
        """
        for im in images.values():
            if target is None:
                target = im.chart
            elif im.chart is not target:
                raise ChartMismatchError("substitution images live on different charts")
        if target is None:
            target = self.chart
        used = self.variables_used()
        missing = used - set(images.keys())
        if missing:
            names = ", ".join(self.chart.names[v] for v in sorted(missing))
            raise GradcalcError(f"substitution misses variables: {names}")
        out = Poly.zero(target)
        powers: dict = {}
        for m, c in self.terms.items():
            term = Poly.const(target, c)
            for v, e in m:
                cache = powers.setdefault(v, {0: Poly.const(target, 1), 1: images[v]})
                if e not in cache:
                    k = max(k0 for k0 in cache if k0 <= e)
                    acc = cache[k]
                    while k < e:
                        acc = acc * images[v]
                        k += 1
                        cache[k] = acc
                term = term * cache[e]
            out = out + term
        return out

    def evaluate(self, point: Mapping) -> Fraction:
        """Exact value at a point given as {variable index: rational}.

        A coordinate is a number by the rule of _coef (an int or a
        Fraction); only the variables that occur are read.  The
        sum runs in integers over one common denominator: the LCM of the
        coefficient denominators times den^top for each variable, top
        being its largest exponent.  A term's numerator starts as its
        coefficient times that denominator, and each of its variables
        trades den^top for num^e * den^(top - e), read from a table built
        once per variable for the exponents that occur.  One Fraction is
        built, for the result.  GradcalcError, before any power is built,
        if a term's powers may have more than _MAX_POWER_BITS bits.
        """
        pairs = set()          # the (variable, exponent) factors that occur
        for m in self.terms:
            pairs.update(m)
        top: dict = {}
        for v, e in pairs:
            if e > top.get(v, 0):
                top[v] = e
        missing = top.keys() - point.keys()
        if missing:
            names = ", ".join(self.chart.names[v] for v in sorted(missing))
            raise GradcalcError(f"evaluation point misses variables: {names}")
        lcm, nums = _cleared(self.terms.values())
        coords = {}            # variable -> (num, den, top)
        tables = {}            # variable -> {e: num^e * den^(top - e)}, and 0: den^top
        full = 1               # product of den^top over the variables
        bits = 0               # bound on the bits of one term's powers
        for v, t in top.items():
            x = _coef(point[v])
            num, den = x.numerator, x.denominator
            bits += t * (max(abs(num), den) - 1).bit_length()
            if bits > _MAX_POWER_BITS:
                raise GradcalcError(
                    f"the powers of one term at this point may have {bits} bits, "
                    f"which exceeds the limit {_MAX_POWER_BITS}")
            coords[v] = num, den, t
            p = den ** t
            tables[v] = {0: p}
            full *= p
        for v, e in pairs:
            num, den, t = coords[v]
            tables[v][e] = num ** e * den ** (t - e)
        total = 0
        for m, s in zip(self.terms, nums):
            s *= full
            for v, e in m:
                table = tables[v]
                s = s // table[0] * table[e]
            total += s
        return Fraction(total, lcm * full)

    def reindex(self, target: Chart) -> "Poly":
        """Move onto another chart, matching variables by name."""
        mapping = {}
        for v in self.variables_used():
            mapping[v] = target.index(self.chart.names[v])
        out = {}
        for m, c in self.terms.items():
            nm = tuple(sorted((mapping[v], e) for v, e in m))
            out[nm] = c
        return Poly(target, out)

    def sorted_terms(self) -> list:
        """Terms in descending graded-lex order (for rendering)."""
        dim = self.chart.dim
        return sorted(self.terms.items(),
                      key=lambda kv: _mono_sort_key(kv[0], dim), reverse=True)

    def __repr__(self) -> str:
        from .render import render_poly
        return render_poly(self)


def degree_of_function(f: Poly, component: int = 0) -> object:
    """Homogeneity weight of f in one grading component.

    Returns the common weight of all monomials, ANY_DEGREE for the zero
    polynomial, or None when f is inhomogeneous.
    """
    f.chart.check_component(component)
    if not f.terms:
        return ANY_DEGREE
    it = iter(f.terms)
    w = weight_of_monomial(next(it), f.chart, component)
    for m in it:
        if weight_of_monomial(m, f.chart, component) != w:
            return None
    return w


def homogeneous_components(f: Poly, component: int = 0) -> dict:
    """Split f into its weight-homogeneous parts: {weight: Poly}."""
    f.chart.check_component(component)
    parts: dict = {}
    for m, c in f.terms.items():
        w = weight_of_monomial(m, f.chart, component)
        parts.setdefault(w, {})[m] = c
    return {w: Poly(f.chart, t) for w, t in sorted(parts.items())}


def degree_matches(d, expected: int) -> bool:
    """True when a reported degree is the expected one (zero matches any)."""
    return d is ANY_DEGREE or d == expected
