"""Canonical text and JSON forms.

The text forms round-trip through the DSL parser: polynomials render with
explicit * and ^, contravariant basis factors as d/dx, covariant ones as
dx, tensor products as ox, and wedge blocks as ^^ (binding tighter than
ox).  Components are emitted in sorted order so rendering is deterministic;
a sym block is written as each of its distinct index orders, as
tensor._block_expansion lists them.

`dumps` is the one JSON writer for output documents.  Its bytes equal
`json.dumps(doc, indent=2)`, but with `indent` the standard library falls
back to its pure-Python encoder, which was the largest single cost of a
short `gradcalc run --format json`; `dumps` walks the document once and
escapes strings with the C `encode_basestring_ascii`.
"""

from __future__ import annotations

import sys

from . import __version__
from .errors import GradcalcError
from .tensor import _block_expansion

__all__ = ["render_poly", "render_tensor", "poly_to_json", "tensor_to_json",
           "chart_to_json", "json_document", "dumps"]

SCHEMA = 1

# CPython converts an int to or from decimal text only up to a digit limit,
# a guard against quadratic-time conversion that gradcalc leaves as it is.
# No nonzero limit is below 640 digits, and an int of at most 3 * 640 bits
# has fewer digits than that.
LEAST_DIGIT_LIMIT = 640
_FITS_ANY_LIMIT_BITS = 3 * LEAST_DIGIT_LIMIT


def digit_limit() -> int:
    """The interpreter's int <-> str digit limit; 0 where there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def number_str(x) -> str:
    """str(x) of an int or Fraction.  A numerator or denominator past the
    digit limit raises GradcalcError before any text is built."""
    n = x if type(x) is int else max(abs(x.numerator), x.denominator)
    if n.bit_length() > _FITS_ANY_LIMIT_BITS:
        limit = digit_limit()
        if limit and abs(n) >= 10 ** limit:
            raise GradcalcError(
                f"a number of more than {limit} digits cannot be printed: "
                f"{limit} is the interpreter's limit (sys.get_int_max_str_digits())")
    return str(x)


def key_text(names, key) -> str:
    """A component key (up, down) as (x,y;z)."""
    return "(" + ",".join(names[i] for i in key[0]) + ";" + \
        ",".join(names[j] for j in key[1]) + ")"


def point_text(names, point) -> str:
    """A point {variable index: value} as (x=1, y=2), in variable order."""
    return "(" + ", ".join(f"{names[i]}={point[i]}" for i in sorted(point)) + ")"


def _mono_str(mono, names) -> str:
    return "*".join(
        names[v] if e == 1 else f"{names[v]}^{number_str(e)}" for v, e in mono)


def _poly_sign_bodies(f) -> list:
    """Render terms as (negative?, body) pairs, descending graded-lex."""
    names = f.chart.names
    out = []
    for mono, coef in f.sorted_terms():
        neg = coef < 0
        a = -coef if neg else coef
        if not mono:
            body = number_str(a)
        elif a == 1:
            body = _mono_str(mono, names)
        else:
            body = f"{number_str(a)}*{_mono_str(mono, names)}"
        out.append((neg, body))
    return out


def _join_signed(parts: list) -> str:
    if not parts:
        return "0"
    neg, body = parts[0]
    text = ("-" if neg else "") + body
    for neg, body in parts[1:]:
        text += (" - " if neg else " + ") + body
    return text


def render_poly(f) -> str:
    return _join_signed(_poly_sign_bodies(f))


def _render_components(t) -> tuple:
    """Render each stored component once.

    Returns the sorted (up, down, sign/body parts) of every component and
    the tensor's canonical text, so a component's coef and the text come
    from the same parts.  Scalars render as bare polynomials."""
    comps = [(up, down, _poly_sign_bodies(coef))
             for (up, down), coef in sorted(t.components.items())]
    if t.q == 0 and t.p == 0:
        return comps, _join_signed(comps[0][2] if comps else [])
    names = t.chart.names
    contra_join = " ^^ " if t.contra_sym == "antisym" else " ox "
    cov_join = " ^^ " if t.cov_sym == "antisym" else " ox "
    # a sym block is written as the sum of its distinct index orders, so
    # the text declared again as sym passes the symmetry check
    contra = "sym" if t.contra_sym == "sym" else "none"
    cov = "sym" if t.cov_sym == "sym" else "none"
    terms = []
    for up, down, parts in comps:
        # the coefficient as a prefix with its trailing *: a unit constant
        # vanishes, a single term carries its sign out, a sum is bracketed
        if len(parts) == 1:
            neg, body = parts[0]
            prefix = "" if body == "1" else body + "*"
        else:
            neg, prefix = False, "(" + _join_signed(parts) + ")*"
        for _, u in _block_expansion(up, contra):
            for _, d in _block_expansion(down, cov):
                blocks = []
                if u:
                    blocks.append(contra_join.join(f"d/d{names[i]}" for i in u))
                if d:
                    blocks.append(cov_join.join(f"d{names[j]}" for j in d))
                terms.append((neg, prefix + " ox ".join(blocks)))
    return comps, _join_signed(terms)


def render_tensor(t) -> str:
    """Canonical text of a tensor field; scalars render as bare polynomials."""
    return _render_components(t)[1]


def poly_to_json(f) -> dict:
    return {"type": "poly", "text": render_poly(f)}


def tensor_to_json(t) -> dict:
    names = t.chart.names
    comps, text = _render_components(t)
    return {
        "type": "tensor",
        "valence": [t.q, t.p],
        "contra_sym": t.contra_sym,
        "cov_sym": t.cov_sym,
        "components": [{"up": [names[i] for i in up],
                        "down": [names[j] for j in down],
                        "coef": _join_signed(parts)}
                       for up, down, parts in comps],
        "text": text,
    }


def chart_to_json(chart) -> dict:
    return {
        "type": "chart",
        "label": chart.label,
        "vars": [{"name": n, "weights": list(w)}
                 for n, w in zip(chart.names, chart.weights)],
        "n_graded": list(chart.n_graded),
    }


def json_document(**body) -> dict:
    """A JSON output document: version and schema, then body's keys in order."""
    return {"gradcalc_version": __version__, "schema": SCHEMA, **body}


def dumps(doc) -> str:
    """`json.dumps(doc, indent=2)` for documents of dict (str keys), list,
    str, int, bool and None; any other type raises TypeError."""
    # imported on first use, so that `import gradcalc` does not load json
    from json.encoder import encode_basestring_ascii as quote

    out: list = []
    _write(doc, "\n", out, quote)
    return "".join(out)


def _write(x, nl: str, out: list, quote) -> None:
    if isinstance(x, str):
        out.append(quote(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in x.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out += (sep, quote(k), ": ")
            _write(v, inner, out, quote)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(x, list):
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _write(v, inner, out, quote)
            sep = "," + inner
        out.append(nl + "]")
    else:
        raise TypeError(
            f"Object of type {type(x).__name__} is not JSON serializable")
