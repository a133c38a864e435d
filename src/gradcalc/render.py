"""Canonical text and JSON forms.

The text forms round-trip through the DSL parser: polynomials render with
explicit * and ^, contravariant basis factors as d/dx, covariant ones as
dx, tensor products as ox, and wedge blocks as ^^ (binding tighter than
ox).  Components are emitted in sorted order so rendering is deterministic.
"""

from __future__ import annotations

from . import __version__

__all__ = ["render_poly", "render_tensor", "poly_to_json", "tensor_to_json",
           "chart_to_json", "json_document"]

SCHEMA = 1


def _mono_str(mono, names) -> str:
    return "*".join(
        names[v] if e == 1 else f"{names[v]}^{e}" for v, e in mono)


def _poly_sign_bodies(f) -> list:
    """Render terms as (negative?, body) pairs, descending graded-lex."""
    names = f.chart.names
    out = []
    for mono, coef in f.sorted_terms():
        neg = coef < 0
        a = -coef if neg else coef
        if not mono:
            body = str(a)
        elif a == 1:
            body = _mono_str(mono, names)
        else:
            body = f"{a}*{_mono_str(mono, names)}"
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


def _coef_prefix(f):
    """Coefficient of a tensor term: (negative?, prefix-with-trailing-*)."""
    if f.is_constant():
        c = f.constant_value()
        neg = c < 0
        a = -c if neg else c
        return neg, ("" if a == 1 else f"{a}*")
    parts = _poly_sign_bodies(f)
    if len(parts) == 1:
        neg, body = parts[0]
        return neg, body + "*"
    return False, "(" + _join_signed(parts) + ")*"


def render_tensor(t) -> str:
    """Canonical text of a tensor field; scalars render as bare polynomials."""
    if t.q == 0 and t.p == 0:
        f = t.scalar_part()
        return render_poly(f)
    names = t.chart.names
    contra_join = " ^^ " if t.contra_sym == "antisym" and t.q >= 2 else " ox "
    cov_join = " ^^ " if t.cov_sym == "antisym" and t.p >= 2 else " ox "
    parts = []
    for (up, down) in sorted(t.components):
        coef = t.components[(up, down)]
        neg, prefix = _coef_prefix(coef)
        blocks = []
        if up:
            blocks.append(contra_join.join(f"d/d{names[i]}" for i in up))
        if down:
            blocks.append(cov_join.join(f"d{names[j]}" for j in down))
        parts.append((neg, prefix + " ox ".join(blocks)))
    return _join_signed(parts)


def poly_to_json(f) -> dict:
    return {"type": "poly", "text": render_poly(f)}


def tensor_to_json(t) -> dict:
    names = t.chart.names
    comps = []
    for (up, down) in sorted(t.components):
        comps.append({
            "up": [names[i] for i in up],
            "down": [names[j] for j in down],
            "coef": render_poly(t.components[(up, down)]),
        })
    return {
        "type": "tensor",
        "valence": [t.q, t.p],
        "contra_sym": t.contra_sym,
        "cov_sym": t.cov_sym,
        "components": comps,
        "text": render_tensor(t),
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
