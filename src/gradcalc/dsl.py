"""Line-oriented script language over the engine.

One statement per line; # starts a comment.  A small script:

    chart M { x:0, y:0 }
    vf X on M = x * d/dy
    lift X lambda=1 r=1 as X1
    degree X1

README.md lists the statement forms and the limits on their sizes; a
test keeps that list equal to the keywords of _COMMANDS.

The table _COMMANDS declares every statement form once, declarations
included, keyed by its keyword: the names it takes and the object kinds
they must refer to (a declaration's CHART is one), its key=INT
parameters, the parser of its body, the kind of object its NAME or `as
NAME` binds, and its runner.  Every statement is parsed, resolved and
run through its entry; the bracket and check kinds and the oracle forms,
with their arguments, are listed there too.

Expressions are polynomials over the chart variables extended with the
basis symbols d/dx (vector) and dx (covector) and the operators + - * ^
ox (tensor product) and ^^ (wedge, binding tighter than ox).  The
Unicode forms of the two product signs are accepted on input only; all
output is ASCII.  An expression parses into a flat postfix program, so
rendered tensor text of any length, declared again with the tensor's
tag, parses back to an equal tensor.

execute() is deterministic for a given script and seed: JSON payloads
never contain timing, and all sampling is seeded.  Exit status mapping:
0 success, 1 at least one failed check, 2 parse (lexical, syntax, name)
error, 3 semantic error.
"""

from __future__ import annotations

import math
import re
import time
from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction

from .calculus import (concomitant, exterior_derivative, fn_bracket,
                       lie_bracket, lie_derivative, nr_bracket,
                       schouten_bracket)
from .charts import Chart, make_chart, prolonged_base_name
from .checkers import (Distribution, is_almost_complex, is_almost_product,
                       is_almost_tangent, is_involutive, is_nijenhuis,
                       is_poisson, is_weighted_contact,
                       is_weighted_distribution, is_weighted_nijenhuis,
                       is_weighted_poisson, is_weighted_pn,
                       is_weighted_tensor)
from .errors import DslError, GradcalcError
from .lifts import (LiftContext, LinearConnection, _lift_sizes, covariant_derivative,
                    lift_distribution, lift_function, lift_linear_connection,
                    lift_tensor, tangent_connection)
from .oracle import (evaluate_tensor_at, identity_spot_check,
                     koszul_concomitant_oracle, taylor_lift_oracle)
from .poly import ANY_DEGREE, Poly, _cleared
from .render import (LEAST_DIGIT_LIMIT, chart_to_json, digit_limit, json_document,
                     key_text, number_str, render_poly, tensor_to_json)
from .tensor import (TensorField, _expanded_size, _sum, coordinate_one_form,
                     coordinate_vector_field, degree_of_tensor, insert_form,
                     scalar_field, tagged, tensor_product, wedge)

__all__ = ["parse", "execute", "Script", "OutputRecord"]

# One match per token, blanks before it included: a comment or the end of
# the line matches "end", and any other character "bad", at its column.
_TOKEN_RE = re.compile(r"""\s*(?:
    (?P<basisvf>d/d[A-Za-z_][A-Za-z_0-9]*)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<int>[0-9]+)
  | (?P<wedge>\^\^|∧)
  | (?P<op>[{}(),=:+\-*/^])
  | (?P<ox>⊗)
  | (?P<end>\#|$)
  | (?P<bad>)
)""", re.VERBOSE)

# Binary operators: token kind -> (binding level, program instruction),
# loosest at 1; a chain of one level folds left.
_BINARY = {"plus": (1, ("add",)), "minus": (1, ("sub",)), "ox": (2, ("ox",)),
           "wedge": (3, ("wedge",)), "star": (4, ("mul",))}

# Deepest nesting of parentheses in an expression: each level is one
# parser call, so the limit keeps a script well inside Python's stack.
_MAX_NESTING = 100

_OPS = {"{": "lbrace", "}": "rbrace", "(": "lparen", ")": "rparen",
        ",": "comma", "=": "equals", ":": "colon", "+": "plus",
        "-": "minus", "*": "star", "/": "slash", "^": "caret"}


Token = namedtuple("Token", "kind text line col")


def _lex_line(text: str, line_no: int) -> list:
    out = []
    match = _TOKEN_RE.match
    new = tuple.__new__
    m = match(text)
    kind = m.lastgroup
    while kind != "end":
        tok = m[kind]
        col = m.start(kind) + 1
        if kind == "op":
            kind = _OPS[tok]
        elif kind == "ox" or (kind == "ident" and tok == "ox"):
            kind, tok = "ox", "ox"
        elif kind == "bad":
            raise DslError(f"unexpected character {text[col - 1]!r}", "lexical",
                           line_no, col)
        elif kind == "int" and len(tok) > LEAST_DIGIT_LIMIT and 0 < digit_limit() < len(tok):
            raise DslError(f"an integer of {len(tok)} digits exceeds the limit "
                           f"{digit_limit()} (sys.get_int_max_str_digits())",
                           "lexical", line_no, col)
        out.append(new(Token, (kind, tok, line_no, col)))
        m = match(text, m.end())
        kind = m.lastgroup
    return out


# -- statement AST -------------------------------------------------------------

# One parsed statement: args holds the names as written, not yet looked up
# (see Form).
CmdStmt = namedtuple("CmdStmt", "op form args line src")


# A parsed script: its CmdStmts in order.
Script = namedtuple("Script", "statements")


class _Parser:
    """One line's tokens, read left to right."""

    def __init__(self, tokens: list, line_no: int, src: str):
        self.toks = tokens
        self.i = 0
        self.line = line_no
        self.src = src

    def peek(self) -> Token | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            raise DslError("unexpected end of line", "syntax", self.line,
                           len(self.src) + 1)
        self.i += 1
        return t

    def expect(self, kind: str, what: str = "") -> Token:
        t = self.next()
        if t.kind != kind:
            raise DslError(f"expected {what or kind}, got {t.text!r}",
                           "syntax", t.line, t.col)
        return t

    def expect_word(self, word: str) -> Token:
        t = self.next()
        if t.kind != "ident" or t.text != word:
            raise DslError(f"expected {word!r}, got {t.text!r}", "syntax",
                           t.line, t.col)
        return t

    def word(self, label: str) -> str:
        """ident (- ident)*: a statement keyword or a Choice's kind."""
        text = self.expect("ident", label).text
        while self.accept("minus"):
            text += "-" + self.expect("ident", label).text
        return text

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        """The next token, consumed, if it has this kind (and text)."""
        i = self.i
        if i < len(self.toks):
            t = self.toks[i]
            if t.kind == kind and (text is None or t.text == text):
                self.i = i + 1
                return t
        return None

    def done(self) -> None:
        t = self.peek()
        if t is not None:
            raise DslError(f"trailing input {t.text!r}", "syntax", t.line, t.col)

    # small helpers

    def _int(self) -> int:
        neg = self.accept("minus")
        t = self.next()
        if t.kind != "int":
            raise DslError(f"expected integer, got {t.text!r}", "syntax",
                           t.line, t.col)
        v = int(t.text)
        return -v if neg else v

    def _rational(self) -> Fraction:
        return self._fraction(self._int())

    def _fraction(self, num: int) -> Fraction:
        """num, or num/DEN when a slash follows; DEN must not be 0."""
        if self.accept("slash"):
            den = self.expect("int", "denominator")
            if int(den.text) == 0:
                raise DslError("division by zero", "syntax", den.line, den.col)
            return Fraction(num, int(den.text))
        return Fraction(num)

    def _kv(self, key: str, default) -> int:
        """key=INT; default when the key is absent, unless it is _REQUIRED."""
        if default is _REQUIRED:
            self.expect_word(key)
        elif self.accept("ident", key) is None:
            return default
        self.expect("equals")
        return self._int()

    def _opt_as(self) -> str | None:
        return self.accept("ident", "as") and self.expect("ident", "name").text

    def parenthesized(self, item: Callable) -> tuple:
        """( item, ... ) with at least one item."""
        self.expect("lparen", "'('")
        out = [item()]
        while self.accept("comma"):
            out.append(item())
        self.expect("rparen", "')'")
        return tuple(out)

    def braced(self, what: str, entry: Callable) -> tuple:
        """{ entry, ... }: a ',' or the '}' follows each entry; empty entries
        between commas are skipped."""
        self.expect("lbrace", "'{'")
        out = []
        while True:
            if self.peek() is None:
                raise DslError(f"unterminated {what} block", "syntax",
                               self.line, len(self.src) + 1)
            if self.accept("rbrace"):
                return tuple(out)
            if not self.accept("comma"):
                out.append(entry())
                t = self.peek()
                if t is not None and t.kind not in ("comma", "rbrace"):
                    raise DslError(f"expected ',' or '}}', got {t.text!r}", "syntax",
                                   t.line, t.col)

    def _once(self, label: str, seen: set, what: str) -> str:
        """An identifier not in seen, which then holds it"""
        t = self.expect("ident", label)
        if t.text in seen:
            raise DslError(f"{what} {t.text!r} is given twice", "syntax", t.line, t.col)
        seen.add(t.text)
        return t.text

    def point(self) -> tuple:
        """at (var=RAT, ...), each var at most once"""
        self.expect_word("at")
        seen = set()

        def coordinate() -> tuple:
            var = self._once("variable", seen, "coordinate")
            self.expect("equals")
            return var, self._rational()

        return self.parenthesized(coordinate)

    def weight(self, seen: set) -> tuple:
        """var:WEIGHT, WEIGHT = INT or (INT, INT, ...), var not in seen"""
        var = self._once("variable name", seen, "variable")
        self.expect("colon", "':'")
        t = self.peek()
        if t is not None and t.kind == "lparen":
            return var, self.parenthesized(self._int)
        return var, (self._int(),)

    def christoffel(self, seen: set) -> tuple:
        """G up lo lo = expr, as ((up, lo, lo), expr); each index triple
        not in seen, which then holds it"""
        g = self.expect_word("G")
        idx = (self.expect("ident", "upper index").text,
               self.expect("ident", "lower index").text,
               self.expect("ident", "lower index").text)
        if idx in seen:
            raise DslError(f"symbol 'G {' '.join(idx)}' is given twice", "syntax",
                           g.line, g.col)
        seen.add(idx)
        self.expect("equals")
        return idx, self.expr()

    # expressions

    def expr(self, depth: int = 0) -> list:
        """One expression as a flat postfix program, by precedence climbing:
        each operand's instructions come before the operator that takes
        them, which waits in pending until the next binds no tighter.  Only
        parentheses recurse, at most _MAX_NESTING deep."""
        prog, pending = [], []      # pending: (level, instruction), levels increasing
        while True:
            negs = 0
            while self.accept("minus"):
                negs += 1
            t = self.next()
            if t.kind == "int":
                prog.append(("num", self._fraction(int(t.text))))
            elif t.kind == "basisvf":
                prog.append(("dvf", t.text[3:], t.line, t.col))
            elif t.kind == "ident":
                prog.append(("var", t.text, t.line, t.col))
            elif t.kind == "lparen":
                if depth == _MAX_NESTING:
                    raise DslError(f"parentheses nested deeper than {_MAX_NESTING}",
                                   "syntax", t.line, t.col)
                prog += self.expr(depth + 1)
                self.expect("rparen", "')'")
            else:
                raise DslError(f"unexpected {t.text!r} in expression", "syntax", t.line, t.col)
            if self.accept("caret"):
                prog.append(("pow", int(self.expect("int", "exponent").text)))
            prog += (("neg",),) * negs
            t = self.peek()
            level, ins = _BINARY.get(t and t.kind, (0, None))
            while pending and pending[-1][0] >= level:
                prog.append(pending.pop()[1])
            if ins is None:
                return prog
            self.i += 1
            pending.append((level, ins))


# -- statement bodies ----------------------------------------------------------
#
# A body parses what follows the keyword (and the kind word of a Choice)
# into the statement's args.  A declaration stores the NAME it declares
# under "as", like the `as NAME` of a command, and each expression with
# the chart indices it names under "exprs", so that _resolve checks both.

def _command_body(p: _Parser, form: Form, a: dict) -> None:
    """NAME ... [key=INT ...] [as NAME]"""
    for key, label, _ in form.args:
        a[key] = p.expect("ident", label).text
    for key, default in form.params:
        a[key] = p._kv(key, default)
    if form.binds:
        a["as"] = p._opt_as()


def _eval_body(p: _Parser, form: Form, a: dict) -> None:
    """NAME at (var=RAT, ...)"""
    _command_body(p, form, a)
    a["point"] = p.point()


def _chart_body(p: _Parser, form: Form, a: dict) -> None:
    """NAME { var:WEIGHT, ... }"""
    a["as"] = p.expect("ident", "chart name").text
    seen: set = set()
    a["entries"] = p.braced("chart", lambda: p.weight(seen))
    p.done()                # trailing input is reported before an empty block
    if not a["entries"]:
        raise DslError("chart declares no variables", "syntax", p.line,
                       p.toks[0].col)


def _on_chart(p: _Parser, a: dict) -> None:
    """NAME on CHART, the chart being the form's one argument"""
    a["as"] = p.expect("ident", "name").text
    p.expect_word("on")
    a["chart"] = p.expect("ident", "chart name").text


def _expr_body(p: _Parser, form: Form, a: dict) -> None:
    """NAME on CHART = expr"""
    _on_chart(p, a)
    p.expect("equals")
    a["exprs"] = (((), p.expr()),)


def _tensor_body(p: _Parser, form: Form, a: dict) -> None:
    """(q,p) [antisym|sym] NAME on CHART = expr"""
    p.expect("lparen", "'('")
    a["q"] = p._int()
    p.expect("comma", "','")
    a["p"] = p._int()
    p.expect("rparen", "')'")
    t = p.accept("ident", "antisym") or p.accept("ident", "sym")
    a["tag"] = t.text if t else "none"
    if a["q"] < 0 or a["p"] < 0:
        raise DslError("tensor valence must be non-negative", "syntax", p.line,
                       p.toks[0].col)
    _expr_body(p, form, a)


def _dist_body(p: _Parser, form: Form, a: dict) -> None:
    """NAME on CHART = span(expr, ...)"""
    _on_chart(p, a)
    p.expect("equals")
    p.expect_word("span")
    a["exprs"] = tuple(((), e) for e in p.parenthesized(p.expr))


def _connection_body(p: _Parser, form: Form, a: dict) -> None:
    """NAME on CHART { G up lo lo = expr, ... }"""
    _on_chart(p, a)
    seen: set = set()
    a["exprs"] = p.braced("connection", lambda: p.christoffel(seen))


def _parse_statement(tokens: list, line_no: int, src: str) -> CmdStmt:
    p = _Parser(tokens, line_no, src)
    col = tokens[0].col
    word = p.word("statement keyword")
    form = _COMMANDS.get(word)
    if form is None:
        raise DslError(f"unknown statement {word!r}", "syntax", line_no, col)
    args = {}
    if isinstance(form, Choice):
        kind = p.word(form.label)
        if kind not in form.forms:
            raise DslError(f"unknown {form.noun} {kind!r}", "syntax", line_no, col)
        args["kind"] = kind
        form = form.forms[kind]
    form.body(p, form, args)
    p.done()
    return CmdStmt(word, form, args, line_no, src)


# -- static name resolution ----------------------------------------------------

def _resolve(script: Script) -> None:
    """Check chart references, expression variables, and object names.

    Each statement's names are checked, then each of its expressions
    (the chart indices it names, then the names of the program's "var"
    and "dvf" instructions in order), and only then is the name it
    defines bound.  chart_vars maps a chart to the test of
    its variable names; a prolonged chart tests a name by the naming rule
    of prolonged_names, so resolving does not grow with the order r.
    """
    kinds: dict = {}
    chart_vars: dict = {}

    def prolonged(base, r: int):
        def has(nm: str) -> bool:
            n = prolonged_base_name(nm, r)
            return base(nm) or (n is not None and base(n))
        return has

    def need(name: str, want: tuple, line: int) -> None:
        k = kinds.get(name)
        if k is None:
            raise DslError(f"{name!r} is not defined", "name", line)
        if k not in want:
            raise DslError(f"{name!r} is a {k}, expected {' or '.join(want)}",
                           "name", line)

    def define(name: str, kind: str, line: int) -> None:
        if name in kinds:
            raise DslError(f"{name!r} is already defined", "name", line)
        kinds[name] = kind

    for st in script.statements:
        form, a = st.form, st.args
        for key, _, want in form.args:
            need(a[key], want, st.line)
        for idx, prog in a.get("exprs", ()):
            chart = a["chart"]
            has = chart_vars[chart]
            for v in idx:
                if not has(v):
                    raise DslError(f"{v} not in {chart}", "name", st.line)
            for op, nm, line, col in (i for i in prog if i[0] in ("var", "dvf")):
                # a variable dq may name the covector of chart variable q
                if not has(nm) and not (op == "var" and nm.startswith("d")
                                        and has(nm[1:])):
                    raise DslError(f"{nm} not in {chart}", "name", line, col)
        new = a.get("as")
        if new:
            kind = form.binds
            if kind == "same":
                kind = kinds[a[form.args[0][0]]]
            define(new, kind, st.line)
            if "entries" in a:
                chart_vars[new] = {v for v, _ in a["entries"]}.__contains__
            elif kind == "chart":
                chart_vars[new] = prolonged(chart_vars[a["name"]], a["r"])


def parse(text: str) -> Script:
    """Parse script text, or raise DslError with a line/column diagnostic."""
    statements = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _lex_line(raw, line_no)
        if not tokens:
            continue
        src = raw.split("#", 1)[0].strip()
        statements.append(_parse_statement(tokens, line_no, src))
    script = Script(tuple(statements))
    _resolve(script)
    return script


# -- execution -----------------------------------------------------------------

class OutputRecord(namedtuple("OutputRecord", "stmt kind ok payload text ms")):
    """One statement's result: payload is its JSON after stmt, kind and ok,
    text its lines of text output and ms its wall time."""

    __slots__ = ()

    def __new__(cls, stmt: str, kind: str, ok: bool, payload: dict | None = None,
                text: list | None = None, ms: float = 0.0):
        return super().__new__(cls, stmt, kind, ok, {} if payload is None else payload,
                               [] if text is None else text, ms)

    @property
    def is_check(self) -> bool:
        """Check and oracle records: a failed one makes the script exit 1."""
        return self.kind in ("check", "oracle")

    def to_json(self) -> dict:
        out = {"stmt": self.stmt, "kind": self.kind, "ok": self.ok}
        out.update(self.payload)
        return out


# Largest prolongation order r= a script may ask for: a lift's size grows
# with r, and r=1000 on one variable did not finish in two minutes.
_MAX_ORDER = 100

# Largest term count a power a^e in a script may reach.  A t-term base
# can have up to C(e+t-1, t-1) terms in its e-th power, so the bound looks
# at the result, not at e alone: (x+y+z+1)^40 (12,341 terms) runs, ^60
# (39,711) did not finish in a minute, and x^500 has one term.
_MAX_POWER_TERMS = 20_000

# Largest work a power a^e in a script may take, in term products of the
# repeated squaring of Poly.__pow__, each weighted by the 64-bit words of
# its larger factor's coefficients (_power_work).  The term count alone
# does not bound it: (x+1)^19999 has 20,000 terms, estimates 2.5e10 and
# ran for minutes, (x+1)^3000 estimates 8.7e7 and takes 13 s, and
# (x+1)^2000 (2.2e7, 4.7 s) and (x+y+z+1)^40 (3.1e6, 5.4 s) run.  The
# powers and products of one expression share this limit (_eval_expr):
# a chain of 4,000 factors x+1 ran for 15.6 s, and 1,000 run in 0.7 s.
_MAX_POWER_WORK = 50_000_000


def _power_work(coefs, e: int) -> int:
    """Estimated work of base ** e from the base's coefficients, in
    coefficient-weighted term products.

    Follows the squarings and products of Poly.__pow__.  The k-th power of
    a t-term base has at most C(k+t-1, t-1) terms, and its coefficients
    at most k*b bits, where b is the bits of the base's absolute
    coefficient sum over a common denominator L plus the bits of L.
    """
    t = len(coefs)
    if not t:
        return 0
    den, ints = _cleared(coefs)
    bits = (sum(map(abs, ints)) - 1).bit_length() + (den - 1).bit_length()
    work, out, square = 0, 0, 1     # out = base^out, square = base^square
    while e:
        if e & 1:
            work += (math.comb(out + t - 1, t - 1) * math.comb(square + t - 1, t - 1)
                     * (1 + max(out, square) * bits // 64))
            out += square
        if e > 1:
            work += math.comb(square + t - 1, t - 1) ** 2 * (1 + square * bits // 64)
            square *= 2
        e >>= 1
    return work


# Largest size one script statement may store, in entries: a lift's
# prolonged variables and indices summed over levels 0..r (_check_lift),
# or the indices of the components an ox writes or an eval lists
# (_check_entries).  A lift builds the jets of its coefficients at every
# level, and each lifted term stores its prolonged variables and its
# indices (lifts._lift_sizes), so a count of terms alone misses long
# monomials.  Measured on a 2-core machine, the lifts that run: lift f
# lambda=20 r=20 of x^3*y^3*z^3 + x*y*z (1,673,148 entries) takes 1.3 s
# and 85 MB, lift-connection of G x x y = x^3*y^3 at r=20 (1,635,040)
# 0.1 s, the lift of a product of 1,500 variables at r=1 (2,251,500)
# 3.2 s and 139 MB, and oracle lift of the function above at r=5
# (1,581,192) 3 s.  A product of 700 variables at r=2 (172,235,700
# entries in only 246,051 terms) ran out of 1.5 GB of address space.
# The ox of two 6-forms on 6 variables (6,220,800 entries) took 13.7 s
# and printed 210 MB of JSON, and the eval of a 10-form on 10 variables
# (36,288,000) 101 s; two 5-forms (144,000) take 0.5 s.
_MAX_ENTRIES = 4_000_000


def _check_entries(what: str, entries: int, parts: str) -> None:
    """GradcalcError if what may store more than _MAX_ENTRIES entries, parts
    saying of what and in how many holders."""
    if entries > _MAX_ENTRIES:
        raise GradcalcError(f"{what} may store {entries} {parts}, which exceeds the "
                            f"limit {_MAX_ENTRIES}")


def _check_lift(r: int, sizes: list) -> None:
    """_check_entries of a statement's lifts, whose (terms, entries) sum
    over sizes."""
    terms, entries = sum(n for n, _ in sizes), sum(k for _, k in sizes)
    _check_entries(f"a lift to order r={r}", entries, f"variables and indices in {terms} terms")


class _Env:
    """Execution state: named charts, tensors, distributions, connections."""

    def __init__(self, seed: int):
        self.seed = seed
        self.objects: dict = {}     # every kind shares one namespace
        self._contexts: dict = {}

    def context(self, chart: Chart, r: int) -> LiftContext:
        if r > _MAX_ORDER:
            raise GradcalcError(f"order r={r} exceeds the limit {_MAX_ORDER}")
        key = (id(chart), r)
        ctx = self._contexts.get(key)
        if ctx is None:
            ctx = LiftContext(chart, r)
            self._contexts[key] = ctx
        return ctx


def _size(t: TensorField) -> tuple:
    """The stored term count of t and the bits of its largest coefficient,
    numerator and denominator together."""
    terms = bits = 0
    for p in t.components.values():
        terms += len(p.terms)
        for c in p.terms.values():
            n = (c.bit_length() if type(c) is int
                 else c.numerator.bit_length() + c.denominator.bit_length())
            if n > bits:
                bits = n
    return terms, bits


def _product_work(a: TensorField, b: TensorField) -> int:
    """Estimated work of a product of a and b in _power_work's unit: the
    product of their stored term counts, weighted by the 64-bit words of
    the larger operand's coefficients."""
    (ta, ba), (tb, bb) = _size(a), _size(b)
    return ta * tb * (1 + max(ba, bb) // 64)


def _eval_expr(program: list, chart: Chart) -> TensorField:
    """Run an expression's postfix program (_Parser.expr) on a stack.  An
    add/sub chain waits there as its list of terms, each checked against
    the first at its own instruction; _sum sums it once, when it is taken.

    One work meter bounds the expression's products: each ^ charges its
    _power_work, and each *, ox or ^^ its _product_work before it runs.
    GradcalcError once the sum passes _MAX_POWER_WORK, or when an ox would
    write more than _MAX_ENTRIES indices (_check_entries).
    """
    def take(x):
        return _sum(x) if type(x) is list else x

    def charge(n: int) -> None:
        nonlocal work
        work += n
        if work > _MAX_POWER_WORK:
            raise GradcalcError(f"the products of this expression may take {work} weighted "
                                f"term products, which exceeds the limit {_MAX_POWER_WORK}")

    work = 0
    stack: list = []
    for ins in program:
        op = ins[0]
        if op == "num":
            stack.append(scalar_field(chart, ins[1]))
        elif op == "var":
            nm = ins[1]
            stack.append(scalar_field(chart, Poly.variable(chart, nm)) if nm in chart.names
                         else coordinate_one_form(chart, nm[1:]))
        elif op == "dvf":
            stack.append(coordinate_vector_field(chart, ins[1]))
        elif op == "neg":
            stack[-1] = -take(stack[-1])
        elif op == "pow":
            a, e = take(stack[-1]), ins[1]
            if a.q or a.p:
                raise GradcalcError("^ takes scalar bases; tensor powers are not defined")
            base = a.scalar_part()
            if e >= 2:      # ^0 and ^1 build nothing larger than the base
                t = len(base.terms)
                n = math.comb(e + t - 1, t - 1) if t else 0
                if n > _MAX_POWER_TERMS:
                    raise GradcalcError(f"power ^{e} of a {t}-term polynomial may have {n} "
                                        f"terms, which exceeds the limit {_MAX_POWER_TERMS}")
                cost = _power_work(base.terms.values(), e)
                if cost > _MAX_POWER_WORK:
                    raise GradcalcError(f"power ^{e} of a {t}-term polynomial may take "
                                        f"{cost} weighted term products, which exceeds the "
                                        f"limit {_MAX_POWER_WORK}")
                charge(cost)
            stack[-1] = scalar_field(chart, base ** e)
        elif op in ("add", "sub"):
            b = take(stack.pop())
            terms = stack[-1] if type(stack[-1]) is list else [stack[-1]]
            terms[0]._check(b)
            terms.append(b if op == "add" else -b)
            stack[-1] = terms
        else:
            a, b = take(stack[-2]), take(stack.pop())
            charge(_product_work(a, b))
            if op == "ox":
                n = _expanded_size(a) * _expanded_size(b)
                _check_entries("a tensor product", n * (a.q + a.p + b.q + b.p),
                               f"indices in {n} components")
                a = tensor_product(a, b)
            elif op == "wedge":
                a = wedge(a, b)
            elif a.q == a.p == 0:           # mul: one factor must be a scalar
                a = b * a.scalar_part()
            elif b.q == b.p == 0:
                a = a * b.scalar_part()
            else:
                raise GradcalcError("* multiplies by scalars; use ox or ^^ for tensors")
            stack[-1] = a
    return take(stack.pop())


def _payload(x) -> dict:
    """The JSON of an object: a chart or a tensor as "result", a
    distribution as its "generators", a connection as its count of
    "symbols"."""
    if isinstance(x, Chart):
        return {"result": chart_to_json(x)}
    if isinstance(x, Distribution):
        return {"generators": [tensor_to_json(g) for g in x.generators]}
    if isinstance(x, LinearConnection):
        return {"symbols": len(x.gamma)}
    return {"result": tensor_to_json(x)}


def _bind(st: CmdStmt, env: _Env, a: dict, x, text: list | None = None,
          decl: str | None = None) -> tuple:
    """Bind the name the statement defines to x and report x as a record's
    kind, ok, payload and text.

    A declaration passes its record kind as decl and reports its name
    first.  text defaults to x's rendered text, after "NAME = " in a
    declaration.
    """
    name = a["as"]
    if name:
        env.objects[name] = x
    payload = _payload(x)
    if text is None:
        res = payload["result"]["text"]
        text = [f"{name} = {res}" if decl else res]
    if decl:
        payload = {"name": name, **payload}
    return decl or st.op, True, payload, text


def _run_chart(st: CmdStmt, env: _Env, a: dict) -> tuple:
    entries = a["entries"]
    chart = make_chart([v for v, _ in entries], [w for _, w in entries], label=a["as"])
    many = len(entries[0][1]) > 1
    return _bind(st, env, a, chart, [f"chart {a['as']}: " + ", ".join(
        f"{n}:{list(w) if many else w[0]}" for n, w in entries)], "chart")


def _zero_as(t: TensorField, want: tuple) -> TensorField:
    """t, or the zero tensor of valence want if t is zero: a zero scalar
    stands for the zero tensor of any valence."""
    return TensorField.zero(t.chart, *want) if t.is_zero() and (t.q, t.p) != want else t


def _run_decl(st: CmdStmt, env: _Env, a: dict) -> tuple:
    name, chart = a["as"], a["chart"]
    t = _eval_expr(a["exprs"][0][1], chart)
    if st.op == "fn":
        want = (0, 0)
    elif st.op == "vf":
        want = (1, 0)
    elif st.op == "form":
        if t.q != 0 or t.p < 1:
            raise GradcalcError(f"form {name} has valence ({t.q},{t.p})")
        want = (0, t.p)
    else:
        want = (a["q"], a["p"])
    t = _zero_as(t, want)
    if (t.q, t.p) != want:
        raise GradcalcError(f"{name} evaluates to valence ({t.q},{t.p}), declared {want}")
    if st.op == "form" and t.p >= 2 and t.cov_sym != "antisym":
        t = tagged(t, cov_sym="antisym")
    if st.op == "tensor" and a["tag"] != "none":
        cs = a["tag"] if t.q >= 2 else "none"
        ps = a["tag"] if t.p >= 2 else "none"
        if (t.contra_sym, t.cov_sym) != (cs, ps):
            t = tagged(t, contra_sym=cs, cov_sym=ps)
    return _bind(st, env, a, t, decl="decl")


def _run_dist(st: CmdStmt, env: _Env, a: dict) -> tuple:
    gens = tuple(_zero_as(_eval_expr(e, a["chart"]), (1, 0)) for _, e in a["exprs"])
    return _bind(st, env, a, Distribution(a["chart"], gens),
                 [f"{a['as']} = span of {len(gens)} fields"], "dist")


def _run_conn(st: CmdStmt, env: _Env, a: dict) -> tuple:
    chart = a["chart"]
    gamma: dict = {}
    for (up, lo1, lo2), e in a["exprs"]:   # the parser rejects a repeated triple
        v = _eval_expr(e, chart)
        if v.q or v.p:
            raise GradcalcError("Christoffel symbols must be scalar")
        gamma[(chart.index(lo1), chart.index(up), chart.index(lo2))] = v.scalar_part()
    conn = tangent_connection(chart, gamma)
    return _bind(st, env, a, conn,
                 [f"{a['as']}: connection with {len(conn.gamma)} symbols"], "connection")


def _run_lift(st: CmdStmt, env: _Env, a: dict) -> tuple:
    x = a["name"]
    dist = isinstance(x, Distribution)
    if dist != (a["lambda"] is None):
        raise GradcalcError("distributions lift wholesale: drop lambda=" if dist
                            else "tensor lifts need lambda=")
    ctx = env.context(x.chart, a["r"])
    _check_lift(ctx.r, [level for t in (x.generators if dist else (x,))
                        for level in _lift_sizes(t, ctx.r)])
    if not dist:
        return _bind(st, env, a, lift_tensor(x, a["lambda"], ctx))
    lifted = lift_distribution(x, ctx)
    return _bind(st, env, a, lifted,
                 [f"lifted distribution with {len(lifted.generators)} generators"])


def _run_prolong(st: CmdStmt, env: _Env, a: dict) -> tuple:
    total = env.context(a["name"], a["r"]).total
    return _bind(st, env, a, total, [f"prolonged chart with {total.dim} variables"])


def _run_lift_connection(st: CmdStmt, env: _Env, a: dict) -> tuple:
    conn = a["name"]
    ctx = env.context(conn.chart, a["r"])
    _check_lift(ctx.r, _lift_sizes(conn, ctx.r))
    lifted = lift_linear_connection(conn, ctx)
    return _bind(st, env, a, lifted,
                 [f"lifted connection with {len(lifted.gamma)} symbols"])


def _run_degree(st: CmdStmt, env: _Env, a: dict) -> tuple:
    d = degree_of_tensor(a["name"], a["component"])
    if d is ANY_DEGREE:
        text = "degree = any (zero tensor)"
    elif d is None:
        text = "not homogeneous"
    else:
        text = f"degree = {number_str(d)}"
    return "degree", True, {"degree": "any" if d is ANY_DEGREE else d}, [text]


def _run_eval(st: CmdStmt, env: _Env, a: dict) -> tuple:
    t = a["name"]
    n = _expanded_size(t)
    _check_entries("an evaluation", n * (t.q + t.p), f"indices in {n} components")
    values = evaluate_tensor_at(t, dict(a["point"]))
    names = t.chart.names
    rows = []
    lines = []
    for key in sorted(values):
        v = number_str(values[key])
        rows.append({"up": [names[i] for i in key[0]],
                     "down": [names[j] for j in key[1]],
                     "value": v})
        lines.append(f"{key_text(names, key)} = {v}" if key[0] or key[1] else v)
    return "eval", True, {"values": rows}, lines or ["0"]


def _run_print(st: CmdStmt, env: _Env, a: dict) -> tuple:
    x = a["name"]
    payload = _payload(x)
    if isinstance(x, Chart):
        text = [repr(x)]
    elif isinstance(x, Distribution):
        text = [g["text"] for g in payload["generators"]]
    elif isinstance(x, LinearConnection):
        names = x.chart.names
        text = [f"G {names[ai]} {names[k]} {names[b]} = {render_poly(g)}"
                for (k, ai, b), g in sorted(x.gamma.items())] or ["flat connection"]
    else:
        text = [payload["result"]["text"]]
    return "print", True, payload, text


def _oracle_record(command: str, oracle: str, agree: bool, result: dict) -> tuple:
    """The record of `oracle COMMAND`: does the result agree with the oracle's?"""
    line = f"oracle {command}: " + ("agree" if agree else "DISAGREE")
    return ("oracle", agree, {"oracle": oracle, "agree": agree, "result": result},
            [line, result["text"]])


def _run_oracle_lift(st: CmdStmt, env: _Env, a: dict) -> tuple:
    t = a["name"]
    if t.q or t.p:
        raise GradcalcError("oracle lift takes a function")
    f = t.scalar_part()
    ctx = env.context(t.chart, a["r"])
    # the oracle substitutes without truncating: x^a takes C(a+r, a) terms,
    # each holding up to min(a, r+1) of x's prolonged variables, and it
    # builds the powers of x's image (r+1 terms of coefficient 1) up to
    # x's top power, as costly as Poly.__pow__ (x^2000 at r=1: 3.8 s)
    counts = [(math.prod(math.comb(e + ctx.r, e) for _, e in m), m) for m in f.terms]
    _check_lift(ctx.r, [(n, n * sum(min(e, ctx.r + 1) for _, e in m)) for n, m in counts])
    work = sum(_power_work([1] * (ctx.r + 1), max(dict(m).get(v, 0) for m in f.terms))
               for v in f.variables_used())
    if work > _MAX_POWER_WORK:
        raise GradcalcError(f"oracle lift to order r={ctx.r} may take {work} weighted term "
                            f"products, which exceeds the limit {_MAX_POWER_WORK}")
    main = lift_function(f, a["lambda"], ctx)
    return _oracle_record("lift", "taylor-lift", main == taylor_lift_oracle(f, a["lambda"], ctx),
                          {"text": render_poly(main)})


def _run_oracle_concomitant(st: CmdStmt, env: _Env, a: dict) -> tuple:
    lam, n, alpha, beta = a["lam"], a["n"], a["alpha"], a["beta"]
    direct = insert_form(tensor_product(alpha, beta), concomitant(lam, n))
    return _oracle_record("concomitant", "koszul-concomitant",
                          direct == koszul_concomitant_oracle(lam, n, alpha, beta),
                          tensor_to_json(direct))


def _run_oracle_spotcheck(st: CmdStmt, env: _Env, a: dict) -> tuple:
    rep = identity_spot_check(a["a"], a["b"], seed=env.seed)
    line = "oracle spotcheck: " + ("agree" if rep.verdict else
                                   f"DISAGREE ({rep.witness})")
    return ("oracle", bool(rep.verdict),
            {"oracle": "spot-check", "check": rep.to_json()}, [line])


# -- the command table ---------------------------------------------------------
#
# Every statement keyword maps to one Form, or to a Choice whose second
# word selects the Form.  Runners reach the engine through module-level names
# looked up at call time (the lambda bodies below), never through function
# objects stored in the table, so a wrapper bound over such a name sees
# every call.

_REQUIRED = object()


# One statement form, a declaration or a command.
# args: (key, parse label, object kinds) for each positional name; the
# CHART of a declaration is one.
# run(st, env, a): returns the record's kind, ok, payload and text; a is
# st.args with each positional key mapped to its object.
# params: (key, default) for each key=INT in order; _REQUIRED marks a key
# that must be given.
# body(p, form, a): parses what follows the keyword into a.
# binds: the kind of object a declaration's NAME or a command's `as NAME`
# binds ("same" for the kind of the first argument); None where a command
# takes no `as`.
# st.args holds the names as written, the key=INT values, "kind" (the
# second word of a Choice), "as" (the name the statement defines), "point"
# (eval), "entries" (chart), "q", "p", "tag" (tensor) and "exprs": each
# expression of a declaration as (chart indices, postfix program).
Form = namedtuple("Form", "args run params body binds",
                  defaults=((), _command_body, None))

# A command whose second word (label) selects one of its forms.  noun is
# the word in "unknown {noun} 'word'".
Choice = namedtuple("Choice", "label noun forms")


def _tensor_op(args: tuple, fn) -> Form:
    """Form of a command whose result is the tensor fn(a)."""
    return Form(args, lambda st, env, a: _bind(st, env, a, fn(a)), binds="tensor")


def _check(args: tuple, params: tuple, fn) -> Form:
    """Form of a check kind; fn(env, a) returns the CheckReport."""
    def run(st: CmdStmt, env: _Env, a: dict) -> tuple:
        rep = fn(env, a)
        line = f"check {a['kind']}: " + ("PASS" if rep.verdict else
                                         f"FAIL ({rep.witness})")
        return "check", bool(rep.verdict), {"check": rep.to_json()}, [line]
    return Form(args, run, params)


_T = ("tensor",)
_NAME = (("name", "name", _T),)
_A = (("a", "name", _T),)
_AB = (("a", "name", _T), ("b", "name", _T))
_DIST = (("a", "name", ("dist",)),)
_K = ("k", _REQUIRED)
_C = ("component", 0)
_R = ("r", _REQUIRED)
_ON = (("chart", "chart name", ("chart",)),)     # the CHART of a declaration

_COMMANDS = {
    "chart": Form((), _run_chart, body=_chart_body, binds="chart"),
    "fn": Form(_ON, _run_decl, body=_expr_body, binds="tensor"),
    "vf": Form(_ON, _run_decl, body=_expr_body, binds="tensor"),
    "form": Form(_ON, _run_decl, body=_expr_body, binds="tensor"),
    "tensor": Form(_ON, _run_decl, body=_tensor_body, binds="tensor"),
    "dist": Form(_ON, _run_dist, body=_dist_body, binds="dist"),
    "connection": Form(_ON, _run_conn, body=_connection_body, binds="connection"),
    "lift": Form((("name", "name", ("tensor", "dist")),), _run_lift,
                 (("lambda", None), _R), binds="same"),
    "prolong": Form((("name", "chart name", ("chart",)),), _run_prolong, (_R,),
                    binds="chart"),
    "lift-connection": Form((("name", "connection name", ("connection",)),),
                            _run_lift_connection, (_R,), binds="connection"),
    "bracket": Choice("bracket kind", "bracket kind", {
        "lie": _tensor_op(_AB, lambda a: lie_bracket(a["a"], a["b"])),
        "schouten": _tensor_op(_AB, lambda a: schouten_bracket(a["a"], a["b"])),
        "fn": _tensor_op(_AB, lambda a: fn_bracket(a["a"], a["b"])),
        "nr": _tensor_op(_AB, lambda a: nr_bracket(a["a"], a["b"])),
    }),
    "d": _tensor_op(_NAME, lambda a: exterior_derivative(a["name"])),
    "liederiv": _tensor_op((("x", "vector field", _T), ("k", "tensor", _T)),
                           lambda a: lie_derivative(a["x"], a["k"])),
    "covd": _tensor_op((("conn", "connection", ("connection",)),
                        ("x", "vector field", _T), ("y", "vector field", _T)),
                       lambda a: covariant_derivative(a["conn"], a["x"], a["y"])),
    "degree": Form(_NAME, _run_degree, (_C,)),
    "eval": Form(_NAME, _run_eval, body=_eval_body),
    "check": Choice("check kind", "check kind", {
        "poisson": _check(_A, (), lambda env, a: is_poisson(a["a"])),
        "weighted": _check(_A, (_K, _C), lambda env, a: is_weighted_tensor(
            a["a"], a["k"], component=a["component"])),
        "nijenhuis": _check(_A, (), lambda env, a: is_nijenhuis(a["a"])),
        "weighted-poisson": _check(_A, (_K, _C), lambda env, a: is_weighted_poisson(
            a["a"], a["k"], component=a["component"])),
        "weighted-nijenhuis": _check(_A, (_C,), lambda env, a: is_weighted_nijenhuis(
            a["a"], component=a["component"])),
        "almost-complex": _check(_A, (), lambda env, a: is_almost_complex(a["a"])),
        "almost-product": _check(_A, (), lambda env, a: is_almost_product(a["a"])),
        "almost-tangent": _check(_A, (), lambda env, a: is_almost_tangent(a["a"])),
        "pn": _check(_AB, (_K, _C), lambda env, a: is_weighted_pn(
            a["a"], a["b"], a["k"], component=a["component"])),
        "involutive": _check(_DIST, (), lambda env, a: is_involutive(a["a"], seed=env.seed)),
        "weighted-distribution": _check(_DIST, (_C,), lambda env, a: is_weighted_distribution(
            a["a"], component=a["component"], seed=env.seed)),
        "contact": _check(_A, (_K, ("n", _REQUIRED), _C), lambda env, a: is_weighted_contact(
            a["a"], a["k"], a["n"], component=a["component"])),
    }),
    "oracle": Choice("oracle kind", "oracle form", {
        "lift": Form((("name", "function name", _T),), _run_oracle_lift,
                     (("lambda", _REQUIRED), _R)),
        "concomitant": Form(tuple((key, "name", _T) for key in
                                  ("lam", "n", "alpha", "beta")),
                            _run_oracle_concomitant),
        "spotcheck": Form(_AB, _run_oracle_spotcheck),
    }),
    "print": Form((("name", "name", ("chart", "tensor", "dist", "connection")),),
                  _run_print),
}


def execute(script: Script, seed: int = 0):
    """Run a parsed script.

    Returns (records, exit_code): 0 clean, 1 some check failed, 3 a
    semantic error stopped execution (the error is the last record).
    """
    env = _Env(seed)
    records = []
    any_check_failed = False
    for st in script.statements:
        t0 = time.perf_counter()
        a = dict(st.args)
        for key, _, _ in st.form.args:
            a[key] = env.objects[a[key]]
        try:
            out = st.form.run(st, env, a)
        except GradcalcError as e:
            msg = e.args[0] if e.args else str(e)
            out = ("error", False,
                   {"error": {"kind": "semantic", "line": st.line, "message": msg}},
                   [f"semantic error at line {st.line}: {msg}"])
        rec = OutputRecord._make((st.src, *out, (time.perf_counter() - t0) * 1000.0))
        records.append(rec)
        if rec.kind == "error":
            return records, 3
        if rec.is_check and not rec.ok:
            any_check_failed = True
    return records, 1 if any_check_failed else 0


def records_to_json(records: list) -> dict:
    return json_document(records=[r.to_json() for r in records])
