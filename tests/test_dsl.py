"""Script language: grammar, diagnostics, records, exit codes, CLI."""

import argparse
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradcalc
from gradcalc import __version__, cli, dsl
from gradcalc.charts import make_chart
from gradcalc.cli import main
from gradcalc.dsl import execute, parse, records_to_json
from gradcalc.errors import DslError
from gradcalc.render import dumps, json_document, render_tensor
from gradcalc.sampling import (random_form, random_multivector, random_one_form,
                               random_tensor, random_vector_field)
from gradcalc.suite import criterion_weight_commute, suite_to_json
from gradcalc.tensor import TensorField, tagged, tensor_product

CLEAN = """\
chart M { x:0, y:1 }
fn f on M = x^2 + 1/2
vf X on M = x*d/dy
form w on M = dx ^^ dy
tensor(2,0) antisym L on M = d/dx ^^ d/dy
lift X lambda=1 r=1 as XL
prolong M r=1 as M1
bracket lie X X as Z
d f as df
liederiv X f as Lf
degree XL
eval f at (x=2, y=1)
check weighted-poisson L k=1
check poisson L
print X
oracle lift f lambda=1 r=1
oracle spotcheck X X
"""


def run(text, seed=0):
    return execute(parse(text), seed=seed)


def test_clean_script_exit_zero():
    records, code = run(CLEAN)
    assert code == 0
    assert all(r.ok for r in records)
    kinds = [r.kind for r in records]
    assert kinds == ["chart", "decl", "decl", "decl", "decl", "lift",
                     "prolong", "bracket", "d", "liederiv", "degree",
                     "eval", "check", "check", "print", "oracle", "oracle"]


def test_record_texts_frozen():
    records, _ = run(CLEAN)
    by_stmt = {r.stmt: r for r in records}
    assert by_stmt["chart M { x:0, y:1 }"].text == ["chart M: x:0, y:1"]
    assert by_stmt["fn f on M = x^2 + 1/2"].text == ["f = x^2 + 1/2"]
    assert by_stmt["lift X lambda=1 r=1 as XL"].text == ["x*d/dy + x_1*d/dy_1"]
    assert by_stmt["prolong M r=1 as M1"].text == ["prolonged chart with 4 variables"]
    assert by_stmt["bracket lie X X as Z"].text == ["0"]
    assert by_stmt["d f as df"].text == ["2*x*dx"]
    assert by_stmt["liederiv X f as Lf"].text == ["0"]
    assert by_stmt["degree XL"].text == ["degree = -1"]
    assert by_stmt["eval f at (x=2, y=1)"].text == ["9/2"]
    assert by_stmt["check weighted-poisson L k=1"].text == ["check weighted-poisson: PASS"]
    assert by_stmt["print X"].text == ["x*d/dy"]
    assert by_stmt["oracle lift f lambda=1 r=1"].text == ["oracle lift: agree", "2*x*x_1"]
    assert by_stmt["oracle spotcheck X X"].text == ["oracle spotcheck: agree"]


def test_records_to_json_shape():
    records, _ = run(CLEAN)
    doc = records_to_json(records)
    assert sorted(doc.keys()) == ["gradcalc_version", "records", "schema"]
    assert doc["gradcalc_version"] == __version__
    assert doc["schema"] == 1
    assert len(doc["records"]) == len(records)
    decl = doc["records"][1]
    assert decl["kind"] == "decl" and decl["name"] == "f"
    assert decl["result"]["valence"] == [0, 0]
    assert decl["result"]["components"] == [{"up": [], "down": [],
                                             "coef": "x^2 + 1/2"}]
    lift = doc["records"][5]
    assert lift["result"]["text"] == "x*d/dy + x_1*d/dy_1"
    prolong = doc["records"][6]
    assert prolong["result"]["label"] == "M^T1"
    assert [v["name"] for v in prolong["result"]["vars"]] == ["x", "y", "x_1", "y_1"]


def test_form_decl_is_antisym_tagged():
    records, _ = run(CLEAN)
    doc = records_to_json(records)
    form = doc["records"][3]
    assert form["result"]["cov_sym"] == "antisym"
    assert form["result"]["text"] == "dx ^^ dy"
    tens = doc["records"][4]
    assert tens["result"]["contra_sym"] == "antisym"


def test_check_pass_payload():
    records, _ = run(CLEAN)
    rep = [r for r in records if r.kind == "check"][0].payload["check"]
    assert rep["verdict"] == "pass"
    assert rep["degrees"] == {"expected": -1, "computed": "-1"}
    assert rep["probabilistic"] is False


def test_json_output_is_deterministic_and_untimed():
    a = json.dumps(records_to_json(run(CLEAN, seed=3)[0]))
    b = json.dumps(records_to_json(run(CLEAN, seed=3)[0]))
    assert a == b
    doc = json.loads(a)
    for rec in doc["records"]:
        assert "ms" not in rec


def test_failed_check_exits_one():
    records, code = run("""chart W { x:0, y:2 }
tensor(2,0) antisym L on W = y * d/dx ^^ d/dy
check weighted-poisson L k=2
""")
    assert code == 1
    rec = records[-1]
    assert rec.kind == "check" and not rec.ok
    assert rec.text == ["check weighted-poisson: FAIL (component (x,y;) = 2*y)"]
    rep = rec.payload["check"]
    assert rep["verdict"] == "fail"
    assert rep["witness"] == "component (x,y;) = 2*y"
    assert rep["degrees"] == {"expected": -2, "computed": "0"}


def test_runtime_valence_misuse_is_semantic_exit_three():
    # f resolves as a tensor name, so the bad bracket only fails when run
    records, code = run("""chart M { x:0 }
fn f on M = x
bracket lie f f as g
""")
    assert code == 3
    rec = records[-1]
    assert rec.kind == "error" and not rec.ok
    assert rec.text == ["semantic error at line 3: lie_bracket needs two vector fields"]
    assert rec.payload == {"error": {"kind": "semantic", "line": 3,
                                     "message": "lie_bracket needs two vector fields"}}


ORDER_PRELUDE = """\
chart M { x:0 }
fn f on M = x
vf X on M = x^3*d/dx
connection G on M { G x x x = 1 }
"""

# Every r= of a script reaches one bound: (line 5, exit code, message of
# the error record or None).  r=101 is rejected before anything of that
# order is built, and a huge order before any of its names is listed.
ORDER_BOUND = [
    ("prolong M r=101", 3, "order r=101 exceeds the limit 100"),
    ("prolong M r=100000000", 3, "order r=100000000 exceeds the limit 100"),
    ("lift X lambda=1 r=101", 3, "order r=101 exceeds the limit 100"),
    ("lift-connection G r=101", 3, "order r=101 exceeds the limit 100"),
    ("oracle lift f lambda=1 r=101", 3, "order r=101 exceeds the limit 100"),
    ("prolong M r=100", 0, None),
]


@pytest.mark.parametrize("line,code,message", ORDER_BOUND)
def test_order_bound(line, code, message):
    records, got = run(ORDER_PRELUDE + line + "\n")
    assert got == code
    if message is not None:
        assert records[-1].payload == {"error": {"kind": "semantic", "line": 5,
                                                 "message": message}}


def _order_forms() -> list:
    """The statement words of every form that takes an r= parameter."""
    out = []
    for word, form in dsl._COMMANDS.items():
        forms = form.forms.items() if isinstance(form, dsl.Choice) else [("", form)]
        out += [f"{word} {kind}".split() for kind, f in forms
                if any(key == "r" for key, _ in f.params)]
    return out


def test_every_order_form_has_an_order_bound_row():
    rejected = [line.split() for line, code, _ in ORDER_BOUND if "r=101" in line and code == 3]
    assert _order_forms() and all(
        any(words[:len(form)] == form for words in rejected) for form in _order_forms())


def test_huge_prolong_order_parses_without_listing_names():
    # level names are tested by the naming rule, so parsing costs the same
    # at every r
    text = "chart M { x:0, y:0 }\nprolong M r=100000000 as M1\nfn f on M1 = x_99999999 + y_1\n"
    tracemalloc.start()
    try:
        parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    with pytest.raises(DslError, match="x_0100 not in M1"):
        parse(text.replace("x_99999999", "x_0100"))


# Every power a^e of a script is bounded by the term count its result may
# reach, C(e+t-1, t-1) for a t-term base: (line 2, exit code, message).
# The count depends on t and e only, so (x+x^2+x^3+x^4)^40 stands in for
# (x+y+z+1)^40 (both 12,341) without its four seconds of arithmetic.  A
# 199-term square may have 19,900 terms and a 200-term square 20,100.
# A power within the term count is also bounded by the estimated work of
# its repeated squaring: (x+1)^19999 has 20,000 terms but huge coefficients.
POWER_BOUND = {
    "four-terms^60": ("fn f on M = (x+y+z+1)^60", 3, "power ^60 of a 4-term "
                      "polynomial may have 39711 terms, which exceeds the limit 20000"),
    "four-terms^40": ("fn f on M = (x+x^2+x^3+x^4)^40", 0, None),
    "200-terms^2": ("fn f on M = (" + "+".join(f"x^{i}" for i in range(1, 201)) + ")^2",
                    3, "power ^2 of a 200-term polynomial may have 20100 terms, "
                    "which exceeds the limit 20000"),
    "199-terms^2": ("fn f on M = (" + "+".join(f"x^{i}" for i in range(1, 200)) + ")^2",
                    0, None),
    "one-term": ("fn f on M = x^500 - 2*(y*z)^300", 0, None),
    "zero": ("fn f on M = (x - x)^100000", 0, None),
    "two-terms^19999": ("fn f on M = (x+1)^19999", 3, "power ^19999 of a 2-term "
                        "polynomial may take 25251803092 weighted term products, "
                        "which exceeds the limit 50000000"),
    # ^1 and ^0 build nothing larger than their base, however long
    "20001-terms^1": ("fn f on M = (" + "+".join(f"x^{i}" for i in range(20001)) + ")^1",
                      0, None),
    # a sum checks each term at its own +, so the first error is reported
    "error-before-power": ("fn f on M = x + dx + (x+y+z+1)^60", 3,
                           "valence mismatch: (0,0) vs (0,1)"),
}


def _chain(n: int, signs=("*",)) -> str:
    """A statement multiplying n factors x+1, the product signs taken in turn."""
    return "fn f on M = (x+1)" + "".join(f"{signs[i % len(signs)]}(x+1)" for i in range(n - 1))


# Every product of an expression is bounded too: a work meter adds up
# what its powers and its products * ox ^^ may take, in the unit of the
# power bound, and the expression exits 3 once the sum passes the same
# limit.  So these rows are rejected after the products within the
# limit, not before any.  A chain of 4,000 factors x+1, (x+1)^4000 in
# 20 KB of text, ran for 15.6 s and 8,000 for 83 s.
PRODUCT_BOUND = {
    "1000-factors": (_chain(1000), 0, None),
    "4000-factors": (_chain(4000), 3, "the products of this expression may take "
                     "50067008 weighted term products, which exceeds the limit 50000000"),
    # between scalars, ox and ^^ are the same products as *
    "4000-factors-ox-wedge": (_chain(4000, ("*", " ox ", " ^^ ")), 3, "the products of "
                              "this expression may take 50059006 weighted term products, "
                              "which exceeds the limit 50000000"),
}


@pytest.mark.parametrize("row", [*POWER_BOUND, *PRODUCT_BOUND])
def test_power_bound(row):
    line, code, message = POWER_BOUND.get(row) or PRODUCT_BOUND[row]
    start = time.perf_counter()
    records, got = run("chart M { x:0, y:0, z:0 }\n" + line + "\n")
    assert got == code
    if message is not None:
        # a power is rejected before any multiplication, a chain long
        # before its last
        assert time.perf_counter() - start < (1.0 if row in POWER_BOUND else 10.0)
        assert records[-1].payload == {"error": {"kind": "semantic", "line": 2,
                                                 "message": message}}


LIFT_PRELUDE = """\
chart M { x:0, y:0, z:0 }
fn f on M = x^3*y^3*z^3 + x*y*z
connection C on M { G x x y = x^3*y^3 }
dist D on M = span(x^3*y^3*z^3*d/dx, d/dy)
chart P { """ + ", ".join(f"v{i}:0" for i in range(700)) + """ }
fn p on P = """ + "*".join(f"v{i}" for i in range(700)) + """
"""

# Every lift of a script is bounded by what its lifts at levels 0..r may
# store: each term weighted by its prolonged variables and its indices
# (lifts._lift_sizes; the Taylor oracle weighs its untruncated
# substitution the same way): (line 7, exit code, message).  Without the
# bound, r=30 took 7 s and lift-connection at r=60 took 33 s; r=100 did
# not finish.  A product of 700 variables at r=2 has few terms for their
# length, and ran out of 1.5 GB of address space.
LIFT_BOUND = {
    "lift-30": ("lift f lambda=30 r=30", 3, "a lift to order r=30 may store 24728802 "
                "variables and indices in 2751282 terms, which exceeds the limit 4000000"),
    "lift-100": ("lift f lambda=100 r=100", 3, "a lift to order r=100 may store "
                 "257081997072 variables and indices in 28564784242 terms, which exceeds "
                 "the limit 4000000"),
    "lift-lambda-0": ("lift f lambda=0 r=30", 3, "a lift to order r=30 may store 24728802 "
                      "variables and indices in 2751282 terms, which exceeds the limit "
                      "4000000"),
    "connection-60": ("lift-connection C r=60", 3, "a lift to order r=60 may store "
                      "2337649248 variables and indices in 292206156 terms, which exceeds "
                      "the limit 4000000"),
    "distribution-30": ("lift D r=30", 3, "a lift to order r=30 may store 120445391 "
                        "variables and indices in 12044567 terms, which exceeds the limit "
                        "4000000"),
    "oracle-6": ("oracle lift f lambda=6 r=6", 3, "a lift to order r=6 may store 5335365 "
                 "variables and indices in 593047 terms, which exceeds the limit 4000000"),
    "product-700": ("lift p lambda=2 r=2", 3, "a lift to order r=2 may store 172235700 "
                    "variables and indices in 246051 terms, which exceeds the limit 4000000"),
    "lift-10": ("lift f lambda=10 r=10", 0, None),
    "connection-10": ("lift-connection C r=10", 0, None),
    "distribution-10": ("lift D r=10", 0, None),
    "oracle-2": ("oracle lift f lambda=2 r=2", 0, None),
    "oracle-5": ("oracle lift f lambda=5 r=5", 0, None),
    "product-700-r0": ("lift p lambda=0 r=0", 0, None),
}


@pytest.mark.parametrize("line,code,message", LIFT_BOUND.values(), ids=LIFT_BOUND)
def test_lift_bound(line, code, message):
    start = time.perf_counter()
    records, got = run(LIFT_PRELUDE + line + "\n")
    assert got == code
    if message is not None:
        # rejected before any lifting
        assert time.perf_counter() - start < 1.0
        assert records[-1].payload == {"error": {"kind": "semantic", "line": 7,
                                                 "message": message}}


# The Taylor oracle builds the powers of a variable's image, r+1 terms, up
# to the variable's top power, so its work is bounded as a power's is
# (dsl._power_work): (exponent of x at r=1, exit code, message).  x^3000
# took 7.6 s and x^400000, within the term bound, ran past 20 s.
ORACLE_WORK_BOUND = {
    "x^400000": (400000, 3, "oracle lift to order r=1 may take 190116861450836 weighted "
                 "term products, which exceeds the limit 50000000"),
    "x^3000": (3000, 3, "oracle lift to order r=1 may take 87355130 weighted term "
               "products, which exceeds the limit 50000000"),
    "x^500": (500, 0, None),
}


@pytest.mark.parametrize("e,code,message", ORACLE_WORK_BOUND.values(), ids=ORACLE_WORK_BOUND)
def test_oracle_lift_work_bound(e, code, message):
    start = time.perf_counter()
    records, got = run(f"chart M {{ x:0 }}\nfn f on M = x^{e}\noracle lift f lambda=1 r=1\n")
    assert got == code
    if message is None:
        assert records[-1].payload["agree"] is True
    else:
        # rejected before the substitution
        assert time.perf_counter() - start < 1.0
        assert records[-1].payload == {"error": {"kind": "semantic", "line": 3,
                                                 "message": message}}


# Numbers past the interpreter's int <-> str digit limit, and powers too big
# to build, end in exit 3 (2 for a literal) with a message, never in a
# traceback: (script, exit code, line, message).  The limit is pinned to
# its default, 4300, for these tests.
_PRINT_LIMIT = ("a number of more than 4300 digits cannot be printed: 4300 is "
                "the interpreter's limit (sys.get_int_max_str_digits())")
DIGIT_BOUND = {
    "coefficient": ("chart M { x:0 }\nfn f on M = 7^6000*x\n", 3, 2, _PRINT_LIMIT),
    "value": ("chart M { x:0 }\nfn f on M = x^20000\neval f at (x=3/2)\n", 3, 3,
              _PRINT_LIMIT),
    "exponent": ("chart M { x:0 }\nfn f on M = (x^" + "9" * 4300 + ")^2\n", 3, 2,
                 _PRINT_LIMIT),
    "power": ("chart M { x:0 }\nfn f on M = x^99999999999999999999\neval f at (x=2)\n",
              3, 3, "the powers of one term at this point may have "
              "99999999999999999999 bits, which exceeds the limit 4194304"),
    "power-memory": ("chart M { x:0 }\nfn f on M = x^999999999999\neval f at (x=2)\n",
                     3, 3, "the powers of one term at this point may have "
                     "999999999999 bits, which exceeds the limit 4194304"),
    # a weight and an exponent of 4,000 digits each: a degree of 8,000
    "degree": ("chart M { x:" + "9" * 4000 + " }\nfn f on M = x^" + "9" * 4000 +
               "\ndegree f\n", 3, 3, _PRINT_LIMIT),
    "check-degree": ("chart M { x:" + "9" * 4000 + " }\nfn f on M = x^" + "9" * 4000 +
                     "\ncheck weighted f k=" + "9" * 4000 + "\n", 3, 3, _PRINT_LIMIT),
    "literal": ("chart M { x:0 }\nfn f on M = " + "1" * 5000 + "*x\n", 2, 2,
                "an integer of 5000 digits exceeds the limit 4300 "
                "(sys.get_int_max_str_digits())"),
}


@pytest.fixture
def default_digit_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int <-> str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("text,code,line,message", DIGIT_BOUND.values(), ids=DIGIT_BOUND)
def test_digit_and_power_bounds_json(text, code, line, message, tmp_path, capsys,
                                     default_digit_limit):
    path = _write(tmp_path, text)
    start = time.perf_counter()
    assert main(["run", path, "--format", "json"]) == code
    assert time.perf_counter() - start < 1.0
    doc = json.loads(capsys.readouterr().out)
    if code == 2:
        assert doc["error"] == {"kind": "lexical", "line": line, "col": 13,
                                "message": message}
    else:
        assert doc["records"][-1]["error"] == {"kind": "semantic", "line": line,
                                               "message": message}


@pytest.mark.parametrize("text,code,line,message", DIGIT_BOUND.values(), ids=DIGIT_BOUND)
def test_digit_and_power_bounds_text(text, code, line, message, tmp_path, capsys,
                                     default_digit_limit):
    path = _write(tmp_path, text)
    assert main(["run", path]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert (out, err) == ("", f"lexical error at line {line}, col 13: {message}\n")
    else:
        assert err == ""
        assert out.splitlines()[-1] == f"    semantic error at line {line}: {message}"


def test_semantic_error_stops_the_run():
    records, code = run("""chart M { x:0 }
fn f on M = x
bracket lie f f as g
print f
""")
    assert code == 3
    assert records[-1].kind == "error"
    assert all(r.kind != "print" for r in records)


def test_lexical_diagnostic():
    with pytest.raises(DslError) as ei:
        run("chart M { x:0 }\nfn f on M = x @ 2\n")
    e = ei.value
    assert (e.kind, e.line, e.col) == ("lexical", 2, 15)
    assert str(e) == "lexical error at line 2, col 15: unexpected character '@'"


def test_syntax_diagnostic():
    with pytest.raises(DslError) as ei:
        run("chart M { x:0")
    e = ei.value
    assert (e.kind, e.line, e.col) == ("syntax", 1, 14)
    assert e.args[0] == "unterminated chart block"


def test_name_diagnostics():
    with pytest.raises(DslError) as ei:
        run("chart M { x:0 }\nd A as w\n")
    e = ei.value
    assert (e.kind, e.line, e.col) == ("name", 2, None)
    assert str(e) == "name error at line 2: 'A' is not defined"

    with pytest.raises(DslError) as ei:
        run("chart M { x:0 }\nfn f on M = x\nfn f on M = x^2\n")
    assert ei.value.args[0] == "'f' is already defined"
    assert ei.value.line == 3

    with pytest.raises(DslError) as ei:
        run("chart M { x:0 }\nfn f on M = z\n")
    e = ei.value
    assert (e.kind, e.line, e.col) == ("name", 2, 13)
    assert e.args[0] == "z not in M"


def test_wrong_kind_is_a_name_error():
    with pytest.raises(DslError) as ei:
        run("chart M { x:0 }\nfn f on M = x\nbracket lie M f as g\n")
    e = ei.value
    assert e.kind == "name" and e.line == 3
    assert e.args[0] == "'M' is a chart, expected tensor"


def test_unicode_operator_aliases():
    records, code = run("""chart M { x:0, y:0 }
form a on M = dx ∧ dy
tensor(0,2) t on M = dx ⊗ dy
print a
print t
""")
    assert code == 0
    assert records[-2].text == ["dx ^^ dy"]
    assert records[-1].text == ["dx ox dy"]


def test_multi_component_weights_and_fractions():
    records, code = run("""chart B { x:(1,0), u:(2,1), v:(-3,1) }
fn f on B = -1/3*x^2 + u
eval f at (x=3, u=1, v=0)
degree f
""")
    assert code == 0
    assert records[0].text == ["chart B: x:[1, 0], u:[2, 1], v:[-3, 1]"]
    assert records[2].text == ["-2"]
    assert records[3].text == ["degree = 2"]


def test_render_parse_round_trip():
    M = make_chart(["x", "y", "z"], [0, 1, 2], label="M")
    rng = random.Random(2026)
    for _ in range(150):
        q = rng.choice([0, 1, 2])
        p = rng.choice([0, 1, 2])
        t = random_tensor(rng, M, q, p, max_terms=3, max_degree=2)
        s = render_tensor(t)
        script = (f"chart M {{ x:0, y:1, z:2 }}\n"
                  f"tensor({q},{p}) T on M = {s}\nprint T\n")
        records, code = run(script)
        assert code == 0
        assert records[-1].text == [s]
    # tagged tensors, declared again with their tag: a sym block prints as
    # the sum of its index orders, which the symmetry check accepts
    for _ in range(60):
        tag = rng.choice(["antisym", "sym"])
        q = rng.choice([0, 1, 2, 3])
        p = rng.choice([0, 1, 2, 3])
        t = tensor_product(_tagged_block(rng, M, q, True, tag),
                           _tagged_block(rng, M, p, False, tag))
        s = render_tensor(t)
        script = (f"chart M {{ x:0, y:1, z:2 }}\n"
                  f"tensor({q},{p}) {tag} T on M = {s}\nprint T\n")
        records, code = run(script)
        assert code == 0, (script, records[-1].text)
        assert records[-1].text == [s]


def test_printed_lift_declares_back():
    # the README's round trip on a large tensor: 1,527 printed terms
    prelude = ("chart M { x:0, y:0, z:0 }\nfn f on M = x^3*y^3*z^3 + x*y*z\n"
               "lift f lambda=10 r=10 as F\n")
    records, code = run(prelude + "print F\n")
    text = records[-1].text[0]
    assert code == 0 and len(re.findall(r" [+-] ", text)) + 1 == 1527
    records, code = run(prelude + f"prolong M r=10 as P\nfn G on P = {text}\n"
                        "oracle spotcheck F G\n")
    assert code == 0
    assert records[-2].text == [f"G = {text}"]
    assert records[-1].text == ["oracle spotcheck: agree"]


def _tagged_block(rng, chart, n, contra, tag):
    """A random purely contra- or covariant n-tensor, tagged when n >= 2."""
    opts = {"max_terms": 2, "max_degree": 2}
    if tag == "antisym" or n < 2:
        return (random_multivector if contra else random_form)(rng, chart, n, **opts)
    one = random_vector_field if contra else random_one_form
    out = TensorField.zero(chart, n if contra else 0, 0 if contra else n)
    for _ in range(2):
        a = power = one(rng, chart, **opts)
        for _ in range(n - 1):
            power = tensor_product(power, a)
        out = out + power
    return tagged(out, **{"contra_sym" if contra else "cov_sym": "sym"})


def test_zero_literal_adopts_declared_valence():
    records, code = run("""chart M { x:0 }
tensor(2,2) T on M = 0
print T
degree T
""")
    assert code == 0
    assert records[-2].text == ["0"]
    assert records[-1].text == ["degree = any (zero tensor)"]
    doc = records_to_json(records)
    assert doc["records"][1]["result"]["valence"] == [2, 2]


def test_comments_and_blank_lines_are_skipped():
    records, code = run("""# a comment

chart M { x:0 }   # trailing comment
fn f on M = x
""")
    assert code == 0
    assert [r.kind for r in records] == ["chart", "decl"]


def test_parse_rejects_unknown_statement():
    with pytest.raises(DslError) as ei:
        parse("chart M { x:0 }\nfrobnicate M\n")
    assert ei.value.kind == "syntax"


def _write(tmp_path, text):
    p = tmp_path / "s.gc"
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_cli_text_format(tmp_path, capsys):
    path = _write(tmp_path, CLEAN)
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "[ok " in out and "ms]" in out
    assert "check weighted-poisson: PASS" in out


def test_cli_json_format_and_exit_code(tmp_path, capsys):
    path = _write(tmp_path, """chart W { x:0, y:2 }
tensor(2,0) antisym L on W = y * d/dx ^^ d/dy
check weighted-poisson L k=2
""")
    assert main(["run", path, "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["records"][-1]["ok"] is False


def test_cli_json_is_byte_identical(tmp_path, capsys):
    path = _write(tmp_path, CLEAN)
    main(["run", path, "--format", "json", "--seed", "5"])
    first = capsys.readouterr().out
    main(["run", path, "--format", "json", "--seed", "5"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_parse_error_json(tmp_path, capsys):
    path = _write(tmp_path, "chart M { x:0")
    assert main(["run", path, "--format", "json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == {"kind": "syntax", "line": 1, "col": 14,
                            "message": "unterminated chart block"}


def test_cli_parse_error_text_goes_to_stderr(tmp_path, capsys):
    path = _write(tmp_path, "chart M { x:0")
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "syntax error at line 1, col 14" in err


def test_cli_missing_file(capsys):
    assert main(["run", "/no/such/file.gc"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_file_not_utf8(tmp_path, capsys):
    p = tmp_path / "bad.gc"
    p.write_bytes(b"chart M { x:0 } # \xff\xfe\n")
    for fmt in ("text", "json"):
        assert main(["run", str(p), "--format", fmt]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"gradcalc: cannot read {p}: not valid UTF-8\n"


def test_cli_stdin_not_utf8(monkeypatch, capsys):
    # a strict stdin fails to decode; a surrogateescape one (the default
    # under a C locale) passes the bytes on as lone surrogates
    for errors in ("strict", "surrogateescape"):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(b"chart M { x:0 } # \xff\xfe\n"), encoding="utf-8",
            errors=errors))
        assert main(["run", "-", "--format", "json"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "gradcalc: cannot read -: not valid UTF-8\n"


def test_cli_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("chart M { x:0 }\nfn f on M = x\nprint f\n"))
    assert main(["run", "-"]) == 0
    assert "x" in capsys.readouterr().out


def test_declaration_on_prolonged_chart_alias(monkeypatch, capsys):
    prelude = "chart M { x:0 }\nprolong M r=1 as M1\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(prelude + "fn f on M1 = x_1\nprint f\n"))
    assert main(["run", "-"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].strip() == "x_1"
    monkeypatch.setattr("sys.stdin", io.StringIO(prelude + "fn g on M1 = x_2\n"))
    assert main(["run", "-"]) == 2
    assert "x_2 not in M1" in capsys.readouterr().err


def _fresh_process_run(path: str) -> str:
    src = str(Path(gradcalc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "gradcalc.cli", "run", path,
                           "--format", "json"], capture_output=True, text=True,
                          env=env, check=False)
    return proc.stdout


def test_every_sampled_entry_point_defaults_to_one_count(tmp_path, capsys):
    # sampling.SAMPLES is the one count: no sampled entry point takes a
    # count, the CLI has no option for one, and both point draws give SAMPLES
    from gradcalc import checkers, oracle, sampling
    for fn, params in ((sampling.sample_points, ["chart", "seed"]),
                       (oracle._spot_points, ["chart", "seed"]),
                       (checkers.is_involutive, ["d", "seed"]),
                       (checkers.is_weighted_distribution, ["d", "component", "seed"]),
                       (oracle.identity_spot_check, ["lhs", "rhs", "seed"]),
                       (dsl.execute, ["script", "seed"])):
        assert list(inspect.signature(fn).parameters) == params
    E3 = make_chart(["x", "y", "z"], [0, 0, 0])
    for seed in (0, 7):
        assert len(sampling.sample_points(E3, seed)) == sampling.SAMPLES
        assert len(oracle._spot_points(E3, seed)) == sampling.SAMPLES
    path = _write(tmp_path, CLEAN)
    with pytest.raises(SystemExit) as ei:
        main(["run", path, "--samples", "3"])
    assert ei.value.code == 2
    assert "unrecognized arguments: --samples 3" in capsys.readouterr().err


def test_cli_docstring_synopsis_matches_the_parser():
    # a flag the parser drops must leave the documented synopsis too
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command in ("run", "check-suite"):
        line, = [ln for ln in cli.__doc__.splitlines()
                 if ln.strip().startswith(f"gradcalc {command} ")]
        options = {opt for action in sub.choices[command]._actions
                   for opt in action.option_strings if opt not in ("-h", "--help")}
        assert set(re.findall(r"--[a-z][a-z-]*", line)) == options


def test_cli_parser_is_shared_and_stateless(tmp_path, capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    path = _write(tmp_path, CLEAN)
    fresh = _fresh_process_run(path)
    seen = []
    real_execute = cli.execute

    def spy(script, seed):
        seen.append(seed)
        return real_execute(script, seed=seed)

    monkeypatch.setattr(cli, "execute", spy)
    main(["run", path, "--format", "json", "--seed", "7"])
    with pytest.raises(SystemExit) as ei:
        main(["run", path, "--seed", "x"])
    assert ei.value.code == 2
    capsys.readouterr()
    assert main(["run", path, "--format", "json"]) == 0
    assert capsys.readouterr().out == fresh
    assert seen == [7, 0]
    # a text run leaves nothing behind for the json run that follows
    assert main(["run", path, "--format", "text"]) == 0
    assert capsys.readouterr().out.startswith("[ok ")
    assert main(["run", path, "--format", "json"]) == 0
    assert capsys.readouterr().out == fresh


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
    assert capsys.readouterr().out.strip() == f"gradcalc {__version__}"


def test_cli_out_of_range_component_is_semantic_error(tmp_path, capsys):
    for check in ("weighted-poisson L k=1", "weighted L k=1", "pn L J k=1",
                  "weighted-nijenhuis J"):
        path = _write(tmp_path, "chart M { x:0, y:1 }\n"
                                "tensor(2,0) antisym L on M = d/dx ^^ d/dy\n"
                                "tensor(1,1) J on M = 0\n"
                                f"check {check} component=1\n")
        assert main(["run", path, "--format", "json"]) == 3
        rec = json.loads(capsys.readouterr().out)["records"][-1]
        assert rec["error"] == {"kind": "semantic", "line": 4,
                                "message": "no such grading component"}


# -- the command table ---------------------------------------------------------

DIAG_PRELUDE = """\
chart M { x:0, y:1 }
fn f on M = x
vf X on M = x*d/dy
tensor(2,0) antisym L on M = d/dx ^^ d/dy
tensor(1,1) J on M = d/dx ox dx
dist D on M = span(d/dx)
connection G on M { G x x x = 1 }
"""

# One malformed line per command form and failure mode: missing name,
# wrong-kind name, unknown sub-kind, missing or misspelt key=, trailing
# input, and `as` where the form takes no alias.  Each is (line, error
# kind, column, message); the line number is always 8.
DIAGNOSTICS = [
    ("lift", "syntax", 5, "unexpected end of line"),
    ("lift 3 r=1", "syntax", 6, "expected name, got '3'"),
    ("lift G lambda=1 r=1", "name", None, "'G' is a connection, expected tensor or dist"),
    ("lift f lambda=1", "syntax", 16, "unexpected end of line"),
    ("lift f lambda=1 rr=1", "syntax", 17, "expected 'r', got 'rr'"),
    ("lift f r=1 lambda=1", "syntax", 12, "trailing input 'lambda'"),
    ("lift f lambda=1 r=1 X", "syntax", 21, "trailing input 'X'"),
    ("lift f lambda=1 r=1 as", "syntax", 23, "unexpected end of line"),
    ("lift f lambda=1 r=1 as 3", "syntax", 24, "expected name, got '3'"),
    ("lift -", "syntax", 7, "unexpected end of line"),
    ("lift - conection G r=1", "syntax", 1, "unknown statement 'lift-conection'"),
    ("lift - connection 3 r=1", "syntax", 19, "expected connection name, got '3'"),
    ("lift - connection f r=1", "name", None, "'f' is a tensor, expected connection"),
    ("lift - connection G", "syntax", 20, "unexpected end of line"),
    ("lift - connection G r=1 as H extra", "syntax", 30, "trailing input 'extra'"),
    ("prolong 3 r=1", "syntax", 9, "expected chart name, got '3'"),
    ("prolong f r=1", "name", None, "'f' is a tensor, expected chart"),
    ("prolong M", "syntax", 10, "unexpected end of line"),
    ("prolong M r=x", "syntax", 13, "expected integer, got 'x'"),
    ("bracket", "syntax", 8, "unexpected end of line"),
    ("bracket 3 f f", "syntax", 9, "expected bracket kind, got '3'"),
    ("bracket foo f f", "syntax", 1, "unknown bracket kind 'foo'"),
    ("bracket lie f", "syntax", 14, "unexpected end of line"),
    ("bracket lie f 3", "syntax", 15, "expected name, got '3'"),
    ("bracket lie G f", "name", None, "'G' is a connection, expected tensor"),
    ("bracket lie f f f", "syntax", 17, "trailing input 'f'"),
    ("d", "syntax", 2, "unexpected end of line"),
    ("d 3", "syntax", 3, "expected name, got '3'"),
    ("d D", "name", None, "'D' is a dist, expected tensor"),
    ("d f f", "syntax", 5, "trailing input 'f'"),
    ("d f as X", "name", None, "'X' is already defined"),
    ("liederiv X", "syntax", 11, "unexpected end of line"),
    ("liederiv 3 f", "syntax", 10, "expected vector field, got '3'"),
    ("liederiv X 3", "syntax", 12, "expected tensor, got '3'"),
    ("liederiv X M", "name", None, "'M' is a chart, expected tensor"),
    ("covd 3 X X", "syntax", 6, "expected connection, got '3'"),
    ("covd G 3 X", "syntax", 8, "expected vector field, got '3'"),
    ("covd G X 3", "syntax", 10, "expected vector field, got '3'"),
    ("covd X X X", "name", None, "'X' is a tensor, expected connection"),
    ("covd G X", "syntax", 9, "unexpected end of line"),
    ("degree 3", "syntax", 8, "expected name, got '3'"),
    ("degree D", "name", None, "'D' is a dist, expected tensor"),
    ("degree f as g", "syntax", 10, "trailing input 'as'"),
    ("degree f componnt=1", "syntax", 10, "trailing input 'componnt'"),
    ("degree f component=", "syntax", 20, "unexpected end of line"),
    ("eval 3 at (x=1)", "syntax", 6, "expected name, got '3'"),
    ("eval G at (x=1)", "name", None, "'G' is a connection, expected tensor"),
    ("eval f (x=1)", "syntax", 8, "expected 'at', got '('"),
    ("eval f at (3=1)", "syntax", 12, "expected variable, got '3'"),
    ("eval f at (x=1", "syntax", 15, "unexpected end of line"),
    ("eval f at (x=1) as g", "syntax", 17, "trailing input 'as'"),
    ("eval f at (x=1, y=2, x=2)", "syntax", 22, "coordinate 'x' is given twice"),
    ("check", "syntax", 6, "unexpected end of line"),
    ("check 3 f", "syntax", 7, "expected check kind, got '3'"),
    ("check bogus f", "syntax", 1, "unknown check kind 'bogus'"),
    ("check weighted-bogus L", "syntax", 1, "unknown check kind 'weighted-bogus'"),
    ("check weighted- L", "syntax", 1, "unknown check kind 'weighted-L'"),
    ("check poisson", "syntax", 14, "unexpected end of line"),
    ("check poisson 3", "syntax", 15, "expected name, got '3'"),
    ("check poisson D", "name", None, "'D' is a dist, expected tensor"),
    ("check involutive L", "name", None, "'L' is a tensor, expected dist"),
    ("check weighted L", "syntax", 17, "unexpected end of line"),
    ("check weighted L kk=1", "syntax", 18, "expected 'k', got 'kk'"),
    ("check weighted L k=1 component=x", "syntax", 32, "expected integer, got 'x'"),
    ("check contact f k=1", "syntax", 20, "unexpected end of line"),
    ("check contact f n=1 k=1", "syntax", 17, "expected 'k', got 'n'"),
    ("check poisson L k=1", "syntax", 17, "trailing input 'k'"),
    ("check poisson L as Q", "syntax", 17, "trailing input 'as'"),
    # only weighted, weighted-poisson, weighted-nijenhuis, pn,
    # weighted-distribution and contact take a grading component
    ("check poisson L component=0", "syntax", 17, "trailing input 'component'"),
    ("check nijenhuis J component=0", "syntax", 19, "trailing input 'component'"),
    ("check almost-complex J component=0", "syntax", 24, "trailing input 'component'"),
    ("check almost-product J component=0", "syntax", 24, "trailing input 'component'"),
    ("check almost-tangent J component=0", "syntax", 24, "trailing input 'component'"),
    ("check involutive D component=7", "syntax", 20, "trailing input 'component'"),
    ("check pn L", "syntax", 11, "unexpected end of line"),
    ("check pn L D k=1", "name", None, "'D' is a dist, expected tensor"),
    ("oracle", "syntax", 7, "unexpected end of line"),
    ("oracle 3", "syntax", 8, "expected oracle kind, got '3'"),
    ("oracle bogus f", "syntax", 1, "unknown oracle form 'bogus'"),
    ("oracle lift 3 lambda=1 r=1", "syntax", 13, "expected function name, got '3'"),
    ("oracle lift f r=1", "syntax", 15, "expected 'lambda', got 'r'"),
    ("oracle lift f lambda=1 r=1 as g", "syntax", 28, "trailing input 'as'"),
    ("oracle concomitant L J f", "syntax", 25, "unexpected end of line"),
    ("oracle spotcheck 3 f", "syntax", 18, "expected name, got '3'"),
    ("fn g on M = x + )", "syntax", 17, "unexpected ')' in expression"),
    ("oracle spotcheck X G", "name", None, "'G' is a connection, expected tensor"),
    ("print", "syntax", 6, "unexpected end of line"),
    ("print 3", "syntax", 7, "expected name, got '3'"),
    ("print Zz", "name", None, "'Zz' is not defined"),
    ("print f g", "syntax", 9, "trailing input 'g'"),
    ("print f as g", "syntax", 9, "trailing input 'as'"),
    ("frob f", "syntax", 1, "unknown statement 'frob'"),
    # declarations: missing name or `on`, unknown or wrong-kind chart, a
    # variable, d/dq or connection index not in the chart, unterminated
    # or empty block, negative valence (reported at the keyword, also
    # after leading whitespace), missing span, redefinition, trailing input
    ("chart", "syntax", 6, "unexpected end of line"),
    ("chart 3 { z:0 }", "syntax", 7, "expected chart name, got '3'"),
    ("chart N z:0 }", "syntax", 9, "expected '{', got 'z'"),
    ("chart N { z }", "syntax", 13, "expected ':', got '}'"),
    ("chart N { 3:0 }", "syntax", 11, "expected variable name, got '3'"),
    ("chart N { z:a }", "syntax", 13, "expected integer, got 'a'"),
    ("chart N { z:(1,0 }", "syntax", 18, "expected ')', got '}'"),
    ("chart N { z:0", "syntax", 14, "unterminated chart block"),
    ("chart N { z:0, z:1 }", "syntax", 16, "variable 'z' is given twice"),
    ("chart N { z:0, z:(0,1) }", "syntax", 16, "variable 'z' is given twice"),
    ("chart N { z:0 w:1 }", "syntax", 15, "expected ',' or '}', got 'w'"),
    ("connection H on M { G x x x = 1 G x x x = x }", "syntax", 33,
     "expected ',' or '}', got 'G'"),
    ("connection H on M { G x x x = 1, G x x x = -1 }", "syntax", 34,
     "symbol 'G x x x' is given twice"),
    ("connection H on M { G x x y = 1, G y x x = 2, G x x y = x }", "syntax", 47,
     "symbol 'G x x y' is given twice"),
    ("chart N { }", "syntax", 1, "chart declares no variables"),
    ("chart N { } x", "syntax", 13, "trailing input 'x'"),
    ("chart M { z:0 }", "name", None, "'M' is already defined"),
    ("chart f { z:(1,0) }", "name", None, "'f' is already defined"),
    ("   chart N { }", "syntax", 4, "chart declares no variables"),
    ("fn", "syntax", 3, "unexpected end of line"),
    ("fn 3 on M = x", "syntax", 4, "expected name, got '3'"),
    ("fn g M = x", "syntax", 6, "expected 'on', got 'M'"),
    ("fn g on Q = x", "name", None, "'Q' is not defined"),
    ("fn g on f = x", "name", None, "'f' is a tensor, expected chart"),
    ("fn g on M x", "syntax", 11, "expected equals, got 'x'"),
    ("fn g on M = z", "name", 13, "z not in M"),
    ("fn f on M = x", "name", None, "'f' is already defined"),
    ("fn X on M = z", "name", 13, "z not in M"),
    ("fn g on M = x x", "syntax", 15, "trailing input 'x'"),
    ("vf", "syntax", 3, "unexpected end of line"),
    ("vf Y on M = d/dq", "name", 13, "q not in M"),
    ("vf Y on D = d/dx", "name", None, "'D' is a dist, expected chart"),
    ("vf X on M = d/dx", "name", None, "'X' is already defined"),
    ("form", "syntax", 5, "unexpected end of line"),
    ("form w on M = dq", "name", 15, "dq not in M"),
    ("form w on M = dx dy", "syntax", 18, "trailing input 'dy'"),
    ("form L on M = dx", "name", None, "'L' is already defined"),
    ("tensor", "syntax", 7, "unexpected end of line"),
    ("tensor 2,0) T on M = 0", "syntax", 8, "expected '(', got '2'"),
    ("tensor(2 0) T on M = 0", "syntax", 10, "expected ',', got '0'"),
    ("tensor(2,0 T on M = 0", "syntax", 12, "expected ')', got 'T'"),
    ("tensor(-1,0) T on M = 0", "syntax", 1, "tensor valence must be non-negative"),
    ("tensor(0,-1) sym T on M = 0", "syntax", 1, "tensor valence must be non-negative"),
    ("   tensor(0,-1) T on M = 0", "syntax", 4, "tensor valence must be non-negative"),
    ("tensor(2,0) sym on M = 0", "syntax", 20, "expected 'on', got 'M'"),
    ("tensor(2,0) antisym T on D = 0", "name", None, "'D' is a dist, expected chart"),
    ("tensor(2,0) sym T on M = d/dz ox d/dx", "name", 26, "z not in M"),
    ("tensor(1,1) J on M = 0", "name", None, "'J' is already defined"),
    ("tensor(1,1) T on M = 0 J", "syntax", 24, "trailing input 'J'"),
    ("dist", "syntax", 5, "unexpected end of line"),
    ("dist E M = span(d/dx)", "syntax", 8, "expected 'on', got 'M'"),
    ("dist E on G = span(d/dx)", "name", None, "'G' is a connection, expected chart"),
    ("dist E on M = d/dx", "syntax", 15, "expected 'span', got 'd/dx'"),
    ("dist E on M = span d/dx", "syntax", 20, "expected '(', got 'd/dx'"),
    ("dist E on M = span(d/dx", "syntax", 24, "unexpected end of line"),
    ("dist E on M = span(d/dx, d/dz)", "name", 26, "z not in M"),
    ("dist D on M = span(d/dx)", "name", None, "'D' is already defined"),
    ("dist E on M = span(d/dx) x", "syntax", 26, "trailing input 'x'"),
    ("connection", "syntax", 11, "unexpected end of line"),
    ("connection H M { G x x x = 1 }", "syntax", 14, "expected 'on', got 'M'"),
    ("connection H on X { G x x x = 1 }", "name", None, "'X' is a tensor, expected chart"),
    ("connection H on M G x x x = 1 }", "syntax", 19, "expected '{', got 'G'"),
    ("connection H on M { H x x x = 1 }", "syntax", 21, "expected 'G', got 'H'"),
    ("connection H on M { G x x = 1 }", "syntax", 27, "expected lower index, got '='"),
    ("connection H on M { G x x x 1 }", "syntax", 29, "expected equals, got '1'"),
    ("connection H on M { G x x x = 1", "syntax", 32, "unterminated connection block"),
    ("connection H on M { G x x z = 1 }", "name", None, "z not in M"),
    ("connection H on M { G z x x = q }", "name", None, "z not in M"),
    ("connection H on M { G x x x = q, G z x x = 1 }", "name", 31, "q not in M"),
    ("connection G on M { G z x x = 1 }", "name", None, "z not in M"),
    ("connection G on M { G x x x = 1 }", "name", None, "'G' is already defined"),
    ("connection H on M { } x", "syntax", 23, "trailing input 'x'"),
    ("fn f on M = 1/0", "syntax", 15, "division by zero"),
    ("fn g on M = " + "(" * 101 + "x" + ")" * 101, "syntax", 113,
     "parentheses nested deeper than 100"),
    ("eval f at (x=1/0)", "syntax", 16, "division by zero"),
]


def _var(name, col):
    return ("var", name, 1, col)


def _dvf(name, col):
    return ("dvf", name, 1, col)


ADD, SUB, MUL, OX, WEDGE, NEG = ("add",), ("sub",), ("mul",), ("ox",), ("wedge",), ("neg",)

# (text, postfix program, names in order): each operand's instructions come
# before the operator that takes them, and a chain of one level folds left.
EXPRESSION_PROGRAMS = [
    ("-x*y^2 + dx ox dy ^^ dz - 1/2*x",
     [_var("x", 2), NEG, _var("y", 4), ("pow", 2), MUL,
      _var("dx", 10), _var("dy", 16), _var("dz", 22), WEDGE, OX, ADD,
      ("num", Fraction(1, 2)), _var("x", 31), MUL, SUB],
     [_var("x", 2), _var("y", 4), _var("dx", 10), _var("dy", 16),
      _var("dz", 22), _var("x", 31)]),
    ("d/dx ^^ d/dy ox x*d/dz - (x - y)^2*dx",
     [_dvf("x", 1), _dvf("y", 9), WEDGE, _var("x", 17), _dvf("z", 19), MUL, OX,
      _var("x", 27), _var("y", 31), SUB, ("pow", 2), _var("dx", 36), MUL, SUB],
     [_dvf("x", 1), _dvf("y", 9), _var("x", 17), _dvf("z", 19), _var("x", 27),
      _var("y", 31), _var("dx", 36)]),
    ("a - b - c ox d ^^ e * -f ^ 3",
     [_var("a", 1), _var("b", 5), SUB, _var("c", 9), _var("d", 14), _var("e", 19),
      _var("f", 24), ("pow", 3), NEG, MUL, WEDGE, OX, SUB],
     [_var(n, c) for n, c in zip("abcdef", (1, 5, 9, 14, 19, 24))]),
    pytest.param("x" + " - x" * 2999,
                 [_var("x", 1)] + [ins for c in range(5, 12_000, 4) for ins in (_var("x", c), SUB)],
                 [_var("x", c) for c in range(1, 12_000, 4)], id="long-chain"),
    pytest.param("-" * 2000 + "x^2 * y", [_var("x", 2001), ("pow", 2)] + [NEG] * 2000
                 + [_var("y", 2007), MUL], [_var("x", 2001), _var("y", 2007)],
                 id="unary-chain"),
]


@pytest.mark.parametrize("text,program,names", EXPRESSION_PROGRAMS)
def test_expression_programs_pinned(text, program, names):
    # + - loosest, then ox, then ^^, then *; unary minus and ^ bind tighter
    p = dsl._Parser(dsl._lex_line(text, 1), 1, text)
    assert p.expr() == program
    p.done()
    assert [ins for ins in program if ins[0] in ("var", "dvf")] == names


# Operand chains of any length parse, resolve and run without recursing
# per operand: (line 2, the declared function's text).
LONG_EXPRESSIONS = {
    "sum-3000": ("fn f on M = " + " + ".join(f"x^{i}" for i in range(3000, 0, -1)),
                 " + ".join(f"x^{i}" for i in range(3000, 1, -1)) + " + x"),
    "minus-2000": ("fn f on M = " + "-" * 2000 + "x", "x"),
    "product-1500": ("fn f on M = " + "*".join(["x"] * 1500), "x^1500"),
    "nesting-100": ("fn f on M = " + "(" * 100 + "x - y" + ")" * 100, "x - y"),
}


@pytest.mark.parametrize("line,text", LONG_EXPRESSIONS.values(), ids=LONG_EXPRESSIONS)
def test_long_expressions_run(line, text):
    records, code = run("chart M { x:0, y:0 }\n" + line + "\n")
    assert code == 0
    assert records[-1].text == [f"f = {text}"]


def test_a_sum_adds_polynomials_a_number_of_times_independent_of_its_length(monkeypatch):
    # the terms of a sum are summed once, not folded one + at a time
    calls = []
    add = gradcalc.Poly.__add__

    def counted(self, other):
        calls.append(1)
        return add(self, other)

    monkeypatch.setattr(gradcalc.Poly, "__add__", counted)
    counts = []
    for n in (10, 10_000):
        calls.clear()
        terms = " + ".join(f"x^{i}*y^{i % 7}" for i in range(n))
        assert run("chart M { x:0, y:0 }\nfn f on M = " + terms + "\n")[1] == 0
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_deepest_nesting_runs_through_the_cli(tmp_path):
    path = _write(tmp_path, "chart M { x:0 }\nfn f on M = " + "(" * 100 + "x" + ")" * 100
                  + "\nprint f\n")
    assert json.loads(_fresh_process_run(path))["records"][-1]["result"]["text"] == "x"


@pytest.mark.parametrize("line,kind,col,message", DIAGNOSTICS)
def test_command_diagnostics(line, kind, col, message):
    with pytest.raises(DslError) as ei:
        parse(DIAG_PRELUDE + line + "\n")
    e = ei.value
    assert (e.kind, e.line, e.col, e.args[0]) == (kind, 8, col, message)


DECLARED = """\
chart B { x:(1,0), y:(0,1), z:(-1,2) }
fn f on B = x*z + 1/3
vf X on B = x*d/dx - z*d/dy
form w on B = dx ^^ dz + y*dy ^^ dz
tensor(0,2) sym g on B = dx ox dz + dz ox dx + 2*dy ox dy
dist D on B = span(d/dx, x*d/dz)
connection C on B { G x y z = x, G z z z = -1/2 }
print C
"""


def _tensor_json(valence, components, text, cov_sym="none"):
    return {"type": "tensor", "valence": valence, "contra_sym": "none",
            "cov_sym": cov_sym,
            "components": [{"up": up, "down": down, "coef": coef}
                           for up, down, coef in components],
            "text": text}


def test_declaration_records_frozen():
    records, code = run(DECLARED)
    assert code == 0
    assert [r.text for r in records] == [
        ["chart B: x:[1, 0], y:[0, 1], z:[-1, 2]"],
        ["f = x*z + 1/3"],
        ["X = x*d/dx - z*d/dy"],
        ["w = dx ^^ dz + y*dy ^^ dz"],
        ["g = dx ox dz + dz ox dx + 2*dy ox dy"],
        ["D = span of 2 fields"],
        ["C: connection with 2 symbols"],
        ["G x_dot y z_dot = x", "G z_dot z z_dot = -1/2"],
    ]
    stmts = DECLARED.splitlines()
    expected = [
        {"kind": "chart", "ok": True, "name": "B",
         "result": {"type": "chart", "label": "B",
                    "vars": [{"name": "x", "weights": [1, 0]},
                             {"name": "y", "weights": [0, 1]},
                             {"name": "z", "weights": [-1, 2]}],
                    "n_graded": [False, True]}},
        {"kind": "decl", "ok": True, "name": "f", "result": _tensor_json(
            [0, 0], [([], [], "x*z + 1/3")], "x*z + 1/3")},
        {"kind": "decl", "ok": True, "name": "X", "result": _tensor_json(
            [1, 0], [(["x"], [], "x"), (["y"], [], "-z")], "x*d/dx - z*d/dy")},
        {"kind": "decl", "ok": True, "name": "w", "result": _tensor_json(
            [0, 2], [([], ["x", "z"], "1"), ([], ["y", "z"], "y")],
            "dx ^^ dz + y*dy ^^ dz", cov_sym="antisym")},
        {"kind": "decl", "ok": True, "name": "g", "result": _tensor_json(
            [0, 2], [([], ["x", "z"], "1"), ([], ["y", "y"], "2")],
            "dx ox dz + dz ox dx + 2*dy ox dy", cov_sym="sym")},
        {"kind": "dist", "ok": True, "name": "D", "generators": [
            _tensor_json([1, 0], [(["x"], [], "1")], "d/dx"),
            _tensor_json([1, 0], [(["z"], [], "x")], "x*d/dz")]},
        {"kind": "connection", "ok": True, "name": "C", "symbols": 2},
        {"kind": "print", "ok": True, "symbols": 2},
    ]
    # compared as JSON text, so the key order is pinned too
    doc = records_to_json(records)
    assert json.dumps(doc["records"]) == json.dumps(
        [{"stmt": stmt, **rec} for stmt, rec in zip(stmts, expected)])


@pytest.mark.parametrize("block,count", [
    ("{ }", 0), ("{ G x x x = 0 }", 0), ("{ , G x x x = 1, , }", 1),
    ("{ G x x y = x, G y x x = 2 - 2 }", 1), ("{ G x x y = x, G y x x = 2 }", 2),
])
def test_connection_declaration_reports_what_it_stores(block, count):
    records, code = run(f"chart M {{ x:0, y:0 }}\nconnection C on M {block}\nprint C\n")
    assert code == 0
    assert records[1].text == [f"C: connection with {count} symbols"]
    assert records[1].payload["symbols"] == records[2].payload["symbols"] == count
    assert (records[2].text == ["flat connection"]) == (count == 0)


RUNNER_PRELUDE = """\
chart M { x:0, y:1 }
vf X on M = x*d/dy
fn h on M = x + y
vf Z on M = 0
tensor(2,0) antisym L on M = x*d/dx ^^ d/dy
tensor(1,1) N on M = y*d/dx ox dy + d/dy ox dx
form a on M = x*dy
form b on M = dx + dy
dist D on M = span(d/dx, x*d/dy)
chart Q { x:0, y:1 }
vf W on Q = d/dx
"""


def _semantic(message):
    """The exit code, record and text of a semantic error on the statement
    after RUNNER_PRELUDE."""
    line = RUNNER_PRELUDE.count("\n") + 1
    return (3, {"kind": "error", "ok": False,
                "error": {"kind": "semantic", "line": line, "message": message}},
            [f"semantic error at line {line}: {message}"])


# The last statement's exit code, full JSON record (without "stmt") and
# text lines, for runner branches the other tests do not reach.
RUNNER_RECORDS = {
    "oracle-concomitant": ("oracle concomitant L N a b", 0, {
        "kind": "oracle", "ok": True, "oracle": "koszul-concomitant", "agree": True,
        "result": _tensor_json([0, 1], [([], ["x"], "-x"), ([], ["y"], "x*y")],
                               "-x*dx + x*y*dy")},
        ["oracle concomitant: agree", "-x*dx + x*y*dy"]),
    "print-chart": ("print M", 0, {
        "kind": "print", "ok": True,
        "result": {"type": "chart", "label": "M",
                   "vars": [{"name": "x", "weights": [0]},
                            {"name": "y", "weights": [1]}],
                   "n_graded": [True]}},
        ["<M {x:0, y:1}>"]),
    "print-dist": ("print D", 0, {
        "kind": "print", "ok": True, "generators": [
            _tensor_json([1, 0], [(["x"], [], "1")], "d/dx"),
            _tensor_json([1, 0], [(["y"], [], "x")], "x*d/dy")]},
        ["d/dx", "x*d/dy"]),
    # a zero scalar stands for the zero vector field, as in `vf Z on M = 0`
    "dist-zero-generator": ("dist E on M = span(d/dx, 0, x - x)", 0, {
        "kind": "dist", "ok": True, "name": "E", "generators": [
            _tensor_json([1, 0], [(["x"], [], "1")], "d/dx"),
            _tensor_json([1, 0], [], "0"), _tensor_json([1, 0], [], "0")]},
        ["E = span of 3 fields"]),
    "dist-scalar-generator": ("dist E on M = span(d/dx, x)",
                              *_semantic("generators must be vector fields")),
    "lift-dist-lambda": ("lift D lambda=1 r=1",
                         *_semantic("distributions lift wholesale: drop lambda=")),
    "lift-tensor-no-lambda": ("lift X r=1", *_semantic("tensor lifts need lambda=")),
    "degree-inhomogeneous": ("degree h", 0,
                             {"kind": "degree", "ok": True, "degree": None},
                             ["not homogeneous"]),
    "eval-zero": ("eval Z at (x=1, y=2)", 0,
                  {"kind": "eval", "ok": True, "values": []}, ["0"]),
    "oracle-spotcheck-disagree": ("oracle spotcheck a b", 1, {
        "kind": "oracle", "ok": False, "oracle": "spot-check", "check": {
            "verdict": "fail", "witness": "component (;x) is 0 vs 1 at (x=1/2, y=-5/2)",
            "probabilistic": True, "seed": 0}},
        ["oracle spotcheck: DISAGREE (component (;x) is 0 vs 1 at (x=1/2, y=-5/2))"]),
    "oracle-lift-not-function": ("oracle lift X lambda=1 r=1",
                                 *_semantic("oracle lift takes a function")),
    "christoffel-not-scalar": ("connection C on M { G x x y = dx }",
                               *_semantic("Christoffel symbols must be scalar")),
    "form-valence": ("form v on M = d/dx", *_semantic("form v has valence (1,0)")),
    "declared-valence": ("vf Y on M = dx", *_semantic(
        "Y evaluates to valence (0,1), declared (1, 0)")),
    "form-retagged-antisym": ("form w on M = dx ox dy - dy ox dx", 0, {
        "kind": "decl", "ok": True, "name": "w",
        "result": _tensor_json([0, 2], [([], ["x", "y"], "1")], "dx ^^ dy",
                               cov_sym="antisym")},
        ["w = dx ^^ dy"]),
    "chart-weight-lengths": ("chart P { x:0, y:(0,1) }",
                             *_semantic("inconsistent weight vector lengths")),
    # Q has M's table, but charts compare by identity
    "bracket-two-charts": ("bracket lie X W",
                           *_semantic("tensors live on different charts")),
    "scalar-on-the-right": ("vf V on M = d/dy * x", 0, {
        "kind": "decl", "ok": True, "name": "V",
        "result": _tensor_json([1, 0], [(["y"], [], "x")], "x*d/dy")},
        ["V = x*d/dy"]),
    "tensor-times-tensor": ("form u on M = dx * dy", *_semantic(
        "* multiplies by scalars; use ox or ^^ for tensors")),
    "tensor-power": ("vf V on M = (d/dx)^2", *_semantic(
        "^ takes scalar bases; tensor powers are not defined")),
    "wedge-scalar-first": ("form u on M = x ^^ dy", 0, {
        "kind": "decl", "ok": True, "name": "u",
        "result": _tensor_json([0, 1], [([], ["y"], "x")], "x*dy")},
        ["u = x*dy"]),
    "wedge-scalar-last": ("form u on M = dy ^^ x", 0, {
        "kind": "decl", "ok": True, "name": "u",
        "result": _tensor_json([0, 1], [([], ["y"], "x")], "x*dy")},
        ["u = x*dy"]),
}


@pytest.mark.parametrize("line,code,record,text", RUNNER_RECORDS.values(),
                         ids=RUNNER_RECORDS)
def test_runner_records_pinned(line, code, record, text):
    records, got = run(RUNNER_PRELUDE + line + "\n")
    assert got == code
    assert len(records) == RUNNER_PRELUDE.count("\n") + 1
    # compared as JSON text, so the key order is pinned too
    assert json.dumps(records[-1].to_json()) == json.dumps({"stmt": line, **record})
    assert records[-1].text == text


CHECK_PRELUDE = """\
chart M { x:0, y:1 }
chart C { t:2, u:1, v:1 }
tensor(2,0) antisym L on M = d/dx ^^ d/dy
tensor(1,1) J on M = d/dx ox dx
dist D on M = span(d/dx, x*d/dy)
form a on C = dt + u*dv
"""

CHECK_LINES = {
    "poisson": "check poisson L",
    "weighted": "check weighted L k=1",
    "nijenhuis": "check nijenhuis J",
    "weighted-poisson": "check weighted-poisson L k=1",
    "weighted-nijenhuis": "check weighted-nijenhuis J",
    "almost-complex": "check almost-complex J",
    "almost-product": "check almost-product J",
    "almost-tangent": "check almost-tangent J",
    "pn": "check pn L J k=1",
    "involutive": "check involutive D",
    "weighted-distribution": "check weighted-distribution D",
    "contact": "check contact a k=2 n=1",
}


def _check_kinds() -> list:
    return list(dsl._COMMANDS["check"].forms)


def test_every_check_kind_runs():
    assert sorted(CHECK_LINES) == sorted(_check_kinds())
    for kind in _check_kinds():
        records, code = run(CHECK_PRELUDE + CHECK_LINES[kind] + "\n")
        assert code in (0, 1), kind
        rec = records[-1]
        assert rec.kind == "check" and rec.is_check
        assert rec.text[0].startswith(f"check {kind}: ")


def _readme() -> str:
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_readme_lists_the_check_kinds():
    listed = re.search(r"Check kinds:(.*?)\.\s", _readme(), re.S).group(1)
    assert re.findall(r"`([a-z-]+)`", listed) == _check_kinds()


def test_readme_lists_the_statement_keywords():
    block = re.search(r"## Script language.*?```\n(.*?)```", _readme(), re.S).group(1)
    keywords = []
    for line in block.splitlines():
        for word in re.match(r"[a-z|-]+", line).group().split("|"):
            if word not in keywords:
                keywords.append(word)
    assert keywords == list(dsl._COMMANDS)


# -- the JSON writer -----------------------------------------------------------
#
# render.dumps must equal json.dumps(doc, indent=2), kept here as the
# reference, on every document the CLI prints.

_chars = st.characters() | st.sampled_from(
    ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "\u2028", "Ä", "∧",
     "\U0001f600"])
_text = st.text(_chars, max_size=8)
_leaves = (st.none() | st.booleans() | st.integers(-1000, 1000)
           | st.integers(-10 ** 40, 10 ** 40) | _text)
_docs = st.recursive(
    _leaves,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(_text, kids, max_size=4),
    max_leaves=25)


@given(_docs)
@settings(max_examples=100, deadline=None)
def test_dumps_equals_json_dumps(doc):
    assert dumps(doc) == json.dumps(doc, indent=2)


def test_dumps_empty_containers_and_scalars():
    for doc in ({}, [], [{}], {"a": []}, {"": {"": [[], {}]}}, "", 0, -1,
                True, False, None, 2 ** 100, -(2 ** 100)):
        assert dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("bad", [0.5, Fraction(1, 2), {"x": [1.0]}, (1, 2),
                                 {1: "int key"}, {"x": {1, 2}}])
def test_dumps_rejects_other_types(bad):
    with pytest.raises(TypeError):
        dumps(bad)


def test_dumps_whole_documents(tmp_path, capsys):
    poisson = Path(__file__).resolve().parents[1] / "demos" / "poisson.gc"
    records, _ = execute(parse(poisson.read_text(encoding="utf-8")))
    doc = records_to_json(records)
    assert dumps(doc) == json.dumps(doc, indent=2)

    path = _write(tmp_path, "chart Ä { x:0 }\n")
    with pytest.raises(DslError) as ei:
        parse("chart Ä { x:0 }\n")
    e = ei.value
    doc = json_document(error={"kind": e.kind, "line": e.line, "col": e.col,
                               "message": e.args[0]})
    assert "Ä" in e.args[0]
    assert main(["run", path, "--format", "json"]) == 2
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
    assert dumps(doc) == json.dumps(doc, indent=2)

    doc = suite_to_json([criterion_weight_commute(42)], 42)
    assert dumps(doc) == json.dumps(doc, indent=2)
