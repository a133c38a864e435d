"""The record classes behave as the dataclasses they replace.

Every record is a `collections.namedtuple`; a validating one subclasses
its named tuple and overrides `__new__` and `_make`.  Each keeps a
dataclass's construction (positional or keyword, same defaults, the
same validation), its field-wise ==, hash and repr, and read-only
fields.  A record also equals the plain tuple of its fields.  No
named-tuple path (`_replace`, `_make`, copy, pickle) builds a validating
record that its constructor would refuse, and every record class in a
gradcalc module is in RECORDS.  Expected values are written out here,
not read from the classes.
"""

import copy
import importlib
import pickle
import pkgutil

import pytest

import gradcalc
from gradcalc import dsl
from gradcalc.charts import make_chart
from gradcalc.checkers import BundleMap, CheckReport, Distribution, Section
from gradcalc.dsl import Choice, CmdStmt, Form, OutputRecord, Script, Token
from gradcalc.errors import ChartMismatchError, GradcalcError, ValenceError
from gradcalc.poly import Poly
from gradcalc.suite import CriterionResult
from gradcalc.tensor import coordinate_one_form, coordinate_vector_field

M = make_chart(["x", "y"], [0, 1], label="M")
N = make_chart(["u"], [0], label="N")
DX = coordinate_vector_field(M, "x")
FORM = Form((("name", "name", ("tensor",)),), len)

# (class, frozen, a value for each field in declaration order, defaults,
#  (field, another value) for an unequal record)
RECORDS = {
    "CheckReport": (CheckReport, True,
                    {"verdict": True, "witness": "w", "degrees": None, "seed": 3},
                    {"witness": None, "degrees": None, "seed": None},
                    ("seed", 4)),
    "Distribution": (Distribution, True, {"chart": M, "generators": (DX,)}, {},
                     ("generators", ())),
    "Section": (Section, True,
                {"chart": M, "vb_component": 0, "values": {1: Poly.const(M, 2)},
                 "graded_component": 1},
                {"graded_component": 0}, ("vb_component", 1)),
    "BundleMap": (BundleMap, True, {"matrix": ((1, 0), (0, 1)), "report": None}, {},
                  ("matrix", ())),
    "CmdStmt": (CmdStmt, True,
                {"op": "print", "form": FORM, "args": {"name": "f"}, "line": 3,
                 "src": "print f"},
                {}, ("line", 4)),
    "Script": (Script, True, {"statements": ("a", "b")}, {}, ("statements", ())),
    "Form": (Form, True,
             {"args": (), "run": len, "params": (("r", 1),), "body": repr,
              "binds": "chart"},
             {"params": (), "body": dsl._command_body, "binds": None},
             ("binds", None)),
    "Choice": (Choice, True,
               {"label": "kind", "noun": "check", "forms": {"a": FORM}}, {},
               ("noun", "oracle")),
    "OutputRecord": (OutputRecord, True,
                     {"stmt": "print f", "kind": "print", "ok": True,
                      "payload": {"k": 1}, "text": ["f"], "ms": 2.5},
                     {"payload": {}, "text": [], "ms": 0.0}, ("ok", False)),
    "CriterionResult": (CriterionResult, True,
                        {"label": "c1", "ok": True, "cases": 7, "detail": "d",
                         "ms": 1.5},
                        {"ms": 0.0}, ("cases", 8)),
}

records = pytest.mark.parametrize("cls,frozen,fields,defaults,changed",
                                  RECORDS.values(), ids=RECORDS)


def _hash_or_error(x):
    try:
        return hash(x)
    except TypeError as e:
        return type(e)


@records
def test_positional_and_keyword_construction(cls, frozen, fields, defaults, changed):
    a = cls(*fields.values())
    b = cls(**fields)
    for name, value in fields.items():
        assert getattr(a, name) is value and getattr(b, name) is value
    assert a == b


@records
def test_defaults(cls, frozen, fields, defaults, changed):
    required = [v for k, v in fields.items() if k not in defaults]
    r = cls(*required)
    for name, value in defaults.items():
        assert getattr(r, name) == value and type(getattr(r, name)) is type(value)
    with pytest.raises(TypeError):
        cls(*required[:-1])
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


@records
def test_fields_read_only_when_frozen(cls, frozen, fields, defaults, changed):
    r = cls(*fields.values())
    for name in fields:
        if frozen:
            with pytest.raises(AttributeError):
                setattr(r, name, 0)
            with pytest.raises(AttributeError):
                delattr(r, name)
            assert getattr(r, name) is fields[name]
        else:
            setattr(r, name, 0)
            assert getattr(r, name) == 0
    if frozen:
        with pytest.raises(AttributeError):
            r.extra = 1


@records
def test_fieldwise_eq_hash_repr(cls, frozen, fields, defaults, changed):
    r = cls(*fields.values())
    same = cls(*fields.values())
    other = cls(**{**fields, changed[0]: changed[1]})
    assert r == same and not r != same
    assert r != other and not r == other
    # a named tuple equals the plain tuple of its fields
    assert (r == tuple(fields.values())) is issubclass(cls, tuple)
    assert r.__eq__(object()) is NotImplemented
    if frozen:
        assert _hash_or_error(r) == _hash_or_error(tuple(fields.values()))
    else:
        with pytest.raises(TypeError):
            hash(r)
    body = ", ".join(f"{k}={v!r}" for k, v in fields.items())
    assert repr(r) == f"{cls.__name__}({body})"


def test_repr_pinned():
    assert repr(CheckReport(True, seed=3)) == \
        "CheckReport(verdict=True, witness=None, degrees=None, seed=3)"
    assert repr(OutputRecord("s", "eval", True)) == \
        "OutputRecord(stmt='s', kind='eval', ok=True, payload={}, text=[], ms=0.0)"


def test_validation_errors():
    with pytest.raises(GradcalcError, match="failing check must carry a witness"):
        CheckReport(False)
    assert not CheckReport(False, "w")
    with pytest.raises(ValenceError, match="generators must be vector fields"):
        Distribution(M, (coordinate_one_form(M, "x"),))
    with pytest.raises(ChartMismatchError):
        Distribution(N, (DX,))


def test_output_record_defaults_are_fresh():
    a = OutputRecord("s", "eval", True)
    b = OutputRecord("s", "eval", True)
    a.payload["k"] = 1
    a.text.append("line")
    assert b.payload == {} and b.text == []
    assert a.payload is not b.payload and a.text is not b.text


@pytest.mark.parametrize("r", [
    CheckReport(False, "w", None, 3), Script(("a",)),
    OutputRecord("s", "eval", True, {"k": 1}, ["t"], 1.0),
    CriterionResult("c", True, 2, "d"), Token("ident", "x", 1, 2),
], ids=lambda r: type(r).__name__)
def test_copy_and_pickle(r):
    for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert twin == r and type(twin) is type(r)


def test_token_is_a_named_tuple():
    t = Token("ident", "x", 1, 2)
    assert isinstance(t, tuple) and t == ("ident", "x", 1, 2)
    assert Token._fields == ("kind", "text", "line", "col")
    assert (t.kind, t.text, t.line, t.col) == ("ident", "x", 1, 2)
    assert repr(t) == "Token(kind='ident', text='x', line=1, col=2)"
    assert dsl._lex_line("x", 1) == [t[:2] + (1, 1)]
    assert type(dsl._lex_line("x", 1)[0]) is Token


def test_parse_records_are_named_tuples():
    assert CmdStmt._fields == ("op", "form", "args", "line", "src")
    assert Form._fields == ("args", "run", "params", "body", "binds")
    assert Choice._fields == ("label", "noun", "forms")
    assert Form._field_defaults == {"params": (), "body": dsl._command_body,
                                    "binds": None}
    assert Choice._field_defaults == {}
    form = Form((), len)
    assert isinstance(form, tuple) and form == ((), len, (), dsl._command_body, None)
    with pytest.raises(AttributeError):
        form.binds = "tensor"
    assert repr(Choice("kind", "check", {"a": form})) == (
        "Choice(label='kind', noun='check', forms={'a': Form(args=(), "
        f"run={len!r}, params=(), body={dsl._command_body!r}, binds=None)}})")


# (a valid record, fields that its constructor refuses, that refusal)
VALIDATING = {
    "CheckReport": (CheckReport(True), {"verdict": False},
                    (GradcalcError, "failing check must carry a witness")),
    "Distribution": (Distribution(M, (DX,)),
                     {"generators": (coordinate_one_form(M, "x"),)},
                     (ValenceError, "generators must be vector fields")),
}

validating = pytest.mark.parametrize("r,bad,refusal", VALIDATING.values(),
                                     ids=VALIDATING)


@validating
def test_no_named_tuple_path_builds_an_invalid_record(r, bad, refusal):
    cls = type(r)
    with pytest.raises(refusal[0], match=refusal[1]):
        r._replace(**bad)
    with pytest.raises(refusal[0], match=refusal[1]):
        cls._make(tuple({**r._asdict(), **bad}.values()))
    for twin in (r._replace(), cls._make(r)):
        assert twin == r and type(twin) is cls


@validating
def test_copy_and_pickle_build_through_the_constructor(r, bad, refusal, monkeypatch):
    cls = type(r)
    new = cls.__new__
    calls = []

    def counted(c, *args, **kwargs):
        calls.append(args)
        return new(c, *args, **kwargs)

    monkeypatch.setattr(cls, "__new__", counted)
    for dup in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        calls.clear()
        twin = dup(r)
        assert type(twin) is cls and len(calls) == 1 and len(calls[0]) == len(r)


def test_every_record_class_is_in_records():
    modules = [gradcalc] + [importlib.import_module(f"gradcalc.{info.name}")
                            for info in pkgutil.iter_modules(gradcalc.__path__)]
    found = {x for m in modules for x in vars(m).values() if isinstance(x, type)
             and issubclass(x, tuple) and hasattr(x, "_fields")}
    # Token has its own test above
    assert found - {Token} == {row[0] for row in RECORDS.values()}
