"""Script language: grammar, diagnostics, records, exit codes, CLI."""

import json
import random

import pytest

from gradcalc import __version__
from gradcalc.charts import make_chart
from gradcalc.cli import main
from gradcalc.dsl import parse, records_to_json, run_text
from gradcalc.errors import DslError
from gradcalc.render import render_tensor
from gradcalc.sampling import random_tensor

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


def run(text, seed=0, samples=4):
    return run_text(text, seed=seed, samples=samples)


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
    a = json.dumps(records_to_json(run(CLEAN, seed=3, samples=6)[0]))
    b = json.dumps(records_to_json(run(CLEAN, seed=3, samples=6)[0]))
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
        records, code = run(script, samples=2)
        assert code == 0
        assert records[-1].text == [s]


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


def test_cli_rejects_sample_count_below_one(tmp_path, capsys):
    path = _write(tmp_path, CLEAN)
    for bad in ("0", "-1"):
        with pytest.raises(SystemExit) as ei:
            main(["run", path, "--samples", bad])
        assert ei.value.code == 2
        assert "--samples: must be at least 1" in capsys.readouterr().err


def test_cli_missing_file(capsys):
    assert main(["run", "/no/such/file.gc"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_stdin(monkeypatch, capsys):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("chart M { x:0 }\nfn f on M = x\nprint f\n"))
    assert main(["run", "-"]) == 0
    assert "x" in capsys.readouterr().out


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
    assert capsys.readouterr().out.strip() == f"gradcalc {__version__}"
