"""Command line entry point.

    gradcalc run <file> [--format text|json] [--seed N]
    gradcalc check-suite [--format text|json] [--seed N]

`run -` reads the script from stdin.  Exit status: 0 clean, 1 a check
command failed, 2 the script could not be read (missing, or not
UTF-8) or did not parse (lexical, syntax or name error) or an option
was invalid, 3 a well-formed statement failed at runtime.  Sampled
checks draw sampling.SAMPLES points from --seed, so JSON output is
deterministic for a given script and seed; the text format adds
per-statement timings.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .dsl import execute, parse, records_to_json
from .errors import DslError
from .render import dumps, json_document
from .suite import render_table, run_check_suite, suite_to_json


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, so every main() call can share it."""
    ap = argparse.ArgumentParser(
        prog="gradcalc",
        description="exact tensor calculus on graded charts")
    ap.add_argument("--version", action="version",
                    version=f"gradcalc {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a script (- for stdin)")
    run.add_argument("file", help="script path, or - for stdin")
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.add_argument("--seed", type=int, default=0,
                     help="seed for sampling checks (default 0)")

    suite = sub.add_parser("check-suite", help="run the verification battery")
    suite.add_argument("--format", choices=("text", "json"), default="text")
    suite.add_argument("--seed", type=int, default=42,
                       help="master seed for the battery (default 42)")
    return ap


def _read_script(path: str) -> str | None:
    """The script text of a path or - (stdin); None after reporting why not."""
    try:
        if path == "-":
            text = sys.stdin.read()
            # a surrogateescape stdin passes bad bytes on as lone surrogates
            text.encode("utf-8")
            return text
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        reason = e.strerror
    except UnicodeError:
        reason = "not valid UTF-8"
    print(f"gradcalc: cannot read {path}: {reason}", file=sys.stderr)
    return None


def _cmd_run(args) -> int:
    text = _read_script(args.file)
    if text is None:
        return 2
    try:
        script = parse(text)
    except DslError as e:
        if args.format == "json":
            print(dumps(json_document(error={
                "kind": e.kind, "line": e.line, "col": e.col,
                "message": e.args[0]})))
        else:
            print(str(e), file=sys.stderr)
        return 2
    records, code = execute(script, seed=args.seed)
    if args.format == "json":
        print(dumps(records_to_json(records)))
    else:
        for rec in records:
            status = "ok" if rec.ok else "FAIL"
            print(f"[{status} {rec.ms:7.1f} ms] {rec.stmt}")
            for line in rec.text:
                print(f"    {line}")
    return code


def _cmd_suite(args) -> int:
    results, code = run_check_suite(args.seed)
    if args.format == "json":
        print(dumps(suite_to_json(results, args.seed)))
    else:
        print(render_table(results))
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_suite(args)


if __name__ == "__main__":
    sys.exit(main())
