"""Exception types shared across the engine.

Import path rule: `import gradcalc` and `import gradcalc.cli` load no
`dataclasses`, `inspect` or `typing`.  Every CLI run pays for the
import, and `dataclasses` alone (with the `inspect`, `ast`, `dis` and
`tokenize` it imports) was about two thirds of it.  So every record is
a `collections.namedtuple`.  A validating one subclasses its named
tuple and checks its fields in `__new__`, which copy and pickle call,
and takes `_checked_make` below as its `_make`, which `_replace` calls.
Annotations take their types from `collections.abc`, and
`tests/test_imports.py::test_import_path_is_light` keeps it so.
"""

from __future__ import annotations

__all__ = ["GradcalcError", "ChartMismatchError", "ValenceError", "DslError"]


class GradcalcError(ValueError):
    """Base class for engine errors."""


class ChartMismatchError(GradcalcError):
    """Raised when objects living on different charts are combined.

    Charts are compared by identity: two charts with identical variable
    tables are still distinct coordinate systems.
    """


class ValenceError(GradcalcError):
    """Raised when a tensor has the wrong (q, p) valence or symmetry tag."""


class DslError(GradcalcError):
    """Diagnostic for a script that cannot be parsed or resolved.

    kind distinguishes the stage that rejected the input: "lexical"
    (bad character), "syntax" (bad token sequence), or "name" (unknown
    or misused identifier).  All three stop a run with exit status 2.
    Runtime failures of well-formed scripts raise GradcalcError instead
    and exit with status 3.  line/col are 1-based when known.
    """

    def __init__(self, message: str, kind: str = "parse",
                 line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.kind = kind
        self.line = line
        self.col = col

    def __str__(self) -> str:
        loc = ""
        if self.line is not None:
            loc = f" at line {self.line}" + (f", col {self.col}" if self.col is not None else "")
        return f"{self.kind} error{loc}: {self.args[0]}"


# The _make of a validating record.  A named tuple's _replace builds its
# result through _make, which would otherwise skip the checks in __new__.
_checked_make = classmethod(lambda cls, fields: cls(*fields))
