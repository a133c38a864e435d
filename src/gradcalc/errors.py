"""Exception types shared across the engine, and the base of its records.

Import path rule: `import gradcalc` and `import gradcalc.cli` load no
`dataclasses`, `inspect` or `typing`.  Every CLI run pays for the
import, and `dataclasses` alone (with the `inspect`, `ast`, `dis` and
`tokenize` it imports) was about two thirds of it.  So the record
classes are plain `__slots__` classes on the bases below, annotations
take their types from `collections.abc`, and
`tests/test_imports.py::test_import_path_is_light` keeps it so.
"""

from __future__ import annotations


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


class _Record:
    """Fields in __slots__; ==, repr and pickling go field by field in slot
    order, as a dataclass's do.  Defining __eq__ leaves __hash__ None, so a
    mutable record is unhashable, as a non-frozen dataclass is."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which takes the fields
        # in slot order; restoring slot state would assign frozen fields
        return self.__class__, self._values()


class _Frozen(_Record):
    """A read-only record: __init__ sets its fields with object.__setattr__;
    any later assignment or deletion raises AttributeError, and it hashes
    by its fields, as a frozen dataclass does."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
