"""Shared shapes for the three workloads.

A workload module builds a list of cases from a seed.  A case has an
optional prologue whose result (shared state, such as the lifts a battery
case reuses) is passed to each of its items.  An item is the unit that
gets a latency; it carries its known answer, fixed when the inputs were
generated, never computed by the code under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Item:
    label: str
    spec: tuple
    expected: object = None


@dataclass
class Case:
    label: str
    data: object
    items: list = field(default_factory=list)


@dataclass
class Verdict:
    """Outcome of checking one item: ok, or a reason and optional defect."""

    ok: bool
    detail: str = ""
    # set when the mismatch reproduces a defect listed in ROADMAP.md
    defect: str | None = None


OK = Verdict(True)


def combine(verdicts: list) -> Verdict:
    """One verdict for an item from several statement-level verdicts."""
    bad = [v for v in verdicts if not v.ok]
    if not bad:
        return OK
    detail = "; ".join(v.detail for v in bad)
    defect = bad[0].defect if all(v.defect for v in bad) else None
    return Verdict(False, detail, defect)
