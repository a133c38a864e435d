"""Workload `script`: seeded .gc sessions run through `gradcalc run`.

Each session is a self-contained script of 15-25 statements: charts with
mixed weights, declarations, small lifts (r <= 2), eval, degree, print,
checks of most kinds and `oracle lift|concomitant|spotcheck`.  Every
verdict, degree and evaluated value is known from how the statement was
built, using only the textbook facts noted at each block, and some
failures are planted.  The session runs in-process through
`gradcalc.cli.main(["run", path, "--format", "json", "--seed", n])` with
stdout captured.  One script run is one item.

Sampled distribution checks use their generators as drawn.  When one of
them reports a definite FAIL at a point where a generator vanishes (the
generator rank drops there), the item still counts as failed; the
mismatch is reported as a reproduction of the ROADMAP defect "honest
verdicts for sampled checks" rather than as a new fault.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from gradcalc import cli

from itemtypes import OK, Case, Item, Verdict, combine

SCRIPTS = 150
MIN_STATEMENTS = 15
MAX_STATEMENTS = 25
PLANT_SHARE = 0.3
ROADMAP_RANK_DROP = ("ROADMAP 'Honest verdicts for sampled checks', false FAIL: "
                     "the witness is a point where a generator vanishes")

# -- a tiny polynomial kit, independent of gradcalc ---------------------------
# A polynomial is {exponent tuple: Fraction} over a fixed variable list.


def _rand_poly(shape: random.Random, value: random.Random, n: int,
               max_terms: int = 3, max_degree: int = 2) -> dict:
    """Same shape as gradcalc.sampling.random_poly: 1..max_terms terms,
    degree <= max_degree, nonzero integer coefficients in -3..3.  Terms
    and monomials come from `shape`, coefficients from `value`."""
    while True:
        out: dict = {}
        for _ in range(shape.randint(1, max_terms)):
            exps = [0] * n
            for _ in range(shape.randint(0, max_degree)):
                exps[shape.randrange(n)] += 1
            c = Fraction(value.choice((-3, -2, -1, 1, 2, 3)))
            key = tuple(exps)
            out[key] = out.get(key, 0) + c
        out = {k: v for k, v in out.items() if v}
        if out:
            return out


def _diff(p: dict, i: int) -> dict:
    out = {}
    for exps, c in p.items():
        if exps[i]:
            e = list(exps)
            e[i] -= 1
            out[tuple(e)] = c * exps[i]
    return out


def _evaluate(p: dict, point: list) -> Fraction:
    total = Fraction(0)
    for exps, c in p.items():
        v = c
        for x, e in zip(point, exps):
            v *= x ** e
        total += v
    return total


def _mono_text(exps: tuple, names: list) -> str:
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)


def _poly_text(p: dict, names: list) -> str:
    parts = []
    for exps, c in sorted(p.items(), reverse=True):
        mono = _mono_text(exps, names)
        a = abs(c)
        body = str(a) if not mono else (mono if a == 1 else f"{a}*{mono}")
        if parts:
            parts.append((" - " if c < 0 else " + ") + body)
        else:
            parts.append(("-" if c < 0 else "") + body)
    return "".join(parts) or "0"


def _weight(exps: tuple, weights: list) -> int:
    return sum(e * w for e, w in zip(exps, weights))


def _monomials(n: int, max_degree: int = 3) -> list:
    out = [()]
    for _ in range(n):
        out = [m + (e,) for m in out for e in range(max_degree + 1)]
    return [m for m in out if sum(m) <= max_degree]


# -- session builder -----------------------------------------------------------

XYZ = ["x", "y", "z"]


class _Session:
    """Statements plus what each one is known to answer.

    Two random streams: `shape` (set per block from a fixed design) picks
    the structure, which decides how much work a statement does; `value`
    (from the seed) picks weights, coefficients and points.
    """

    def __init__(self, value: random.Random):
        self.value = value
        self.shape = value
        self.lines: list = []
        self.expect: list = []
        self.used: dict = {}
        self.weights = [value.randint(0, 2) for _ in XYZ]
        self.k = max(self.weights)
        self.line("chart M { " + ", ".join(
            f"{n}:{w}" for n, w in zip(XYZ, self.weights)) + " }")

    def line(self, text: str, expect=None) -> None:
        self.lines.append(text)
        self.expect.append(expect)

    def name(self, prefix: str) -> str:
        n = self.used.get(prefix, 0) + 1
        self.used[prefix] = n
        return f"{prefix}{n}"

    def plant(self) -> bool:
        return self.shape.random() < PLANT_SHARE

    def coef(self) -> Fraction:
        return Fraction(self.value.choice((-3, -2, -1, 1, 2, 3)), self.value.randint(1, 2))

    def poly(self, n: int = 3, max_degree: int = 2) -> dict:
        return _rand_poly(self.shape, self.value, n, max_degree=max_degree)


def _verdict(ok: bool, probe=None) -> tuple:
    return ("verdict", ok, probe)


def _term(poly_text: str, basis: str) -> str:
    return f"({poly_text}) * {basis}"


def _block_poisson(s: _Session) -> None:
    """3D bivectors P <-> V = (P^yz, P^zx, P^xy): Jacobi holds iff V.curl V = 0."""
    rng = s.shape
    p = s.name("P")
    if s.plant():
        # V = (0, -g, 1) with dg/dx != 0 gives V.curl V = -dg/dx != 0
        g = {(rng.randint(1, 2), rng.randint(0, 1), 0): s.coef()}
        s.line(f"tensor(2,0) antisym {p} on M = d/dx ^^ d/dy + "
               + _term(_poly_text(g, XYZ), "d/dx ^^ d/dz"))
        s.line(f"check poisson {p}", _verdict(False))
        return
    if rng.random() < 0.5:
        # f d/di ^^ d/dj: V has one nonzero entry, so curl V is orthogonal to it
        i, j = sorted(rng.sample(range(3), 2))
        text = _term(_poly_text(s.poly(), XYZ), f"d/d{XYZ[i]} ^^ d/d{XYZ[j]}")
    else:
        # V = grad h has zero curl
        h = {}
        while not any(_diff(h, i) for i in range(3)):
            h = s.poly(max_degree=3)
        pairs = ("d/dy ^^ d/dz", "d/dz ^^ d/dx", "d/dx ^^ d/dy")
        text = " + ".join(_term(_poly_text(_diff(h, i), XYZ), pairs[i])
                          for i in range(3) if _diff(h, i))
    s.line(f"tensor(2,0) antisym {p} on M = {text}")
    s.line(f"check poisson {p}", _verdict(True))
    if rng.random() < 0.5:
        # the complete lift of a Poisson bivector is weighted Poisson of
        # weight r in the jet grading, with jet degree lambda - q*r = -1
        pl = s.name("PL")
        s.line(f"lift {p} lambda=1 r=1 as {pl}")
        s.line(f"degree {pl} component=1", ("degree", -1))
        s.line(f"check weighted-poisson {pl} k=1 component=1", _verdict(True))


def _block_weighted_poisson(s: _Session) -> None:
    """c*m d/di ^^ d/dj is Poisson in 3D; it is weighted of degree -k iff
    weight(m) = w_i + w_j - k.  pn(P, identity) reduces to that check."""
    rng = s.shape
    mons = _monomials(3)
    pairs = [(i, j) for i in range(3) for j in range(i + 1, 3)]
    rng.shuffle(pairs)
    for i, j in pairs:
        target = s.weights[i] + s.weights[j] - s.k
        good = [m for m in mons if _weight(m, s.weights) == target]
        if good:
            break
    else:
        return
    basis = f"d/d{XYZ[i]} ^^ d/d{XYZ[j]}"
    w = s.name("W")
    s.line(f"tensor(2,0) antisym {w} on M = "
           + _term(_poly_text({rng.choice(good): s.coef()}, XYZ), basis))
    s.line(f"degree {w}", ("degree", -s.k))
    s.line(f"check weighted-poisson {w} k={s.k}", _verdict(True))
    bad = [m for m in mons if _weight(m, s.weights) != target]
    if bad and s.plant():
        w2 = s.name("W")
        s.line(f"tensor(2,0) antisym {w2} on M = "
               + _term(_poly_text({rng.choice(bad): s.coef()}, XYZ), basis))
        s.line(f"check weighted-poisson {w2} k={s.k}", _verdict(False))
    if rng.random() < 0.5:
        ident = s.name("I")
        s.line(f"tensor(1,1) {ident} on M = d/dx ox dx + d/dy ox dy + d/dz ox dz")
        s.line(f"check pn {w} {ident} k={s.k}", _verdict(True))


def _block_nijenhuis(s: _Session) -> None:
    """diag(f_i(x_i)) has zero torsion; g(x_j) d/di ox dxi with j != i does
    not (T(d/di, d/dj) = g dg/dx_j d/di).  Constant diagonal N has degree 0;
    d/di ox dxj has degree w_j - w_i."""
    rng = s.shape
    n = s.name("N")
    if s.plant():
        i, j = rng.sample(range(3), 2)
        exps = [0, 0, 0]
        exps[j] = rng.randint(1, 2)
        g = {tuple(exps): s.coef()}
        s.line(f"tensor(1,1) {n} on M = " + _term(_poly_text(g, XYZ),
                                                 f"d/d{XYZ[i]} ox d{XYZ[i]}"))
        s.line(f"check nijenhuis {n}", _verdict(False))
    else:
        terms = []
        for i in sorted(rng.sample(range(3), rng.randint(1, 3))):
            f = s.poly(1)
            f = {tuple(e[0] if v == i else 0 for v in range(3)): c for e, c in f.items()}
            terms.append(_term(_poly_text(f, XYZ), f"d/d{XYZ[i]} ox d{XYZ[i]}"))
        s.line(f"tensor(1,1) {n} on M = " + " + ".join(terms))
        s.line(f"check nijenhuis {n}", _verdict(True))
    c = s.name("N")
    s.line(f"tensor(1,1) {c} on M = " + " + ".join(
        f"{s.coef()} * d/d{v} ox d{v}" for v in XYZ))
    s.line(f"check weighted-nijenhuis {c}", _verdict(True))
    unequal = [(i, j) for i in range(3) for j in range(3)
               if s.weights[i] != s.weights[j]]
    if unequal and s.plant():
        i, j = rng.choice(unequal)
        b = s.name("N")
        s.line(f"tensor(1,1) {b} on M = d/d{XYZ[i]} ox d{XYZ[j]}")
        s.line(f"check weighted-nijenhuis {b}", _verdict(False))


def _block_endomorphisms(s: _Session) -> None:
    """J = c d/dv ox du - (1/c) d/du ox dv squares to -1 on a 2D chart but
    not on a 3D one; diag(+-1) squares to 1; f d/dy ox dx squares to 0,
    d/dy ox dx + d/dx ox dy squares to the xy identity."""
    rng = s.shape
    plane = s.name("U")
    s.line(f"chart {plane} {{ u:{s.value.randint(0, 2)}, v:{s.value.randint(0, 2)} }}")
    c = s.coef()
    j = s.name("J")
    s.line(f"tensor(1,1) {j} on {plane} = {c} * d/dv ox du - {1 / c} * d/du ox dv")
    s.line(f"check almost-complex {j}", _verdict(True))
    if s.plant():
        j3 = s.name("J")
        s.line(f"tensor(1,1) {j3} on M = d/dy ox dx - d/dx ox dy")
        s.line(f"check almost-complex {j3}", _verdict(False))
    e = s.name("E")
    s.line(f"tensor(1,1) {e} on M = " + " + ".join(
        f"{s.value.choice((-1, 1))} * d/d{v} ox d{v}" for v in XYZ))
    s.line(f"check almost-product {e}", _verdict(True))
    t = s.name("T")
    if s.plant():
        s.line(f"tensor(1,1) {t} on M = d/dy ox dx + d/dx ox dy")
        s.line(f"check almost-tangent {t}", _verdict(False))
    else:
        s.line(f"tensor(1,1) {t} on M = "
               + _term(_poly_text(s.poly(), XYZ), "d/dy ox dx"))
        s.line(f"check almost-tangent {t}", _verdict(True))


def _block_distribution(s: _Session) -> None:
    """span(d/di, f d/dj) is involutive and weight-invariant (generic rank 2
    is reached wherever f != 0).  span(d/dj + x_i d/dk, d/di) has constant
    rank 2 and [.,.] = -d/dk outside it.  span(d/di + d/dj) is moved by the
    weight field when w_i != w_j."""
    rng = s.shape
    i, j, k = rng.sample(range(3), 3)
    f = s.poly()
    d = s.name("D")
    s.line(f"dist {d} on M = span(d/d{XYZ[i]}, "
           + _term(_poly_text(f, XYZ), f"d/d{XYZ[j]}") + ")")
    probe = ("rank-drop", f)
    s.line(f"check involutive {d}", _verdict(True, probe))
    if rng.random() < 0.5:
        s.line(f"check weighted-distribution {d}", _verdict(True, probe))
    if s.plant():
        c = s.name("D")
        s.line(f"dist {c} on M = span(d/d{XYZ[j]} + {XYZ[i]} * d/d{XYZ[k]}, "
               f"d/d{XYZ[i]})")
        s.line(f"check involutive {c}", _verdict(False))
    unequal = [(a, b) for a in range(3) for b in range(a + 1, 3)
               if s.weights[a] != s.weights[b]]
    if unequal and s.plant():
        a, b = rng.choice(unequal)
        e = s.name("D")
        s.line(f"dist {e} on M = span(d/d{XYZ[a]} + d/d{XYZ[b]})")
        s.line(f"check weighted-distribution {e}", _verdict(False))


def _block_contact(s: _Session) -> None:
    """On weights (a, b, a+b), dz - c*y*dx has degree a+b and
    alpha ^^ d(alpha) = -c dz^^dy^^dx != 0; dz alone has d(dz) = 0."""
    rng = s.shape
    a, b = s.value.randint(0, 2), s.value.randint(0, 2)
    chart = s.name("K")
    s.line(f"chart {chart} {{ x:{a}, y:{b}, z:{a + b} }}")
    alpha = s.name("A")
    s.line(f"form {alpha} on {chart} = dz - {s.coef()}*y*dx")
    s.line(f"check contact {alpha} k={a + b} n=1", _verdict(True))
    da = s.name("G")
    s.line(f"d {alpha} as {da}")
    s.line(f"print {da}")
    if s.plant():
        beta = s.name("A")
        s.line(f"form {beta} on {chart} = dz")
        s.line(f"check contact {beta} k={a + b} n=1", _verdict(False))


def _block_weighted(s: _Session) -> None:
    """m d/di is weighted (degree 0) iff weight(m) = w_i; m dxi with
    weight(m) + w_i = k is weighted of degree k."""
    rng = s.shape
    mons = _monomials(3)
    i = rng.randrange(3)
    good = [m for m in mons if _weight(m, s.weights) == s.weights[i]]
    x = s.name("X")
    s.line(f"vf {x} on M = " + _term(_poly_text({rng.choice(good): s.coef()}, XYZ),
                                      f"d/d{XYZ[i]}"))
    s.line(f"check weighted {x} k={s.k}", _verdict(True))
    top = s.weights.index(s.k)
    forms = [m for m in mons if _weight(m, s.weights) == 0]
    a = s.name("a")
    s.line(f"form {a} on M = " + _term(_poly_text({rng.choice(forms): s.coef()}, XYZ),
                                        f"d{XYZ[top]}"))
    s.line(f"check weighted {a} k={s.k}", _verdict(True))
    bad = [m for m in mons if _weight(m, s.weights) != s.weights[i]]
    if bad and s.plant():
        x2 = s.name("X")
        s.line(f"vf {x2} on M = " + _term(_poly_text({rng.choice(bad): s.coef()}, XYZ),
                                           f"d/d{XYZ[i]}"))
        s.line(f"check weighted {x2} k={s.k}", _verdict(False))


def _random_vf(s: _Session) -> dict:
    comps = {}
    for i in s.shape.sample(range(3), s.shape.randint(1, 2)):
        comps[i] = s.poly()
    return comps


def _vf_text(comps: dict) -> str:
    return " + ".join(_term(_poly_text(f, XYZ), f"d/d{XYZ[i]}")
                      for i, f in sorted(comps.items()))


def _block_lifts(s: _Session) -> None:
    """A nonzero field's lambda-lift has jet degree lambda - r; the Taylor
    oracle agrees with the lift; [X, Y] equals L_X Y; X and X + d/dx differ
    by a constant component everywhere."""
    rng = s.shape
    comps = _random_vf(s)
    x = s.name("X")
    s.line(f"vf {x} on M = {_vf_text(comps)}")
    r = rng.randint(1, 2)
    lam = rng.randint(0, r)
    xl = s.name("XL")
    s.line(f"lift {x} lambda={lam} r={r} as {xl}")
    s.line(f"degree {xl} component=1", ("degree", lam - r))
    if rng.random() < 0.5:
        s.line(f"print {xl}")
    point = [Fraction(s.value.randint(-4, 4), s.value.randint(1, 3)) for _ in XYZ]
    values = {}
    for i, f in comps.items():
        v = _evaluate(f, point)
        if v:
            values[((XYZ[i],), ())] = str(v)
    s.line(f"eval {x} at (" + ", ".join(f"{n}={v}" for n, v in zip(XYZ, point)) + ")",
           ("eval", values))
    f = s.name("F")
    s.line(f"fn {f} on M = {_poly_text(s.poly(max_degree=3), XYZ)}")
    s.line(f"oracle lift {f} lambda={lam} r={r}", _verdict(True))
    y = s.name("Y")
    s.line(f"vf {y} on M = {_vf_text(_random_vf(s))}")
    z, z2 = s.name("Z"), s.name("Z")
    s.line(f"bracket lie {x} {y} as {z}")
    s.line(f"liederiv {x} {y} as {z2}")
    s.line(f"oracle spotcheck {z} {z2}", _verdict(True))
    if s.plant():
        x2 = s.name("X")
        s.line(f"vf {x2} on M = {_vf_text(comps)} + d/dx")
        s.line(f"oracle spotcheck {x} {x2}", _verdict(False))


def _block_concomitant(s: _Session) -> None:
    """The coordinate concomitant and the Koszul-bracket oracle agree for
    any bivector, (1,1) tensor and pair of one-forms."""
    rng = s.shape
    lam, n, a, b = s.name("L"), s.name("N"), s.name("a"), s.name("a")
    i, j = sorted(rng.sample(range(3), 2))
    s.line(f"tensor(2,0) antisym {lam} on M = "
           + _term(_poly_text(s.poly(), XYZ), f"d/d{XYZ[i]} ^^ d/d{XYZ[j]}"))
    i, j = rng.randrange(3), rng.randrange(3)
    s.line(f"tensor(1,1) {n} on M = "
           + _term(_poly_text(s.poly(), XYZ), f"d/d{XYZ[i]} ox d{XYZ[j]}"))
    for name in (a, b):
        s.line(f"form {name} on M = "
               + _term(_poly_text(s.poly(), XYZ), f"d{XYZ[rng.randrange(3)]}"))
    s.line(f"oracle concomitant {lam} {n} {a} {b}", _verdict(True))


_BLOCKS = (_block_poisson, _block_weighted_poisson, _block_nijenhuis,
           _block_endomorphisms, _block_distribution, _block_contact,
           _block_weighted, _block_lifts, _block_concomitant)


def make_session(n: int, value: random.Random) -> _Session:
    """Session n: MIN..MAX statements built from shuffled blocks.

    Block order and each block's structure come from fixed design streams
    keyed by (n, attempt, block), so one block's draws never shift
    another's; weights, coefficients and points come from `value`.
    """
    for attempt in itertools.count():
        s = _Session(value)
        blocks = list(_BLOCKS) * 2
        random.Random(f"script-design:{n}:{attempt}").shuffle(blocks)
        for b, block in enumerate(blocks):
            s.shape = random.Random(f"script-design:{n}:{attempt}:{b}")
            before = (len(s.lines), dict(s.used))
            block(s)
            if len(s.lines) > MAX_STATEMENTS:
                del s.lines[before[0]:], s.expect[before[0]:]
                s.used = before[1]
            if len(s.lines) >= MIN_STATEMENTS:
                return s
    raise AssertionError("unreachable")


# -- the workload --------------------------------------------------------------

def _write_if_changed(path: str, text: str) -> None:
    """Rewrite a session file only when its text differs.  Later builds in
    a run find the same files, so set-up time does not measure the disk's
    write latency over and over."""
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.read() == text:
                return
    except FileNotFoundError:
        pass
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def build(seed: int, size: int = SCRIPTS, workdir: str = ".") -> list:
    """Generate the sessions and make sure one .gc file per session holds
    its text."""
    os.makedirs(workdir, exist_ok=True)
    case = Case("scripts", None)
    for n in range(size):
        rng = random.Random(f"{seed}:script:{n}")
        s = make_session(n, rng)
        path = os.path.join(workdir, f"session{n:03d}.gc")
        _write_if_changed(path, "\n".join(s.lines) + "\n")
        exit_code = 1 if any(e and e[0] == "verdict" and not e[1] for e in s.expect) else 0
        case.items.append(Item(f"session{n:03d}", (path, rng.randrange(1000), s.lines),
                               expected=(exit_code, s.expect)))
    return [case]


def prologue(case: Case):
    return None


def run(case: Case, item: Item, state):
    path, seed, _ = item.spec
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["run", path, "--format", "json", "--seed", str(seed)])
    return code, out.getvalue()


_POINT_RE = re.compile(r"at \(([^)]*)\)$")


def _rank_drop(probe, record: dict) -> bool:
    """True when the FAIL witness is a point where the probe generator vanishes."""
    match = _POINT_RE.search(record.get("check", {}).get("witness", ""))
    if probe is None or probe[0] != "rank-drop" or match is None:
        return False
    coords = dict(part.split("=") for part in match.group(1).split(", "))
    point = [Fraction(coords[n]) for n in XYZ]
    return _evaluate(probe[1], point) == 0


def _check_statement(src: str, expect, record: dict) -> Verdict:
    kind = expect[0]
    if kind == "verdict":
        _, want, probe = expect
        if record["ok"] == want:
            return OK
        detail = f"{src!r}: {'PASS' if record['ok'] else 'FAIL'}, known answer " \
                 f"{'PASS' if want else 'FAIL'}"
        if want and _rank_drop(probe, record):
            return Verdict(False, detail + f" ({record['check']['witness']})",
                           ROADMAP_RANK_DROP)
        return Verdict(False, detail)
    if kind == "degree":
        if record.get("degree") == expect[1]:
            return OK
        return Verdict(False, f"{src!r}: degree {record.get('degree')}, "
                       f"known answer {expect[1]}")
    got = {(tuple(r["up"]), tuple(r["down"])): r["value"] for r in record["values"]}
    if got == expect[1]:
        return OK
    return Verdict(False, f"{src!r}: values {got}, known answer {expect[1]}")


def check(case: Case, item: Item, result, reference) -> Verdict:
    code, text = result
    want_code, expects = item.expected
    lines = item.spec[2]
    if reference is not None and text != reference[1]:
        return Verdict(False, f"{item.label}: output differs from the first pass")
    try:
        records = json.loads(text)["records"]
    except (ValueError, KeyError):
        return Verdict(False, f"{item.label}: exit {code}, no records in the output")
    if len(records) != len(lines):
        last = records[-1] if records else {}
        return Verdict(False, f"{item.label}: stopped after {len(records)} of "
                       f"{len(lines)} statements: {last.get('error')}")
    verdicts = [_check_statement(src, e, rec)
                for src, e, rec in zip(lines, expects, records) if e is not None]
    verdict = combine(verdicts)
    if code != want_code:
        code_verdict = Verdict(False, f"{item.label}: exit {code}, known answer "
                               f"{want_code}",
                               verdict.defect if not verdict.ok else None)
        verdict = combine([verdict, code_verdict])
    if not verdict.ok:
        return Verdict(False, f"{item.label}: {verdict.detail}", verdict.defect)
    return OK


def canonical(case: Case, item: Item, result) -> str:
    code, text = result
    return f"{item.label}\texit {code}\n{text}"


def verify(cases: list, results: list) -> dict:
    return {}


def json_bytes(results: list) -> int:
    """Bytes of JSON the CLI printed over the pass."""
    return sum(len(text.encode("utf-8")) for _, text in results)


def corrupt(cases: list) -> None:
    """Flip the first known verdict (self-test of the checking path)."""
    for item in cases[0].items:
        code, expects = item.expected
        for n, e in enumerate(expects):
            if e is not None and e[0] == "verdict":
                expects[n] = ("verdict", not e[1], None)
                return
