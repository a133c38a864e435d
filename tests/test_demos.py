"""The demo scripts print what they printed when they were written.

Each demo runs in its own interpreter, as a user runs it
(python3 demos/NAME.py with gradcalc importable), and its whole stdout is
compared with the text below.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_STDOUT = {
    "01_lifts.py": """\
prolonged chart: x, y, x_1, y_1, x_2, y_2
(x^2)^(0) = x^2
(x^2)^(1) = 2*x*x_1
(x^2)^(2) = 2*x*x_2 + x_1^2
(x d/dy)^(0) = x*d/dy_2
(x d/dy)^(1) = x*d/dy_1 + x_1*d/dy_2
(x d/dy)^(2) = x*d/dy + x_1*d/dy_1 + x_2*d/dy_2
(x dy)^(0)   = x*dy
(x dy)^(1)   = x_1*dy + x*dy_1
(x dy)^(2)   = x_2*dy + x_1*dy_1 + x*dy_2
""",
    "02_brackets.py": """\
[x d/dx, y d/dy] = 0
L_X w - (i_X d + d i_X) w = 0
[L, L]_S = 0
T_N = 0
[N, N]_FN = 0
N.N + I = 0
lie bracket commutes with every (lambda, mu) lift pair at r=2
""",
    "03_weighted_structures.py": """\
lifted bivector, weight 2: PASS
deformed bivector: FAIL (Jacobi fails: component (x,y,z;) = 2)
(L, I) pair: PASS
(L, I + z d/dz ox dy) pair: FAIL (concomitant: component (x,z;y) = 1)
dz + x dy, weight 2: PASS
span{d/dx, x d/dy}: PASS
span{d/dx + y d/dz, d/dy}: FAIL (bracket of generators 0,1 leaves the span at (x=1, y=1, z=-5))
lifted distribution weighted: PASS
""",
    "04_connections.py": """\
connection chart: x, y, x_dot, y_dot
Gamma[x; y_dot, x_dot] = 1
horizontal: d/dx - x_dot*d/dy_dot
horizontal: d/dy
lifted symbols:
  Gamma[x; y_dot, x_dot] = 1
  Gamma[x; y_dot_1, x_dot_1] = 1
  Gamma[x_1; y_dot_1, x_dot] = 1
nabla_X Y = x*d/dy
lifted derivative matches the lift of the derivative at r=1
""",
}


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT))
def test_demo_stdout(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == DEMO_STDOUT[name]


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT)
