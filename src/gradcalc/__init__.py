"""Exact tensor calculus on graded coordinate charts.

The engine works with polynomial coefficient functions over the
rationals, so every identity it asserts is an exact symbolic statement,
never a floating-point approximation.  The main pieces:

* charts with integer weight vectors and the derived chart constructors
  (prolongations, tangent/cotangent and shifted duals);
* sparse polynomials and tensor fields with symmetry tags;
* exterior/Lie calculus and the classical brackets (Lie, Schouten,
  vector-valued-form brackets, Nijenhuis torsion, concomitant);
* lambda-lifts of functions, tensors, distributions and connections to
  prolonged charts;
* decision procedures for weighted structures (Poisson, Nijenhuis,
  contact, distributions) returning reports with witnesses;
* independent oracles for cross-checking the lift and bracket paths.

The package re-exports the `__all__` of its nine engine modules (errors,
charts, poly, render, tensor, calculus, lifts, checkers, oracle) and
builds its own `__all__` from theirs, so a public name is declared once,
in its module.  sampling, suite, dsl and cli are imported by path.
"""

__version__ = "0.1.0"       # before the submodules: render reads it on import

from . import errors, charts, poly, render, tensor, calculus, lifts, checkers, oracle
from .errors import *
from .charts import *
from .poly import *
from .render import *
from .tensor import *
from .calculus import *
from .lifts import *
from .checkers import *
from .oracle import *

__all__ = ["__version__"] + [
    name for module in (errors, charts, poly, render, tensor, calculus, lifts,
                        checkers, oracle)
    for name in module.__all__]
