"""Quantum invariants of colored planar graphs and their volume asymptotics.

The package evaluates invariants of trivalent graphs embedded in the
sphere, colored by even integers at an odd level r (the quantum parameter
is q = exp(2*pi*i/r)), and compares their exponential growth rates
against hyperbolic volumes.

Layered design, each layer usable on its own:

- ``extscalar``  — real or imaginary scalars, (-i)^q * m * 2^e, that survive
  huge dynamic range
- ``qnum``       — quantum integers, admissibility, 6j symbols, diagnostics
- ``cyclo``      — exact cyclotomic arithmetic; an independent 6j oracle
- ``planar``     — rotation-system planar graphs, fixtures, local moves
- ``bracket``    — recursive evaluation of colored graphs in the disc
- ``yokota``     — graph invariants: state sums, Kirby color, Fourier duality
- ``hypvol``     — Lobachevsky function, reference volumes, extrapolation
- ``scans``      — vectorized level sweeps and experiment records
- ``verify``     — self-check suites wired into the ``skeinvol verify`` CLI

The package namespace holds the few names the README uses; everything
else is imported from its module (``from skeinvol.yokota import yokota``).
The ``skeinvol`` console script exposes the scans and checks; see the
README for the CSV schema and JSON graph format.
"""

from .extscalar import ExtScalar
from .hypvol import V8
from .planar import blow_up, graph_from_json, graph_to_json, tetrahedron, validate
from .qnum import loop_weight, sixj
from .scans import tv_tet_record

__version__ = "0.1.0"

# the names the README uses; everything else is reached through its module
__all__ = [
    "ExtScalar",
    "V8",
    "blow_up",
    "graph_from_json",
    "graph_to_json",
    "loop_weight",
    "sixj",
    "tetrahedron",
    "tv_tet_record",
    "validate",
]
