"""Quantum invariants of colored planar graphs and their volume asymptotics.

The package evaluates invariants of trivalent graphs embedded in the
sphere, colored by even integers at an odd level r (the quantum parameter
is q = exp(2*pi*i/r)), and compares their exponential growth rates
against hyperbolic volumes.

Layered design, each layer usable on its own:

- ``extscalar``  — exact-exponent scalars that survive huge dynamic range
- ``qnum``       — quantum integers, admissibility, 6j symbols, diagnostics
- ``cyclo``      — exact cyclotomic arithmetic; an independent 6j oracle
- ``planar``     — rotation-system planar graphs, fixtures, local moves
- ``bracket``    — recursive evaluation of colored graphs in the disc
- ``yokota``     — graph invariants: state sums, Kirby color, Fourier duality
- ``hypvol``     — Lobachevsky function, reference volumes, extrapolation
- ``scans``      — vectorized level sweeps and experiment records
- ``verify``     — self-check suites wired into the ``skeinvol verify`` CLI

The ``skeinvol`` console script exposes the scans and checks; see the
README for the CSV schema and JSON graph format.
"""

from .errors import (
    BudgetExceeded,
    DegenerateTheta,
    IllConditioned,
    Inadmissible,
    LowValence,
    NotPlanar,
    NotTriangle,
    NotTrivalent,
    SkeinError,
)
from .extscalar import ExtScalar, SignLogReal
from .qnum import (
    Level,
    admissible_triples,
    circle_weight,
    fusion_colors,
    is_admissible_sixtuple,
    is_admissible_triple,
    kirby_norm,
    loop_weight,
    quantum_factorial,
    quantum_integer,
    sixj,
    sixj_info,
    theta_weight,
    vertex_weight,
)
from .cyclo import CycloExact, CycloField, CycloOracle, cyclotomic_poly, sixj_exact_square
from .planar import (
    PlanarGraph,
    ValidationReport,
    betti,
    blow_up,
    canonical_signature,
    circle,
    cube,
    double_at,
    dual,
    family_enumerate,
    genus,
    graph_from_json,
    graph_to_json,
    is_connected,
    mirror,
    octahedron,
    pentagonal_pyramid,
    same_embedding,
    split_components,
    square_pyramid,
    tetrahedron,
    theta,
    triangle,
    triangular_prism,
    triangulate,
    validate,
    vertex_sum,
    wheel,
)
from .bracket import KirbyDistribution, bracket, bracket_distribution, fusion_at
from .yokota import (
    admissible_colorings,
    desingularize,
    fourier_dual,
    hopf_pairing,
    maximizing_color,
    tv_graph,
    yokota,
    yokota_ext,
    yokota_kirby,
    yokota_table,
)
from .hypvol import (
    CSV_FIELDS,
    ScanRecord,
    V8,
    antiprism_volume,
    extrapolate_limit,
    family_max_volume,
    lobachevsky,
    named_volumes,
    records_to_csv,
    write_csv,
)
from .scans import (
    appendix_colors,
    appendix_record,
    batch_sixj,
    bound_record,
    family_record,
    maximizer_record,
    round_even_color,
    run_levels,
    sixtuple_chunks,
    tv_tet_record,
    wheel_log_invariant,
)
from .verify import CheckResult, run_suite, suite_names

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "DegenerateTheta",
    "IllConditioned",
    "Inadmissible",
    "LowValence",
    "NotPlanar",
    "NotTriangle",
    "NotTrivalent",
    "SkeinError",
    "ExtScalar",
    "SignLogReal",
    "Level",
    "admissible_triples",
    "circle_weight",
    "fusion_colors",
    "is_admissible_sixtuple",
    "is_admissible_triple",
    "kirby_norm",
    "loop_weight",
    "quantum_factorial",
    "quantum_integer",
    "sixj",
    "sixj_info",
    "theta_weight",
    "vertex_weight",
    "CycloExact",
    "CycloField",
    "CycloOracle",
    "cyclotomic_poly",
    "sixj_exact_square",
    "PlanarGraph",
    "ValidationReport",
    "betti",
    "blow_up",
    "canonical_signature",
    "circle",
    "cube",
    "double_at",
    "dual",
    "family_enumerate",
    "genus",
    "graph_from_json",
    "graph_to_json",
    "is_connected",
    "mirror",
    "octahedron",
    "pentagonal_pyramid",
    "same_embedding",
    "split_components",
    "square_pyramid",
    "tetrahedron",
    "theta",
    "triangle",
    "triangular_prism",
    "triangulate",
    "validate",
    "vertex_sum",
    "wheel",
    "KirbyDistribution",
    "bracket",
    "bracket_distribution",
    "fusion_at",
    "admissible_colorings",
    "desingularize",
    "fourier_dual",
    "hopf_pairing",
    "maximizing_color",
    "tv_graph",
    "yokota",
    "yokota_ext",
    "yokota_kirby",
    "yokota_table",
    "CSV_FIELDS",
    "ScanRecord",
    "V8",
    "antiprism_volume",
    "extrapolate_limit",
    "family_max_volume",
    "lobachevsky",
    "named_volumes",
    "records_to_csv",
    "write_csv",
    "appendix_colors",
    "appendix_record",
    "batch_sixj",
    "bound_record",
    "family_record",
    "maximizer_record",
    "round_even_color",
    "run_levels",
    "sixtuple_chunks",
    "tv_tet_record",
    "wheel_log_invariant",
    "CheckResult",
    "run_suite",
    "suite_names",
]
