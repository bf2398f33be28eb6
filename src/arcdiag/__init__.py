"""Noncrossing arc diagrams for permutations and their lattice quotients."""

from .arcs import (
    Arc,
    ArcSet,
    all_arcs,
    arc_from_ji,
    arc_key,
    canonical_joinands,
    compatible,
    forces_right_of,
    full_arc_set,
    incompatibility_reason,
    inflections,
    is_subarc,
    ji_from_arc,
    joinand_at,
    make_arc,
    subarc_covers,
)
from .congruences import (
    complex_faces,
    congruence_from_contracted,
    has_pattern,
    minimal_contracted_generators,
    named_congruence,
    project_down,
    project_up,
    uncontracted_by_avoidance,
    uncontracted_permutations,
)
from .counting import (
    CheckResult,
    CountTable,
    VerifyReport,
    baxter_number,
    catalan,
    count_by_arcs,
    eulerian,
    narayana,
    prodmin,
    verify_report,
)
from .diagrams import (
    Diagram,
    DiagramClass,
    classify_diagram,
    count_diagrams,
    deletion_stages,
    diagram_from_permutation,
    enumerate_diagrams,
    permutation_from_diagram,
    validate_diagram,
)
from .perms import (
    InversionSet,
    Permutation,
    all_permutations,
    descents,
    identity,
    inversions,
    is_join_irreducible,
    is_valid_inversion_set,
    join,
    lower_covers,
    meet,
    permutation_from_inversions,
    top,
    upper_covers,
    weak_leq,
)
from .render import arc_offsets, export_dot, render_ascii, render_svg
from .textforms import (
    ParseError,
    format_arc,
    format_arcset,
    format_diagram,
    format_diagram_body,
    format_permutation,
    parse_arc,
    parse_arcset,
    parse_congruence_spec,
    parse_diagram,
    parse_diagram_body,
    parse_permutation,
)

__version__ = "0.1.0"
