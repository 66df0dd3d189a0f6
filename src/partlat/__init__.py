"""Finite partial lattices.

Validation of the partial lattice axioms, the correspondence with partially
lattice-ordered sets, two-point extensions to total lattices, congruences
and quotient structures, homomorphism machinery, and exhaustive
small-instance verification.
"""

from .errors import (
    AxiomViolation,
    BadParameter,
    CycleDetected,
    DuplicateLabel,
    ImageEscapes,
    InvariantError,
    NotACongruence,
    NotALattice,
    NotClosed,
    NotPlos,
    ParseError,
    PartlatError,
    SemanticError,
    UnknownLabel,
)
from .order import (
    BOTTOM_LABEL,
    TOP_LABEL,
    Lattice,
    PlosReport,
    Poset,
    is_distributive,
    is_modular,
    is_plos,
    lower_bounds,
    make_poset,
    named_lattice,
    upper_bounds,
    validate_lattice,
)
from .plattice import (
    BOTH_PARTIAL,
    BOTH_TOTAL,
    JOIN_PARTIAL,
    MEET_PARTIAL,
    UNDEF,
    IdentityReport,
    PartialLattice,
    antichain,
    check_absorption,
    check_distributivity,
    from_plos,
    induced_order,
    is_total,
    lp_roundtrip,
    pl_roundtrip,
    to_lattice,
    validate_partial_lattice,
)
from .extension import (
    Extension,
    OnePointAlgebra,
    one_point_extension,
    two_point_extension,
)
from .congruence import (
    CongruenceWitness,
    JoinCase,
    Partition,
    all_congruences,
    all_partial_congruences,
    con_is_closed_under_meets,
    generate_congruence,
    is_congruence_on_partial,
    lattice_quotient,
    quotient,
    quotient_join_case,
    quotient_join_cases,
)
from .morphism import (
    CLOSED_HOM,
    HOM,
    NOT_HOM,
    HomReport,
    HomTheoremReport,
    IsoWitness,
    Morphism,
    canonical_projection,
    check_hom,
    extend_hom,
    find_isomorphism,
    hom_theorem_check,
    kernel,
    order_isomorphism,
    quotient_extension_iso,
    restrict_hom,
)
from .enumeration import all_posets, canonical_form, enumerate_partial_lattices
from .fmt import (
    Document,
    build,
    emit_dot,
    format_document,
    parse,
    parse_partition,
    to_document,
)
from .verify import structure_checks, verify_corpus
from . import figures, fmt

__version__ = "0.1.0"
