"""
braidmono: braid monodromy factorizations of real line arrangements.

Exact braid arithmetic with a left-greedy canonical-form engine, positive
factorizations of the full twist under Hurwitz moves, the line-arrangement
sweep whose output factors multiply to Delta^2, branch-curve regeneration
rules with degree audits, and van Kampen presentations of complements.
"""

from .braid import (
    BraidError,
    BraidWord,
    HalfTwist,
    Permutation,
    compose,
    delta_word,
    exponent_sum,
    free_reduce,
    full_twist,
    half_twist_word,
    invert,
    permutation_of,
    power,
)
from .garside import (
    NormalForm,
    normal_form,
    words_equal,
)
from .factorization import (
    BlockFactor,
    EquivalenceResult,
    Factor,
    Factorization,
    HMInvariants,
    OrbitResult,
    StructuredFactor,
    Verdict,
    apply_moves,
    canonical_key,
    expand,
    hm_invariants,
    hurwitz_equivalent,
    hurwitz_move,
    hurwitz_move_inverse,
    is_delta2_factorization,
    orbit_enumerate,
    product,
    product_nf,
)
from .arrangements import (
    ArrangementError,
    DegreeReport,
    LineArrangement,
    SingularPoint,
    WiringDiagram,
    braid_monodromy,
    degree_check,
    expand_block_factor,
    singular_points,
    to_wiring_diagram,
)
from .regeneration import (
    AuditReport,
    CompletionResult,
    IndexDoubling,
    RegenerationError,
    Rule,
    complete_deficit,
    degree_audit,
    double_halftwist,
    regenerate,
    rule_I_branch,
    rule_II_node,
    rule_III_tangency,
)
from .vankampen import (
    FreeWord,
    Presentation,
    abelianization_rank,
    artin_action,
    artin_images,
    presentation,
)

__version__ = "0.1.0"
