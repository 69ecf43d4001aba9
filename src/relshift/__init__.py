"""relshift: Shifting-Lemma variants on finite algebras.

A workbench for the relational characterizations of Mal'tsev
(2-permutable) and Goursat (3-permutable) settings at desk scale:
exact relation calculus, congruence lattices, Shifting-Lemma decision
procedures with witness extraction, term-condition search, and a
cross-validation suite over a bundled corpus of small algebras.
"""

__version__ = "0.1.0"

from .relations import (  # noqa: F401
    Carrier,
    Relation,
    RelationParseError,
    ShapeError,
    compose,
    diagonal,
    empty,
    full,
    is_difunctional,
    is_equivalence,
    is_positive,
    is_reflexive,
    is_symmetric,
    is_transitive,
    leq,
    meet,
    opposite,
    positive_witness,
    relation_from_json,
    relation_to_json,
    transitive_closure,
    union,
)
from .algebras import (  # noqa: F401
    Algebra,
    AlgebraParseError,
    PairedObject,
    Signature,
    algebra_from_json,
    algebra_to_json,
    all_congruences,
    as_paired_object,
    compatible_close,
    congruence_join,
    congruence_lattice_is_modular,
    evaluate,
    is_compatible,
    principal_congruence,
)
from .constructions import (  # noqa: F401
    NoWitnessError,
    SLInstance,
    build_R,
    build_T,
    build_W,
    build_box,
    goursat_sl_witness,
    join_via_RSR,
    kernel_pair,
    maltsev_sl_witness,
    witness_to_json,
)
from .checks import (  # noqa: F401
    BudgetError,
    PreconditionError,
    RelationClass,
    SLResult,
    difunctional_all,
    ee_properties,
    goursat_identity_all,
    permutability,
    shifting_lemma,
    shifting_lemma_forall,
    shifting_principle_reduction,
)
from .terms import (  # noqa: F401
    CloneResult,
    TermFunction,
    TermSearchResult,
    find_3perm_terms,
    find_maltsev_term,
    generate_ternary_clone,
)
from .harness import (  # noqa: F401
    ConsistencyError,
    bundled_corpus,
    run_suite,
)
