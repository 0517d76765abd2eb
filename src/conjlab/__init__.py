"""Exact arithmetic for a family of finitely generated groups tuned by a
prime-valued central exponent function d: normal forms, conjugacy with
certificates, finite quotients, homomorphism tests against explicit
multiplication tables, and interleaved witness search."""

from .nilpotent import (
    DElement,
    central_c,
    d_element,
    d_identity,
    d_inv,
    d_mul,
    generator_a,
    generator_b,
    is_identity_d,
    is_in_C,
    is_in_derived,
    phi_shift,
)
from .extension import (
    GElement,
    WordParseError,
    c_witness_word,
    g_conj,
    g_equal,
    g_identity,
    g_inv,
    g_mul,
    g_t,
    is_identity_g,
    parse_word,
    spell_element,
    word_length,
)
from .conjugacy import (
    ConjugacyCertificate,
    IntegerLinearSystem,
    commutator_bilinear,
    conj_mod_C,
    conjugacy_decide,
    hnf_solve,
    solve_commutator_equation,
    solve_twisted_abelian,
    solve_twisted_derived,
)
from .quotients import (
    FiniteQuotientSpec,
    FoldedQuotient,
    finite_conjugate,
    make_spec,
    quotient_conjugate_exact,
    quotient_is_well_defined,
    required_c_modulus,
)
from .machine import Program, ProgramError, StepLimitExceeded, load_program, \
    parse_program
from .sepfunc import (
    SeparabilityFunction,
    constant_prime,
    fast_majorant,
    from_table,
    nth_prime,
    parse_d_spec,
)
from .tables import FiniteGroupTable, from_permutations, hom_check, \
    load_table, parse_table
from .search import (
    GrowthRow,
    I_LADDER,
    McKinseyOutcome,
    SearchBudget,
    growth_table,
    mckinsey_search,
    rf_witness_order,
    spec_stream,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
