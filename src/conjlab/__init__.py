"""Exact arithmetic for a family of finitely generated groups tuned by a
prime-valued central exponent function d: normal forms, conjugacy with
certificates, finite quotients, homomorphism tests against explicit
multiplication tables, and interleaved witness search.

The package namespace holds the entry points and result types of the
five CLI commands and the few helpers that benchmark callers build
inputs with. Everything else is imported from its own module."""

from .conjugacy import ConjugacyCertificate, conjugacy_decide
from .extension import GElement, WordParseError, g_conj, g_equal, g_mul, \
    parse_word, spell_element
from .machine import ProgramError
from .quotients import quotient_is_well_defined
from .search import GrowthRow, McKinseyOutcome, SearchBudget, growth_table, \
    mckinsey_search, spec_stream
from .sepfunc import parse_d_spec
from .tables import hom_check, load_table

__version__ = "0.1.0"

__all__ = [
    "ConjugacyCertificate",
    "GElement",
    "GrowthRow",
    "McKinseyOutcome",
    "ProgramError",
    "SearchBudget",
    "WordParseError",
    "conjugacy_decide",
    "g_conj",
    "g_equal",
    "g_mul",
    "growth_table",
    "hom_check",
    "load_table",
    "mckinsey_search",
    "parse_d_spec",
    "parse_word",
    "quotient_is_well_defined",
    "spec_stream",
    "spell_element",
]
