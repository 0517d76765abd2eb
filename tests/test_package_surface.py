"""The conjlab package namespace re-exports the entry points and result
types of the CLI commands, and every name the benchmark harness reads
off the package as cl.<name>; nothing else."""

import ast
import types

import conjlab

from conftest import REPO

EXPORTS = {
    "ConjugacyCertificate", "GElement", "GrowthRow", "McKinseyOutcome",
    "ProgramError", "SearchBudget", "WordParseError", "conjugacy_decide",
    "g_conj", "g_equal", "g_mul", "growth_table", "hom_check", "load_table",
    "mckinsey_search", "parse_d_spec", "parse_word",
    "quotient_is_well_defined", "spec_stream", "spell_element",
}


def harness_names():
    """Every cl.<name> in conjbench/*.py, read from the source without
    importing or writing anything under conjbench/."""
    names = set()
    for path in sorted((REPO / "conjbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and node.value.id == "cl":
                names.add(node.attr)
    return names


def test_harness_names_resolve():
    names = harness_names()
    assert names
    assert names <= EXPORTS
    for name in names:
        assert getattr(conjlab, name, None) is not None, name


def test_exports_are_exactly_the_list():
    assert sorted(conjlab.__all__) == sorted(EXPORTS)
    for name in EXPORTS:
        assert not isinstance(getattr(conjlab, name), types.ModuleType), name
    assert conjlab.__version__
