"""The public names of the package, pinned, and each one read by the package itself.

Dropping or renaming one of them, or one that the benchmark's tracer
(bench/tracer.py) looks up, means editing the lists below. A name that
only tests read belongs in tests/reference.py, not in the package; so
does a method or property that only tests read.
"""

import ast
import importlib
import inspect
from pathlib import Path

import qmeasure

SRC = Path(qmeasure.__file__).resolve().parent

PUBLIC_NAMES = (
    # errors
    "QMeasureError", "DimensionMismatch", "NotHermitian", "NotOrthonormal", "NotNormalized",
    "NotDensityOperator", "NotADistribution", "NullOutcome", "InvalidTransformers",
    "NoDefiniteValue", "NonRepeatableInput", "ParseError", "ValidationError",
    # linalg
    "TensorStructure", "dag", "frob", "kron", "basis_vector", "is_hermitian", "hermitian_eig",
    "partial_trace", "pure_marginal", "check_orthonormal_columns",
    "complete_isometry", "random_unitary", "random_state_vector",
    # observables
    "Observable", "PureState", "DensityOperator", "validate_observable",
    "observable_from_matrix", "embed_observable", "probabilities", "uniform_superposition",
    # instruments
    "StateTransformerSet", "make_ideal_transformers", "make_repeatable_transformers",
    "repeatability_violation", "evolve", "repeat_measurement_check",
    # schmidt
    "SchmidtForm", "DefiniteValueReport", "schmidt_decompose", "reconstruct", "verify_definite_values",
    # information
    "EntropyReport", "Verdict", "shannon_entropy", "von_neumann_entropy",
    "lifted_incompatibility_entropy", "read_pointer_tripartite", "low_rank_commutator_norm",
    # scenario
    "Scenario", "scenario_from_dict", "parse_scenario", "load_scenario",
    "check_tolerance", "generate_random_instance",
    # pipeline
    "VerificationReport", "run_pipeline", "report_to_dict", "report_to_json", "report_to_text",
)

# Functions and constructors that bench/tracer.py wraps by module and name,
# beyond the __all__ of the modules it traces whole.
TRACED_FUNCTIONS = ("linalg.partial_trace", "linalg.complete_isometry", "cli.main")
TRACED_CONSTRUCTORS = (
    "observables.Observable",
    "observables.PureState",
    "observables.DensityOperator",
    "instruments.StateTransformerSet",
)

# Defined in src/ but read by nothing there, each with the reason it stays.
UNREAD_IN_SRC = {
    # bench/selftest.py asserts that qmeasure.information.embed_observable is
    # qmeasure.observables.embed_observable after tracing is undone.
    "embed_observable",
    # bench/tracer.py resolves linalg.complete_isometry by name; the tests
    # complete the unitary of a transformer family's isometry with it
    # (tests/reference.py).
    "complete_isometry",
    # bench/tracer.py resolves linalg.partial_trace by name; the tests take it
    # as the dense reference of pure_marginal.
    "partial_trace",
}

# Imports in src/ that their own module never reads, as (module, name), each with the reason it stays.
UNREAD_IMPORTS = {
    # bench/selftest.py asserts that qmeasure.information.embed_observable is
    # qmeasure.observables.embed_observable after tracing is undone.
    ("information", "embed_observable"),
}

# Methods and properties of classes in src/ that nothing there reads, each with the reason it stays.
UNREAD_MEMBERS_IN_SRC = {
    # bench/workloads.py writes each generated scenario to a document with it.
    "Scenario.to_dict",
}


def _resolve(dotted: str):
    module, name = dotted.split(".")
    return getattr(importlib.import_module(f"qmeasure.{module}"), name)


def test_all_is_pinned_in_order():
    assert len(PUBLIC_NAMES) == 63
    assert tuple(qmeasure.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(qmeasure, name), name


def test_names_the_tracer_resolves_exist():
    for dotted in TRACED_FUNCTIONS:
        assert inspect.isfunction(_resolve(dotted)), dotted
    for dotted in TRACED_CONSTRUCTORS:
        assert inspect.isfunction(_resolve(dotted).__post_init__), dotted


def _src_trees() -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]


def _reads(trees: list[ast.Module]) -> set[str]:
    """Names loaded as a bare name or as an attribute, outside the definition of that name.

    Import lines and the strings of ``__all__`` are not loads, so they do not count.
    """
    found: set[str] = set()

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.update({node.id} - inside)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.update({node.attr} - inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for tree in trees:
        visit(tree, frozenset())
    return found


def test_every_public_name_and_top_level_definition_is_read_in_src():
    trees = _src_trees()
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    unread = (set(qmeasure.__all__) | defined) - _reads(trees)
    assert unread == UNREAD_IN_SRC


def test_every_method_and_property_of_a_src_class_is_read_in_src():
    trees = _src_trees()
    members = {
        (cls.name, node.name)
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("__")
    }
    reads = _reads(trees)
    assert {f"{cls}.{name}" for cls, name in members if name not in reads} == UNREAD_MEMBERS_IN_SRC


def test_every_import_in_src_is_read_by_its_module():
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name != "*" and bound not in reads:
                        unread.add((path.stem, bound))
    assert unread == UNREAD_IMPORTS
