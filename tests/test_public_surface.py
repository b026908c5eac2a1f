"""The public names of the package, pinned.

Dropping or renaming one of them, or one that the benchmark's tracer
(bench/tracer.py) looks up, means editing the lists below.
"""

import importlib
import inspect

import qmeasure

PUBLIC_NAMES = (
    # errors
    "QMeasureError", "DimensionMismatch", "NotHermitian", "NotOrthonormal", "NotNormalized",
    "NotDensityOperator", "NotADistribution", "NullOutcome", "InvalidTransformers",
    "NoDefiniteValue", "NonRepeatableInput", "ParseError", "ValidationError",
    # linalg
    "TensorStructure", "dag", "frob", "kron", "basis_vector", "is_hermitian", "hermitian_eig",
    "partial_trace", "apply_on_factor", "pure_marginal", "partial_inner", "check_orthonormal_columns",
    "complete_isometry", "random_unitary", "random_state_vector",
    # observables
    "Observable", "PureState", "DensityOperator", "State", "validate_observable",
    "observable_from_matrix", "embed_observable", "probabilities", "classify_outcomes",
    "luders_update", "purify", "density_matrix", "uniform_superposition",
    # instruments
    "StateTransformerSet", "MeasurementModel", "make_ideal_transformers",
    "make_repeatable_transformers", "is_repeatable", "post_state", "dilate", "evolve",
    "verify_probability_reproducibility", "verify_conditional_states", "repeat_measurement_check",
    # schmidt
    "SchmidtForm", "OutcomePairing", "DefiniteValueReport", "TwinObservables", "schmidt_decompose",
    "reconstruct", "reduced_states", "verify_definite_values", "twin_observables",
    # information
    "EntropyReport", "Verdict", "shannon_entropy", "von_neumann_entropy",
    "entanglement_of_pure_state", "mutual_information", "incompatibility_entropy",
    "lifted_incompatibility_entropy", "commutator_norm", "lifted_commutator_norm",
    "verify_entanglement_as_incompatibility", "verify_incompatibility_transfer",
    "read_pointer_tripartite", "post_reading_state", "low_rank_commutator_norm",
    # scenario
    "Scenario", "InstrumentSpec", "scenario_from_dict", "parse_scenario", "load_scenario",
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


def _resolve(dotted: str):
    module, name = dotted.split(".")
    return getattr(importlib.import_module(f"qmeasure.{module}"), name)


def test_all_is_pinned_in_order():
    assert len(PUBLIC_NAMES) == 88
    assert tuple(qmeasure.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(qmeasure, name), name


def test_names_the_tracer_resolves_exist():
    for dotted in TRACED_FUNCTIONS:
        assert inspect.isfunction(_resolve(dotted)), dotted
    for dotted in TRACED_CONSTRUCTORS:
        assert inspect.isfunction(_resolve(dotted).__post_init__), dotted
