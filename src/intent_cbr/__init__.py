"""Case-based reasoning engine for cyber-attack intention analysis.

Retrieves precedent cases by weighted evidence similarity, walks
proposals through the retrieve/reuse/revise/retain cycle, and seeds its
repository with a belief-function intention estimator over causal
networks.

``import intent_cbr`` loads no submodule: each exported name is imported
from its submodule when it is first used (PEP 562), so a CLI command
loads only the modules it runs.
"""

__version__ = "0.1.0"

# Each submodule, with the names the package exports from it.
_EXPORTS = {
    "cbr": (
        "RetrievalRanking ReviseVerdict align_evidence initialize_incipient "
        "local_similarity retain retrieve reuse revise similarity write_ranking_csv"
    ),
    "errors": (
        "AllZeroPosteriors ConfidenceOutOfRange CorruptRecord DuplicateCaseId "
        "DuplicateEvidenceId EmptyPosteriors EmptyRanking EmptyRepository "
        "FrameMismatch IllegalTransition IntentCbrError IoFailure MalformedRecord "
        "NoHypothesis SchemaVersionMismatch SubsetOutsideFrame TotalConflict "
        "UnknownCaseId UnknownEvidence UnnormalizedWeights ValidationFailure ZeroMarginal"
    ),
    "inference": (
        "analyze_attack belief build_mass_function combine evidence_marginal "
        "plausibility posterior posteriors_for_evidence vacuous"
    ),
    "ingest": "map_kind parse_evidence_file",
    "model": (
        "Attack BeliefReport Case CaseStatus CausalNetwork Evidence EvidenceKind "
        "Hypothesis Intention MassFunction SimilarityResult transition "
        "validate_attack validate_case validate_network"
    ),
    "repository": "Repository",
    "serialize": "",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_SOURCE, *_EXPORTS])


def __getattr__(name: str):
    module = name if name in _EXPORTS else _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `python -X importtime` reports imports made through `__import__`, not
    # through `importlib.import_module`. Importing binds the submodule here.
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
