"""Litmus tests: structure, conditions, standard suite, and runner."""

from .. import _lazy_exports

#: module (relative to this package) -> the names exported from it
_EXPORTS = {
    "..cert.records": ("Certificate",),
    ".cache": ("CacheStats", "ResultCache", "cache_key", "default_cache_dir"),
    ".compare": (
        "VARIANTS", "Distinction", "compare_on", "distinguishing_tests",
        "first_distinction",
    ),
    ".conditions": (
        "AndC", "Condition", "ConditionSyntaxError", "MemEq", "NotC", "OrC",
        "RegEq", "TrueC", "parse_condition",
    ),
    ".config": ("RunConfig",),
    ".explanation": ("Explanation", "explain"),
    ".generator": (
        "EDGE_NAMES", "CycleError", "GeneratedTest", "classify",
        "enumerate_cycles", "generate", "parse_cycle",
    ),
    ".runner": (
        "MODELS", "LitmusResult", "decide", "run_litmus", "run_suite",
        "summarize",
    ),
    ".session": ("Session", "SessionStats"),
    ".suite": ("BY_NAME", "PAPER_TESTS", "SUITE", "build_suite", "tests_for_figures"),
    ".test": ("Expect", "LitmusTest", "make_test"),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "AndC",
    "BY_NAME",
    "CacheStats",
    "Certificate",
    "Condition",
    "ConditionSyntaxError",
    "CycleError",
    "Distinction",
    "EDGE_NAMES",
    "Expect",
    "Explanation",
    "explain",
    "GeneratedTest",
    "VARIANTS",
    "classify",
    "compare_on",
    "distinguishing_tests",
    "enumerate_cycles",
    "first_distinction",
    "generate",
    "parse_cycle",
    "LitmusResult",
    "LitmusTest",
    "MemEq",
    "MODELS",
    "NotC",
    "OrC",
    "PAPER_TESTS",
    "RegEq",
    "ResultCache",
    "RunConfig",
    "SUITE",
    "Session",
    "SessionStats",
    "TrueC",
    "build_suite",
    "cache_key",
    "decide",
    "default_cache_dir",
    "make_test",
    "parse_condition",
    "run_litmus",
    "run_suite",
    "summarize",
    "tests_for_figures",
]
