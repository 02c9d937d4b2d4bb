"""Differential conformance fuzzing of the litmus decision engines.

The repository carries four independent deciders for the same question —
the explicit enumeration search, the symbolic kodkod+SAT engine, the
operational SC/TSO machines, and DRAT-certified verdicts.  This package
cross-checks them against each other over *generated* programs, the way
weak-memory tooling is validated in practice:

* :mod:`.gen` — seed-reproducible program generation: critical cycles
  from :mod:`repro.litmus.generator` with randomized annotation, scope,
  placement, value, and fence perturbations;
* :mod:`.oracle` — the cross-engine oracle: each generated test runs
  through several engine configurations and the *full outcome sets* are
  compared (two engines can agree on a verdict while disagreeing on the
  outcomes);
* :mod:`.shrink` — a greedy discrepancy minimizer: drop threads and
  instructions, weaken conditions and annotations, canonicalize values,
  keeping every step that still reproduces the discrepancy;
* :mod:`.harness` — what every fuzz run shares: budgets (count or
  wall-clock), counters, the shrink predicate, artifact emission (shrunk
  repro as parseable litmus text plus a JSON report, one per distinct
  canonical-form hash), and artifact replay;
* :mod:`.coverage` — the structural coverage signal (feature
  extraction, the mergeable :class:`~repro.fuzz.coverage.CoverageMap`,
  greedy corpus distillation);
* :mod:`.farm` — the one fuzz loop, behind ``ptxmm fuzz`` (blind) and
  ``ptxmm farm`` (coverage-steered rounds, checkpoint/resume, corpus
  emission);
* :mod:`.sensitivity` — the axiom-ablation sensitivity matrix (the
  empirical mirror of the paper's Figure 17) over corpus shapes.
"""

from .coverage import (
    CoverageMap,
    bias_from_coverage,
    case_features,
    distill,
    feature_hash,
    result_features,
)
from .farm import (
    FarmConfig,
    FarmReport,
    load_checkpoint,
    run_farm,
    save_checkpoint,
    write_corpus,
)
from .gen import DEFAULT_VOCABULARY, FuzzCase, GenBias, cycle_pool, generate_case
from .harness import (
    FuzzBudget,
    FuzzStats,
    canonical_test_hash,
    recheck_artifact,
)
from .sensitivity import (
    axiom_probes,
    render_sensitivity,
    sensitivity_matrix,
    undetected_axioms,
)
from .oracle import (
    Check,
    CaseVerdict,
    Discrepancy,
    EngineRun,
    Oracle,
    check_test,
    default_checks,
)
from .shrink import EngineCrash, ShrinkResult, shrink

__all__ = [
    "DEFAULT_VOCABULARY",
    "FuzzCase",
    "GenBias",
    "cycle_pool",
    "generate_case",
    "FuzzBudget",
    "FuzzStats",
    "canonical_test_hash",
    "recheck_artifact",
    "CoverageMap",
    "bias_from_coverage",
    "case_features",
    "distill",
    "feature_hash",
    "result_features",
    "FarmConfig",
    "FarmReport",
    "load_checkpoint",
    "run_farm",
    "save_checkpoint",
    "write_corpus",
    "axiom_probes",
    "render_sensitivity",
    "sensitivity_matrix",
    "undetected_axioms",
    "Check",
    "CaseVerdict",
    "Discrepancy",
    "EngineRun",
    "Oracle",
    "check_test",
    "default_checks",
    "EngineCrash",
    "ShrinkResult",
    "shrink",
]
