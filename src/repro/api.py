"""The supported public API of the toolkit, in one place.

Everything in ``__all__`` is the surface downstream code may rely on;
anything reached by deep module paths is internal and may move without
notice.  The surface is deliberately small:

* **configure** — :class:`RunConfig` (the sole way to choose model,
  engine, search options, deadlines, caching, certification; the old
  ``run_litmus(test, "tso", **opts)`` keyword surface is gone);
* **execute** — :func:`run_litmus` / :func:`run_suite` for one-shot
  calls, :class:`Session` for sweeps that want a shared worker pool,
  result cache, and counters;
* **inspect** — :class:`LitmusResult`, :class:`Expect`,
  :class:`Certificate` (checked DRAT refutations / witnesses),
  :func:`summarize`;
* **enumerate** — :data:`MODELS` / :data:`ENGINES` and their
  capability flags (:mod:`repro.registry`); unknown names raise
  :class:`UnknownNameError` with the valid choices listed;
* **serve** — the verdict service and its client
  (:class:`ServeConfig` / :func:`serve_forever` /
  :func:`start_in_thread` / :class:`Client`), the HTTP face of the
  same engine stack (``ptxmm serve`` / ``ptxmm client``);
* **fuzz** — the coverage-guided fuzzing farm (:class:`FarmConfig` /
  :func:`run_farm` / :class:`CoverageMap` / :func:`sensitivity_matrix`),
  the library face of ``ptxmm fuzz`` and ``ptxmm farm``;
* **zoo** — the declarative model zoo (:class:`ZooModel` and its parts,
  :data:`ZOO_MODELS`, :func:`zoo_names`, :func:`containment_claims`),
  the generic axiomatic engine (:func:`zoo_outcomes`,
  :func:`concrete_observations`), and the cross-model conformance
  matrix (:func:`build_matrix` / :class:`ModelMatrix`, the library face
  of ``ptxmm matrix``).

``API_VERSION`` counts redesigns of this surface; it is independent of
the package version and of :data:`~repro.schema.CACHE_SCHEMA_VERSION`
(which tracks the on-disk/wire payload format).
"""

from __future__ import annotations

from . import __version__
from .cert.records import Certificate
from .fuzz import (
    CoverageMap,
    FarmConfig,
    FarmReport,
    run_farm,
    sensitivity_matrix,
    undetected_axioms,
    write_corpus,
)
from .litmus.config import RunConfig, freeze_opts
from .litmus.corpus import regression_corpus
from .litmus.runner import LitmusResult, run_litmus, run_suite, summarize
from .litmus.session import Session, SessionStats
from .litmus.test import Expect, LitmusTest
from .registry import (
    ENGINES,
    MODELS,
    UnknownNameError,
    engine_names,
    engines_for_model,
    model_names,
    resolve_engine,
    resolve_model,
)
from .schema import CACHE_SCHEMA_VERSION
from .serve import (
    Client,
    ServeConfig,
    ServiceError,
    ServiceSaturated,
    VerdictService,
    serve_forever,
    start_in_thread,
)
from .zoo import (
    ZOO_MODELS,
    Claim,
    EventSignature,
    ModelMatrix,
    WitnessSpec,
    ZooModel,
    build_matrix,
    concrete_observations,
    containment_claims,
    zoo_names,
    zoo_outcomes,
)

#: bumped when this surface changes incompatibly
API_VERSION = 1

__all__ = [
    "API_VERSION",
    "CACHE_SCHEMA_VERSION",
    "Certificate",
    "Claim",
    "Client",
    "CoverageMap",
    "ENGINES",
    "EventSignature",
    "Expect",
    "FarmConfig",
    "FarmReport",
    "LitmusResult",
    "LitmusTest",
    "MODELS",
    "ModelMatrix",
    "RunConfig",
    "ServeConfig",
    "ServiceError",
    "ServiceSaturated",
    "Session",
    "SessionStats",
    "UnknownNameError",
    "VerdictService",
    "WitnessSpec",
    "ZOO_MODELS",
    "ZooModel",
    "__version__",
    "build_matrix",
    "concrete_observations",
    "containment_claims",
    "engine_names",
    "engines_for_model",
    "freeze_opts",
    "model_names",
    "regression_corpus",
    "resolve_engine",
    "resolve_model",
    "run_farm",
    "run_litmus",
    "run_suite",
    "sensitivity_matrix",
    "serve_forever",
    "start_in_thread",
    "summarize",
    "undetected_axioms",
    "write_corpus",
    "zoo_names",
    "zoo_outcomes",
]
