"""repro.zoo — the model zoo: memory models as data, compared N×N.

The zoo turns model registration into declaration: a
:class:`~repro.zoo.model.ZooModel` names a spec-defined model, an event
signature (set predicates + base-relation builders from the shared
registries), a witness spec, and optional containment claims.  The
generic engine (:func:`zoo_outcomes`) enumerates any declared model; the
conformance matrix (:func:`~repro.zoo.matrix.build_matrix`) compares all
of them pairwise with witness litmus tests; the fuzz oracle derives a
cross-model check from every declared claim.

The declarations (:mod:`.model`, :mod:`.models`) import eagerly — they
are pure data, cheap enough for the registry.  The engine and matrix
load lazily on first attribute access so ``import repro.registry`` does
not pay for the search machinery.
"""

from .. import _lazy_exports
from .model import Claim, EventSignature, RfDoom, WitnessSpec, ZooModel
from .models import (
    ZOO,
    ZOO_MODELS,
    containment_claims,
    resolve_zoo,
    zoo_names,
)

#: loaded from :mod:`.engine` / :mod:`.matrix` on first access
_EXPORTS = {
    ".engine": (
        "BUILDERS", "PREDICATES", "concrete_observations", "zoo_candidates",
        "zoo_outcomes",
    ),
    ".matrix": ("ModelMatrix", "MatrixCell", "build_matrix", "matrix_corpus"),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Claim",
    "EventSignature",
    "RfDoom",
    "WitnessSpec",
    "ZOO",
    "ZOO_MODELS",
    "ZooModel",
    "containment_claims",
    "resolve_zoo",
    "zoo_names",
    *sorted(name for names in _EXPORTS.values() for name in names),
]
