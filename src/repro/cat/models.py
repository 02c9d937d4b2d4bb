"""The shipped model library: cat views of the spec modules.

Every model is defined once, as relational ASTs in a spec module:
:mod:`repro.ptx.spec`, :mod:`repro.tso.spec`, :mod:`repro.scmodel.spec`
and :mod:`repro.rc11.spec`, where IMM and the repaired-SC model extend
RC11 with its own relation objects.  :func:`load_model` wraps a spec's
``DERIVED`` and ``AXIOMS`` tables in a :class:`CatModel` without source
text or parsing, so the zoo engine, the matrix and the CLI read the same
AST objects the native engines, the SAT translator and the proof kernel
read.  Cat is the text form of a model, in and out:
:func:`repro.cat.unparse.catmodel_to_cat` prints one and
:func:`repro.cat.parse_cat` reads it back.
"""

from __future__ import annotations

import functools
import importlib

from .parser import CatModel

#: model name -> (display name, spec module, prefix of its tables)
_SPECS = {
    "ptx": ("PTX", "..ptx.spec", ""),
    "tso": ("TSO", "..tso.spec", ""),
    "sc": ("SC", "..scmodel.spec", ""),
    "scoped-rc11": ("scoped-RC11", "..rc11.spec", ""),
    "imm": ("IMM", "..rc11.spec", "IMM_"),
    "scoped-rc11-sc": ("scoped-RC11-SC", "..rc11.spec", "REPAIRED_SC_"),
}


@functools.lru_cache(maxsize=None)
def load_model(name: str) -> CatModel:
    """The shipped model ``name`` as a :class:`CatModel`.

    Cached: the compiled kernel (:mod:`repro.lang.compile`) dispatches
    generated functions by AST node *identity*, so repeated loads must
    return the same objects for its template/instance caches to hit.
    """
    try:
        title, module, prefix = _SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown cat model {name!r}; have {sorted(_SPECS)}"
        ) from None
    spec = importlib.import_module(module, __package__)
    return CatModel(
        name=title,
        definitions=tuple(getattr(spec, prefix + "DERIVED").items()),
        constraints=tuple(getattr(spec, prefix + "AXIOMS").items()),
    )


def available_models():
    """Names of the shipped models."""
    return tuple(sorted(_SPECS))
