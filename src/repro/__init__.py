"""repro — a formal analysis toolkit for the NVIDIA PTX memory model.

A from-scratch Python reproduction of *"A Formal Analysis of the NVIDIA PTX
Memory Consistency Model"* (Lustig, Sahasrabuddhe, Giroux — ASPLOS 2019):

* :mod:`repro.ptx` — the axiomatic PTX 6.0 memory model (§3);
* :mod:`repro.rc11` — the scope-extended RC11 "scoped C++" model (§4.1);
* :mod:`repro.mapping` — the Figure 11 compilation mapping, execution
  lifting, and the bounded empirical soundness checker (§4.2, §6.1);
* :mod:`repro.litmus` — litmus tests: DSL, text parser, standard suite,
  multi-model runner;
* :mod:`repro.search` — herd-style exhaustive candidate-execution
  enumeration, including PTX's runtime-partial ``co``/``sc`` orders;
* :mod:`repro.lang` + :mod:`repro.kodkod` + :mod:`repro.sat` — the
  Alloy-analog relational language, a Kodkod-style bounded model finder,
  and a from-scratch CDCL SAT solver underneath it (§5.1–5.2);
* :mod:`repro.proof` — an LCF-style proof kernel plus the §6.2 soundness
  theorems (the alloqc/Coq analog);
* :mod:`repro.tso`, :mod:`repro.scmodel` — the TSO (Figure 2) and SC
  baseline models.

``import repro`` is cheap: each exported name, here and in the
subpackages, resolves on first use and loads only the modules that
define it (:func:`_lazy_exports`).

Quickstart::

    from repro import ptx_builder, allowed_outcomes, Scope, Sem, device_thread

    t0, t1 = device_thread(0, 0, 0), device_thread(0, 1, 0)
    mp = (ptx_builder("MP")
          .thread(t0).st("x", 1).st("y", 1, sem=Sem.RELEASE, scope=Scope.GPU)
          .thread(t1).ld("r1", "y", sem=Sem.ACQUIRE, scope=Scope.GPU).ld("r2", "x")
          .build())
    for outcome in sorted(allowed_outcomes(mp), key=repr):
        print(outcome)
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

__version__ = "1.0.0"


def _lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package's public names.

    ``exports`` maps a module, relative to ``package``, to the names the
    package re-exports from it; ``"alias=name"`` exports the module's
    ``name`` as ``alias``.  A name's module is imported on its first
    access, and the value is then bound in the package, so later lookups
    never reach ``__getattr__``.  The packages a command passes through
    all export this way, so a command loads only the modules it runs.
    """
    table: Dict[str, Tuple[str, str]] = {}
    for module, names in exports.items():
        for entry in names:
            alias, _, name = entry.partition("=")
            table[alias] = (module, name or alias)

    def __getattr__(name: str) -> object:
        try:
            module, attribute = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), attribute)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__


#: module (relative to this package) -> the names exported from it
_EXPORTS = {
    ".core.scopes": (
        "Scope", "SystemShape", "ThreadId", "device_thread", "host_thread",
    ),
    ".litmus.conditions": ("parse_condition",),
    ".litmus.parser": ("parse_litmus",),
    ".litmus.runner": ("run_litmus", "run_suite", "summarize"),
    ".litmus.suite": ("SUITE",),
    ".litmus.test": ("Expect", "LitmusTest", "make_test"),
    ".mapping.checker": ("check_mapping", "check_mapping_axiom"),
    ".mapping.compiler": ("BUGGY_RMW_SC", "DESCOPED", "STANDARD", "compile_program"),
    ".mapping.lifting": ("lift_candidate",),
    ".ptx.events": ("Sem",),
    ".ptx.program": ("ptx_builder=ProgramBuilder",),
    ".rc11.events": ("MemOrder",),
    ".rc11.program": ("cpp_builder=CProgramBuilder",),
    ".search.ptx_search": ("allowed_outcomes", "candidate_executions"),
    ".search.rc11_search": ("c_allowed_outcomes",),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "BUGGY_RMW_SC",
    "DESCOPED",
    "Expect",
    "LitmusTest",
    "MemOrder",
    "STANDARD",
    "SUITE",
    "Scope",
    "Sem",
    "SystemShape",
    "ThreadId",
    "allowed_outcomes",
    "c_allowed_outcomes",
    "candidate_executions",
    "check_mapping",
    "check_mapping_axiom",
    "compile_program",
    "cpp_builder",
    "device_thread",
    "host_thread",
    "lift_candidate",
    "make_test",
    "parse_condition",
    "parse_litmus",
    "ptx_builder",
    "run_litmus",
    "run_suite",
    "summarize",
]
