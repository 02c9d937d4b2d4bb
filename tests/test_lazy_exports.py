"""The packages' lazy (PEP 562) export surface.

Each converted package names its exports in ``_EXPORTS`` (module -> names)
and resolves them on first access.  The checks that depend on what a fresh
interpreter has imported run in a subprocess.
"""

import importlib
import os
import subprocess
import sys
import textwrap

import pytest

LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.ptx",
    "repro.relation",
    "repro.lang",
    "repro.search",
    "repro.litmus",
    "repro.sat",
    "repro.cert",
    "repro.rc11",
    "repro.tso",
    "repro.scmodel",
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_all_is_exactly_the_export_table(name):
    package = importlib.import_module(name)
    exported = {
        entry.partition("=")[0]
        for names in package._EXPORTS.values()
        for entry in names
    }
    assert exported == set(package.__all__)
    assert len(package.__all__) == len(set(package.__all__))


def test_exports_survive_every_submodule_import():
    """Importing a submodule binds it on its package, so a submodule
    named like an export would shadow it: every exported name must still
    be the object its defining module binds."""
    out = run_python(
        f"""
        import importlib, pkgutil, types

        packages = {LAZY_PACKAGES!r}
        for name in packages:
            package = importlib.import_module(name)
            for info in pkgutil.iter_modules(package.__path__):
                if info.name == "__main__":  # runs the CLI
                    continue
                importlib.import_module(f"{{name}}.{{info.name}}")
        wrong = []
        for name in packages:
            package = importlib.import_module(name)
            for module, entries in package._EXPORTS.items():
                source = importlib.import_module(module, name)
                for entry in entries:
                    alias, _, attribute = entry.partition("=")
                    value = getattr(package, alias)
                    if (isinstance(value, types.ModuleType)
                            or value is not getattr(source, attribute or alias)):
                        wrong.append(f"{{name}}.{{alias}}")
        print("WRONG", *wrong)
        """
    )
    assert out.split() == ["WRONG"]


@pytest.mark.parametrize("name", ["repro", "repro.litmus"])
def test_star_import_binds_every_name(name):
    package = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    for export in package.__all__:
        assert namespace[export] is getattr(package, export)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_dir_lists_every_export(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_unknown_attribute_raises(name):
    package = importlib.import_module(name)
    assert not hasattr(package, "no_such_export")
    with pytest.raises(AttributeError, match="no_such_export"):
        package.no_such_export


def test_first_access_loads_only_the_defining_module():
    out = run_python(
        """
        import sys
        import repro.litmus

        before = set(sys.modules)
        repro.litmus.RunConfig
        print(*sorted(m for m in set(sys.modules) - before
                      if m.startswith("repro")))
        """
    )
    loaded = out.split()
    assert "repro.litmus.config" in loaded
    assert [m for m in loaded if m.startswith("repro.litmus.")] == [
        "repro.litmus.config"
    ]


def test_version_is_eager():
    out = run_python(
        """
        import sys
        import repro

        print(repro.__version__, *sorted(m for m in sys.modules
                                         if m.startswith("repro")))
        """
    )
    version, *loaded = out.split()
    assert version and loaded == ["repro"]
    assert "__version__" in dir(importlib.import_module("repro"))


def test_record_modules_import_only_the_standard_library():
    out = run_python(
        """
        import sys
        import repro.cert.records, repro.sat.records, repro.search.records

        print(*sorted(m for m in sys.modules if m.startswith("repro")))
        """
    )
    assert out.split() == [
        "repro", "repro.cert", "repro.cert.records", "repro.core",
        "repro.core.counters", "repro.sat", "repro.sat.records",
        "repro.search", "repro.search.records",
    ]


def test_shipped_models_load_no_native_checker():
    """The model library reads the spec modules only: loading every
    shipped model imports no native checker, elaborator or event type."""
    out = run_python(
        """
        import sys
        from repro.cat.models import available_models, load_model

        before = set(sys.modules)
        for name in available_models():
            load_model(name)
        print(*sorted(m for m in set(sys.modules) - before
                      if m.startswith("repro")))
        """
    )
    assert out.split() == [
        "repro.ptx", "repro.ptx.spec", "repro.rc11", "repro.rc11.spec",
        "repro.scmodel",
        "repro.scmodel.spec", "repro.tso", "repro.tso.spec",
    ]


def test_old_record_import_paths_are_the_same_classes():
    from repro.cert import records as cert_records
    from repro.cert import verdict
    from repro.sat import records as sat_records
    from repro.sat import solver
    from repro.search import ptx_search
    from repro.search import records as search_records

    assert verdict.Certificate is cert_records.Certificate
    assert verdict.skipped_certificate is cert_records.skipped_certificate
    assert solver.SolverStats is sat_records.SolverStats
    assert ptx_search.Outcome is search_records.Outcome
    assert ptx_search.EnumStats is search_records.EnumStats
    assert ptx_search.register_sort_key is search_records.register_sort_key
