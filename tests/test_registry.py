"""The model/engine registry: one table, uniform errors, capability flags."""

import pytest

from repro.registry import (
    DEFAULT_KERNEL,
    ENGINES,
    MODELS,
    UnknownNameError,
    engine_names,
    engines_for_model,
    kernel_names,
    model_names,
    partition_opts,
    resolve_engine,
    resolve_model,
)


class TestNames:
    def test_model_names_sorted_and_complete(self):
        names = model_names()
        assert names == tuple(sorted(MODELS))
        for expected in ("ptx", "ptx-legacy", "tso", "sc", "sc-op", "tso-op"):
            assert expected in names

    def test_engine_names_registration_order(self):
        names = engine_names()
        assert set(names) == set(ENGINES)
        assert names[0] == "enumerative"
        for expected in ("symbolic", "symbolic-enum", "rf-check"):
            assert expected in names

    def test_kernels_are_compiled_and_its_set_reference(self):
        assert kernel_names() == ("set", "compiled")
        assert DEFAULT_KERNEL == "compiled"


class TestResolution:
    def test_resolve_known(self):
        assert resolve_model("ptx").name == "ptx"
        assert resolve_engine("rf-check").name == "rf-check"

    def test_unknown_model_uniform_message(self):
        with pytest.raises(UnknownNameError) as excinfo:
            resolve_model("armv8")
        message = str(excinfo.value)
        assert "unknown model 'armv8'" in message
        # the error teaches the valid vocabulary
        for name in model_names():
            assert name in message

    def test_unknown_engine_uniform_message(self):
        with pytest.raises(UnknownNameError) as excinfo:
            resolve_engine("quantum")
        message = str(excinfo.value)
        assert "unknown engine 'quantum'" in message
        for name in engine_names():
            assert name in message

    def test_unknown_name_satisfies_both_legacy_contracts(self):
        """Callers historically caught KeyError (dict lookups) or
        ValueError (validation) — the uniform error satisfies both."""
        with pytest.raises(KeyError):
            resolve_model("nope")
        with pytest.raises(ValueError):
            resolve_model("nope")
        with pytest.raises(KeyError):
            resolve_engine("nope")
        with pytest.raises(ValueError):
            resolve_engine("nope")


class TestCapabilities:
    def test_ptx_only_flags(self):
        assert not resolve_engine("enumerative").ptx_only
        assert resolve_engine("symbolic").ptx_only
        assert resolve_engine("symbolic-enum").ptx_only
        assert resolve_engine("rf-check").ptx_only

    def test_certifiable_flag(self):
        assert resolve_engine("symbolic").certifiable
        assert not resolve_engine("enumerative").certifiable

    def test_supports_outcomes_flag(self):
        # the verdict-only SAT engine cannot report the outcome set
        assert not resolve_engine("symbolic").supports_outcomes
        assert resolve_engine("enumerative").supports_outcomes
        assert resolve_engine("symbolic-enum").supports_outcomes
        assert resolve_engine("rf-check").supports_outcomes

    def test_engines_for_model(self):
        for_ptx = engines_for_model("ptx")
        assert set(for_ptx) == set(engine_names())
        for_tso = engines_for_model("tso")
        assert for_tso == ("enumerative",)


class TestPartitionOpts:
    def test_ptx_keeps_its_options(self):
        kept, dropped = partition_opts("ptx", {"skip_axioms": ("sc",)})
        assert kept == {"skip_axioms": ("sc",)}
        assert dropped == ()

    def test_foreign_options_dropped_not_fatal(self):
        kept, dropped = partition_opts("sc", {"skip_axioms": ("sc",)})
        assert kept == {}
        assert dropped == ("skip_axioms",)

    def test_unknown_option_raises(self):
        with pytest.raises(ValueError, match="bogus_option"):
            partition_opts("ptx", {"bogus_option": 1})


class TestDataDrivenDispatch:
    def test_every_engine_has_a_callable(self):
        for name in engine_names():
            assert callable(resolve_engine(name).run)

    def test_every_model_has_a_callable(self):
        for name in model_names():
            assert callable(resolve_model(name).run)

    def test_specs_carry_descriptions(self):
        for name in engine_names():
            assert resolve_engine(name).description
        for name in model_names():
            assert resolve_model(name).description
