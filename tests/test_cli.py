"""Tests for the command-line interface."""

import pytest

pytestmark = pytest.mark.slow

from repro.cli import main


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch, tmp_path):
    """The suite/compare commands cache by default; keep tests off ~/.cache."""
    monkeypatch.setenv("PTXMM_CACHE_DIR", str(tmp_path / "ptxmm-cache"))

MP_FILE = """
ptx test MP
thread d0c0t0
  st.weak [x], 1
  st.release.gpu [y], 1
thread d0c1t0
  ld.acquire.gpu r1, [y]
  ld.weak r2, [x]
forbidden: 1:r1=1 & 1:r2=0
"""


class TestProofsCommand:
    def test_exit_zero(self, capsys):
        assert main(["proofs"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1" in out and "lemmas" in out

    def test_verbose_lists_hypotheses(self, capsys):
        assert main(["proofs", "--verbose"]) == 0
        assert "hb_l" in capsys.readouterr().out


class TestIsa2Command:
    def test_demonstrates_figure_12(self, capsys):
        assert main(["isa2"]) == 0
        out = capsys.readouterr().out
        assert "counterexample found" in out
        assert "no counterexample" in out


class TestMappingCommand:
    def test_bound_1_clean(self, capsys):
        assert main(["mapping", "--bound", "1"]) == 0
        out = capsys.readouterr().out
        assert "holds" in out and "Coherence" in out

    def test_descoped_variant(self, capsys):
        assert main(["mapping", "--bound", "1", "--descoped"]) == 0
        assert "de-scoped" in capsys.readouterr().out


class TestRunCommand:
    def test_runs_litmus_file(self, tmp_path, capsys):
        path = tmp_path / "mp.litmus"
        path.write_text(MP_FILE)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "forbidden" in out

    def test_outcomes_flag(self, tmp_path, capsys):
        path = tmp_path / "mp.litmus"
        path.write_text(MP_FILE)
        assert main(["run", str(path), "--outcomes"]) == 0
        assert "Outcome" in capsys.readouterr().out

    def test_other_model(self, tmp_path, capsys):
        path = tmp_path / "mp.litmus"
        path.write_text(MP_FILE)
        assert main(["run", str(path), "--model", "sc"]) == 0

    def test_stats_flag(self, tmp_path, capsys):
        path = tmp_path / "mp.litmus"
        path.write_text(MP_FILE)
        assert main(["run", str(path), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "elapsed" in out and "engine" in out

    def test_symbolic_engine_with_stats(self, tmp_path, capsys):
        path = tmp_path / "mp.litmus"
        path.write_text(MP_FILE)
        assert main(
            ["run", str(path), "--engine", "symbolic", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "forbidden" in out
        assert "sat" in out and "conflicts" in out  # SolverStats.format()


class TestRunErrors:
    """Unreadable or malformed input to ``run`` prints
    ``error: <file>: <message>`` and exits 2, with no traceback."""

    def _error(self, capsys, path) -> str:
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith(f"error: {path}: ")
        return captured.err

    def test_missing_file(self, tmp_path, capsys):
        err = self._error(capsys, tmp_path / "missing.litmus")
        assert "No such file or directory" in err

    def test_directory(self, tmp_path, capsys):
        err = self._error(capsys, tmp_path)
        assert "Is a directory" in err

    def test_malformed_text(self, tmp_path, capsys):
        path = tmp_path / "notes.litmus"
        path.write_text("this is not a litmus test\n")
        err = self._error(capsys, path)
        assert "this is not a litmus test" in err


class TestUnusableCacheDir:
    """A ``--cache-dir`` that cannot be a directory fails before any test
    runs, with exit 2 (exit 1 means a verdict mismatch)."""

    @pytest.fixture(params=["under-a-file", "is-a-file"])
    def bad_dir(self, request, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        return str(blocker / "x" if request.param == "under-a-file" else blocker)

    def test_suite(self, bad_dir, capsys):
        assert main(["suite", "--cache-dir", bad_dir]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cache directory {bad_dir}: ")

    def test_compare(self, bad_dir, capsys):
        assert main(["compare", "tso", "sc", "--cache-dir", bad_dir]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cache directory {bad_dir}: ")

    def test_no_cache_ignores_the_directory(self, bad_dir, capsys):
        assert main(
            ["suite", "--models", "sc", "--no-cache", "--cache-dir", bad_dir]
        ) == 0


class TestSuiteCommand:
    def test_runs_clean(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "all verdicts match" in out

    def test_stats_flag(self, capsys):
        assert main(["suite", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "conflicts" in out and "total search time" in out
        assert "session:" in out and "cache  :" in out

    def test_parallel_jobs_end_to_end(self, capsys):
        assert main(["suite", "--jobs", "2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "all verdicts match" in out

    def test_cache_round_trip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "explicit-cache")
        assert main(["suite", "--cache-dir", cache_dir, "--stats"]) == 0
        cold = capsys.readouterr().out
        assert "cache_misses=41" in cold
        assert cache_dir in cold
        assert main(["suite", "--cache-dir", cache_dir, "--stats"]) == 0
        warm = capsys.readouterr().out
        assert "cache_hits=41" in warm and "cache_misses=0" in warm
        assert "all verdicts match" in warm

    def test_no_cache_leaves_no_entries(self, tmp_path, capsys):
        cache_dir = tmp_path / "untouched"
        assert main(
            ["suite", "--no-cache", "--cache-dir", str(cache_dir)]
        ) == 0
        assert not cache_dir.exists()

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_retired_bit_kernel_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["suite", "--kernel", "bit"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bit'" in capsys.readouterr().err


class TestRunTimeout:
    def test_timeout_reports_verdict_and_exit_2(self, tmp_path, capsys):
        path = tmp_path / "mp.litmus"
        path.write_text(MP_FILE)
        assert main(["run", str(path), "--timeout", "0.000001"]) == 2
        captured = capsys.readouterr()
        assert "verdict    : timeout" in captured.out
        assert "exceeded" in captured.err

    def test_generous_timeout_unchanged(self, tmp_path, capsys):
        path = tmp_path / "mp.litmus"
        path.write_text(MP_FILE)
        assert main(["run", str(path), "--timeout", "600"]) == 0
        assert "forbidden" in capsys.readouterr().out


class TestCompareCommand:
    def test_finds_tso_sc_distinction_parallel(self, capsys):
        assert main(
            ["compare", "tso", "sc", "--jobs", "2", "--no-cache",
             "--limit", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "tso=allowed, sc=forbidden" in out


class TestFuzzCommands:
    """Bad input to ``fuzz`` and ``farm`` prints ``error:`` and exits 2."""

    def test_recheck_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.litmus")
        assert main(["fuzz", "--recheck", missing]) == 2
        # the same form as ``run``: error: <file>: <message>
        assert f"error: {missing}: " in capsys.readouterr().err

    def test_recheck_non_litmus_file(self, tmp_path, capsys):
        path = tmp_path / "notes.litmus"
        path.write_text("this is not a litmus test\n")
        assert main(["fuzz", "--recheck", str(path)]) == 2
        assert f"error: {path}: " in capsys.readouterr().err

    def test_no_steer_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["farm", "--no-steer"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flags", [["--round-size", "0"], ["--boost", "-1"]]
    )
    def test_bad_farm_shape_rejected(self, flags, capsys):
        # a wall-clock budget keeps an unvalidated run finite
        assert main(["farm", "--budget", "1s", *flags]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_checkpoint_rejected(self, tmp_path, capsys):
        path = tmp_path / "farm.json"
        path.write_text("[1, 2]")
        assert main(["farm", "--budget", "1", "--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and str(path) in err


def _loaded_after(code: str):
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    from tests.test_lazy_exports import run_python

    out = run_python(f"import sys\n{code}\nprint('MODULES', *sorted(sys.modules))")
    modules = out.rsplit("MODULES", 1)[1].split()
    return [m for m in modules if m == "repro" or m.startswith("repro.")]


def _matching(loaded, prefixes):
    return [
        name for name in loaded
        if any(name == prefix or name.startswith(prefix + ".")
               for prefix in prefixes)
    ]


class TestImportBoundary:
    """Each command imports only the modules it runs: every command's
    start-up pays for what it imports, so the engines, the cat front end,
    the fuzzing farm and the verdict service load only when a command
    reaches them."""

    def test_cli_import_loads_no_lazy_subsystem(self):
        # every package export is lazy, so no subsystem loads at all
        assert _loaded_after("import repro.cli") == ["repro", "repro.cli"]

    def test_run_loads_no_unused_engine(self, tmp_path):
        path = tmp_path / "mp.litmus"
        path.write_text(MP_FILE)
        loaded = _loaded_after(
            "from repro.cli import main\n"
            f"assert main(['run', {str(path)!r}]) == 0"
        )
        assert "repro.search.ptx_search" in loaded
        assert _matching(loaded, (
            "repro.cert.verdict", "repro.kodkod", "repro.sat.solver",
            "repro.mapping", "repro.rc11", "repro.search.rc11_search",
            "repro.litmus.compare", "repro.litmus.explanation",
            "repro.litmus.generator", "repro.lang.export",
            "repro.cat", "repro.zoo.engine", "repro.fuzz", "repro.serve",
        )) == []

    def test_warm_suite_loads_no_engine(self, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["suite", "--cache-dir", cache]) == 0
        loaded = _loaded_after(
            "from repro.cli import main\n"
            f"assert main(['suite', '--cache-dir', {cache!r}]) == 0"
        )
        assert "repro.litmus.cache" in loaded
        assert _matching(
            loaded, ("repro.search.ptx_search", "repro.lang")
        ) == []
