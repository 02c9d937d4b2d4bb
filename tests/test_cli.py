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
