"""Pinned enumerator work: every EnumStats field, test by test.

``tests/enum_stats_golden.json`` records, for the suite, CORPUS4 and the
committed regression corpus, the outcome digest and every
:class:`~repro.search.records.EnumStats` field of the PTX enumerative
engine (compiled kernel) and of the rf-check engine.  A refactoring of
the staged enumeration must leave all of them exactly as they were:
the counters say how much work each prune saved, so a prune that stops
firing shows here even when the outcomes stay right.

Regenerate (only when a change to the counters is intended, and say
why in CHANGES.md)::

    PYTHONPATH=src python tests/test_enum_stats_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("enum_stats_golden.json")


def _corpus():
    from repro.litmus.corpus import corpus_length4, regression_corpus
    from repro.litmus.suite import SUITE

    tests = [("suite", t) for t in SUITE]
    tests += [(f"corpus4/{variant}", g.test)
              for _, variant, g in corpus_length4()]
    tests += [("regression", t) for t in regression_corpus(
        str(Path(__file__).with_name("regression_corpus"))
    )]
    return tests


def _digest(outcomes) -> str:
    text = "\n".join(sorted(repr(outcome) for outcome in outcomes))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def measure():
    """``{engine: {"<group>/<test>": {"outcomes": digest, **stats}}}``."""
    from repro.registry import partition_opts
    from repro.search.ptx_search import allowed_outcomes
    from repro.search.records import EnumStats
    from repro.search.rf_check import rf_check_outcomes

    engines = {"ptx": allowed_outcomes, "ptx-rf-check": rf_check_outcomes}
    table = {name: {} for name in engines}
    for group, test in _corpus():
        opts, _ = partition_opts("ptx", dict(test.search_opts))
        for name, run in engines.items():
            stats = EnumStats()
            outcomes = run(test.program, kernel="compiled", stats=stats, **opts)
            table[name][f"{group}/{test.name}"] = {
                "outcomes": _digest(outcomes), **stats.as_dict(),
            }
    return table


@pytest.mark.slow
@pytest.mark.parametrize("engine", ["ptx", "ptx-rf-check"])
def test_enum_stats_match_the_golden(engine):
    golden = json.loads(GOLDEN.read_text())[engine]
    measured = measure()[engine]
    assert sorted(measured) == sorted(golden)
    drift = {
        key: (golden[key], measured[key])
        for key in golden
        if measured[key] != golden[key]
    }
    assert not drift, f"{len(drift)} test(s) drifted: {drift}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_enum_stats_golden.py --write")
    # one line per test, so a drift diff names its tests
    sections = []
    for engine, rows in sorted(measure().items()):
        body = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(row, sort_keys=True)}"
            for key, row in sorted(rows.items())
        )
        sections.append(f" {json.dumps(engine)}: {{\n{body}\n }}")
    GOLDEN.write_text("{\n" + ",\n".join(sections) + "\n}\n")
    print(f"wrote {GOLDEN}")
