"""End-to-end verdict certification: runner, session, cache, serialization."""

import dataclasses
import io

import pytest

import repro.cert.verdict as verdict_mod
from repro.cert import (
    Certificate,
    CheckFailure,
    certify_enumeration,
    certify_symbolic,
    skipped_certificate,
)
from repro.litmus import BY_NAME, Expect, RunConfig, Session, run_litmus
from repro.litmus.cache import ResultCache, cache_key
from repro.litmus.serialize import (
    certificate_from_dict,
    certificate_to_dict,
    result_from_dict,
    result_to_dict,
)

FORBIDDEN_SYMBOLIC = "MP+rel_acq.gpu"
ALLOWED_SYMBOLIC = "MP+weak"
FALLBACK = "CAS+handoff"  # data-dependent RMW: not relationally encodable

CERTIFY = RunConfig(certify=True)


class TestCertifySymbolic:
    def test_forbidden_gets_verified_unsat_certificate(self):
        observed, certificate, stats = certify_symbolic(
            BY_NAME[FORBIDDEN_SYMBOLIC]
        )
        assert observed is False
        assert certificate.polarity == "unsat"
        assert certificate.verified
        assert certificate.digest and certificate.steps >= 1
        assert certificate.clauses > 0

    def test_allowed_gets_verified_witness_certificate(self):
        observed, certificate, stats = certify_symbolic(
            BY_NAME[ALLOWED_SYMBOLIC]
        )
        assert observed is True
        assert certificate.polarity == "sat"
        assert certificate.verified

    def test_unsupported_condition_raises_before_solving(self):
        from repro.kodkod.litmus import UnsupportedCondition

        with pytest.raises(UnsupportedCondition):
            certify_symbolic(BY_NAME[FALLBACK])

    def test_format_is_one_line(self):
        _, certificate, _ = certify_symbolic(BY_NAME[FORBIDDEN_SYMBOLIC])
        assert "\n" not in certificate.format()
        assert "unsat/verified" in certificate.format()


class TestCertifiedRunner:
    def test_certified_forbidden_run(self):
        result = run_litmus(BY_NAME[FORBIDDEN_SYMBOLIC], config=CERTIFY)
        assert result.verdict is Expect.FORBIDDEN
        assert result.status == "ok"
        assert result.certificate.verified
        assert result.certificate.polarity == "unsat"

    def test_certified_allowed_run(self):
        result = run_litmus(BY_NAME[ALLOWED_SYMBOLIC], config=CERTIFY)
        assert result.verdict is Expect.ALLOWED
        assert result.certificate.verified
        assert result.certificate.polarity == "sat"

    def test_verdict_matches_uncertified_run(self):
        for name in (FORBIDDEN_SYMBOLIC, ALLOWED_SYMBOLIC, FALLBACK):
            plain = run_litmus(BY_NAME[name])
            certified = run_litmus(BY_NAME[name], config=CERTIFY)
            assert certified.verdict is plain.verdict
            assert certified.observed == plain.observed

    def test_fallback_test_gets_skipped_certificate(self):
        result = run_litmus(BY_NAME[FALLBACK], config=CERTIFY)
        assert result.status == "ok"
        cert = result.certificate
        assert cert is not None and cert.status == "skipped"
        assert not cert.verified and not cert.failed
        assert "condition not relationally encodable" in cert.detail

    def test_non_ptx_model_gets_skipped_certificate(self):
        result = run_litmus(
            BY_NAME[FORBIDDEN_SYMBOLIC], config=CERTIFY.for_model("sc")
        )
        assert result.status == "ok"
        assert result.certificate.status == "skipped"
        assert "no symbolic encoding" in result.certificate.detail

    def test_failed_certificate_downgrades_to_error(self, monkeypatch):
        def forged(num_vars, clauses, steps):
            raise CheckFailure("injected checker failure")

        monkeypatch.setattr(verdict_mod, "check_unsat_proof", forged)
        result = run_litmus(BY_NAME[FORBIDDEN_SYMBOLIC], config=CERTIFY)
        assert result.status == "error"
        assert result.certificate.failed
        assert "injected checker failure" in result.detail

    def test_plain_run_carries_no_certificate(self):
        result = run_litmus(BY_NAME[FORBIDDEN_SYMBOLIC])
        assert result.certificate is None


class TestCertifyEnumeration:
    def test_completeness_certificate_verifies(self):
        found, certificate = certify_enumeration(BY_NAME["IRIW+rel_acq"])
        assert certificate.verified
        assert certificate.polarity == "unsat"
        assert len(found) >= 1

    def test_instances_match_uncertified_enumeration(self):
        from repro.kodkod.litmus import symbolic_consistent_instances

        found, _ = certify_enumeration(BY_NAME[FORBIDDEN_SYMBOLIC])
        plain = symbolic_consistent_instances(BY_NAME[FORBIDDEN_SYMBOLIC])
        as_sets = lambda insts: {
            frozenset(
                (name, frozenset(rel.tuples))
                for name, rel in inst.relations.items()
            )
            for inst in insts
        }
        assert as_sets(found) == as_sets(plain)


class TestSerialization:
    def test_certificate_round_trip(self):
        cert = Certificate(
            polarity="unsat",
            status="verified",
            digest="ab" * 32,
            steps=7,
            clauses=290,
            check_time=0.012,
            detail=None,
        )
        assert certificate_from_dict(certificate_to_dict(cert)) == cert

    def test_skipped_certificate_round_trip(self):
        cert = skipped_certificate("why not")
        assert certificate_from_dict(certificate_to_dict(cert)) == cert

    def test_result_round_trip_preserves_certificate(self):
        result = run_litmus(BY_NAME[FORBIDDEN_SYMBOLIC], config=CERTIFY)
        restored = result_from_dict(result_to_dict(result))
        assert restored.certificate == result.certificate
        assert restored == result

    def test_result_without_certificate_round_trips(self):
        result = run_litmus(BY_NAME[FORBIDDEN_SYMBOLIC])
        restored = result_from_dict(result_to_dict(result))
        assert restored.certificate is None

    def test_legacy_payload_without_certificate_key(self):
        result = run_litmus(BY_NAME[FORBIDDEN_SYMBOLIC])
        payload = result_to_dict(result)
        payload.pop("certificate", None)
        assert result_from_dict(payload).certificate is None


class TestCertifiedSession:
    SUBSET = [
        BY_NAME[FORBIDDEN_SYMBOLIC],
        BY_NAME[ALLOWED_SYMBOLIC],
        BY_NAME[FALLBACK],
    ]

    def test_counters_tally_certificates(self):
        with Session(CERTIFY) as session:
            results = session.run_suite(self.SUBSET)
        assert session.stats.certified == 2
        assert session.stats.cert_failed == 0
        assert session.stats.cert_skipped == 1
        assert all(r.certificate is not None for r in results)

    def test_stats_format_mentions_certificates(self):
        with Session(CERTIFY) as session:
            session.run_suite(self.SUBSET[:1])
        assert "certified=1" in session.stats.format()

    def test_parallel_certified_matches_sequential(self):
        with Session(CERTIFY) as session:
            sequential = session.run_suite(self.SUBSET)
        with Session(CERTIFY.evolve(jobs=2)) as session:
            parallel = session.run_suite(self.SUBSET)
        def strip(results):
            # elapsed, solve_time and check_time are wall-clock noise
            stripped = []
            for r in results:
                cert = r.certificate
                if cert is not None:
                    cert = dataclasses.replace(cert, check_time=0.0)
                stats = r.solver_stats
                if stats is not None:
                    stats = stats.copy()
                    stats.solve_time = 0.0
                stripped.append(
                    dataclasses.replace(
                        r, elapsed=None, certificate=cert, solver_stats=stats
                    )
                )
            return stripped

        assert strip(parallel) == strip(sequential)


class TestCertifiedCaching:
    def test_cache_key_discriminates_certify(self):
        test = BY_NAME[FORBIDDEN_SYMBOLIC]
        key = cache_key(test, "ptx", "enumerative", {}, kernel="compiled")
        assert key != cache_key(
            test, "ptx", "enumerative", {}, certify=True, kernel="compiled"
        )

    def test_certified_result_survives_cache(self, tmp_path):
        test = BY_NAME[FORBIDDEN_SYMBOLIC]
        cache = ResultCache(tmp_path / "cache")
        result = run_litmus(test, config=CERTIFY)
        key = cache_key(
            test, "ptx", "enumerative", {}, certify=True, kernel="compiled"
        )
        cache.put(key, result)
        cached = cache.get(key, test)
        assert cached == result
        assert cached.certificate.verified

    def test_session_cache_hit_keeps_certificate(self, tmp_path):
        config = CERTIFY.evolve(use_cache=True, cache_dir=str(tmp_path))
        with Session(config) as session:
            first = session.run_suite(self.subset())
        with Session(config) as session:
            second = session.run_suite(self.subset())
            assert session.cache.stats.hits == len(second)
        assert [r.certificate for r in second] == [
            r.certificate for r in first
        ]

    @staticmethod
    def subset():
        return [BY_NAME[FORBIDDEN_SYMBOLIC], BY_NAME[ALLOWED_SYMBOLIC]]
