"""Request/response schemas for the verdict service (wire format v1).

Requests are JSON objects.  A *query* names a litmus test one of three
ways — ``"name"`` (a standard-suite test), ``"test"`` (a full serialized
test, :func:`~repro.litmus.serialize.test_to_dict` shape) or
``"litmus"`` (litmus source text) — plus optional execution fields
``model`` / ``engine`` / ``search_opts`` / ``timeout`` / ``certify``
layered over the service's base config.

Every query resolves to a **content-addressed request key**: the same
``cache_key`` the on-disk cache and :class:`~repro.litmus.session.Session`
compute, over the *merged and filtered* options.  Identical questions
get identical keys wherever they are asked — in process, in a worker,
or over HTTP — which is what makes the two-level store and in-flight
coalescing correct.

Validation failures raise :class:`ApiError` carrying the HTTP status;
unknown model/engine names surface the registry's uniform message.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..litmus.cache import cache_key
from ..litmus.config import RunConfig
from ..litmus.serialize import (
    result_to_dict,
    test_from_dict,
    test_to_dict,
    verdict_digest,
)
from ..litmus.test import LitmusTest
from ..registry import partition_opts, resolve_engine, resolve_model
from ..schema import CACHE_SCHEMA_VERSION, assert_schema

assert_schema("repro.serve.protocol", cache=10)

#: wire format version; doubles as the URL prefix (``/v1/...``)
WIRE_VERSION = 1

#: largest accepted request body — a suite of inline tests fits easily;
#: anything bigger is a client bug or abuse
REQUEST_LIMIT_BYTES = 4 * 1024 * 1024


class ApiError(Exception):
    """A client-visible request failure with its HTTP status."""

    def __init__(
        self,
        status: int,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after

    def as_dict(self) -> Dict:
        payload: Dict = {"error": self.message, "status": self.status}
        if self.retry_after is not None:
            payload["retry_after"] = self.retry_after
        return payload


def _suite_by_name() -> Dict[str, LitmusTest]:
    from ..litmus.suite import BY_NAME

    return BY_NAME


def parse_test(payload: Dict) -> LitmusTest:
    """The litmus test a query names (exactly one spelling required)."""
    spellings = [k for k in ("name", "test", "litmus") if payload.get(k)]
    if len(spellings) != 1:
        raise ApiError(
            400,
            "specify the test exactly one way: 'name' (standard suite), "
            "'test' (serialized), or 'litmus' (source text)",
        )
    kind = spellings[0]
    if kind in ("name", "litmus") and not isinstance(payload[kind], str):
        raise ApiError(400, f"'{kind}' must be a string")
    if kind == "name":
        name = payload["name"]
        by_name = _suite_by_name()
        if name not in by_name:
            raise ApiError(
                404, f"unknown suite test {name!r} (see /v1/suite/tests)"
            )
        return by_name[name]
    if kind == "test":
        try:
            return test_from_dict(payload["test"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ApiError(400, f"malformed serialized test: {exc}") from None
    try:
        from ..litmus.parser import parse_litmus

        return parse_litmus(payload["litmus"])
    except Exception as exc:  # parser errors carry useful messages
        raise ApiError(400, f"malformed litmus text: {exc}") from None


#: request fields layered over the service's base RunConfig
_CONFIG_FIELDS = (
    "model", "engine", "search_opts", "timeout", "certify", "kernel",
)


def build_config(
    base: RunConfig, payload: Dict, max_timeout: Optional[float]
) -> RunConfig:
    """The effective config for one query: base ⊕ request overrides.

    The request's deadline is clamped by the service's ``max_timeout`` —
    a client cannot occupy a worker longer than the operator allows.
    """
    changes: Dict[str, object] = {}
    for name in _CONFIG_FIELDS:
        if name in payload and payload[name] is not None:
            changes[name] = payload[name]
    if "search_opts" in changes:
        opts = changes["search_opts"]
        if not isinstance(opts, dict):
            raise ApiError(400, "'search_opts' must be an object")
        changes["search_opts"] = {
            name: tuple(value) if isinstance(value, list) else value
            for name, value in opts.items()
        }
    timeout = changes.get("timeout", base.timeout)
    if timeout is not None and not isinstance(timeout, (int, float)):
        raise ApiError(400, "'timeout' must be a number of seconds")
    if max_timeout is not None:
        timeout = max_timeout if timeout is None else min(timeout, max_timeout)
    changes["timeout"] = timeout
    try:
        return base.evolve(**changes)
    except (KeyError, ValueError, TypeError) as exc:
        # includes the registry's uniform unknown model/engine message
        raise ApiError(400, str(exc)) from None


def request_key(test: LitmusTest, config: RunConfig) -> str:
    """The content address of one (test, config) query.

    Exactly the key :class:`~repro.litmus.session.Session` computes for
    its cache probe — merged test+config options, filtered for the
    model — so the LRU tier, the disk tier, and direct Session runs all
    agree on what "the same question" means.
    """
    merged = dict(test.search_opts)
    merged.update(config.opts)
    try:
        kept, _ = partition_opts(config.model, merged)
    except ValueError as exc:
        raise ApiError(400, str(exc)) from None
    return cache_key(
        test, config.model, config.engine, kept, certify=config.certify,
        kernel=config.kernel,
    )


def check_engine_model(config: RunConfig) -> None:
    """Reject ptx-only engines on other models before admission."""
    if resolve_engine(config.engine).ptx_only and config.model != "ptx":
        raise ApiError(
            400,
            f"the {config.engine!r} engine supports only the 'ptx' model, "
            f"not {config.model!r}",
        )
    resolve_model(config.model)


def result_payload(result, key: str, source: str) -> Dict:
    """One verdict as a response object.

    ``source`` records where the answer came from (``"computed"``,
    ``"memory"``, ``"disk"``, ``"coalesced"``) — clients and the
    equivalence gate can tell a cache hit from a fresh computation.
    FORBIDDEN verdicts from certified runs surface the certificate's
    DRAT digest at the top level: the integrity hook a client uses to
    independently re-check the refutation.
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "key": key,
        "source": source,
        "test": result.test.name,
        "verdict": result.verdict.value,
        "digest": verdict_digest(result),
        "result": result_to_dict(result, include_test=False),
    }
    certificate = result.certificate
    if certificate is not None and certificate.digest is not None:
        payload["certificate_digest"] = certificate.digest
    return payload


def suite_test_names() -> List[str]:
    """The standard suite's test names (the warm endpoint's corpus)."""
    return list(_suite_by_name())


def describe_test(test: LitmusTest) -> Dict:
    """A test echoed back in serialized form (client-side replay)."""
    return test_to_dict(test)
