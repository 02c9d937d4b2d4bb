"""Command-line interface: ``ptxmm`` (or ``python -m repro``).

Subcommands:

* ``suite``   — run the standard litmus suite under one or more models;
* ``run``     — run a litmus test from a file (see repro.litmus.parser);
* ``mapping`` — bounded empirical check of the scoped C++ → PTX mapping;
* ``proofs``  — replay the kernel lemma library and §6.2 theorems;
* ``isa2``    — demonstrate the Figure 12 buggy-mapping counterexample;
* ``fuzz``    — differential conformance fuzzing of the decision engines;
* ``serve``   — run the long-lived verdict service (HTTP/JSON daemon);
* ``client``  — query a running verdict service.

Model and engine choices are not hard-coded here: they come from
:mod:`repro.registry`, so a newly registered model or engine shows up in
``--help`` and in error messages without touching this module.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional


def _cache_error(session) -> Optional[str]:
    """Why the session's result cache directory is unusable, or None.

    Checked before any test runs: an unusable directory would otherwise
    surface only at the first store, after the verdicts are computed.
    """
    if session.cache is None:
        return None
    directory = session.cache.directory
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return f"error: cache directory {directory}: {exc.strerror or exc}"
    return None


def _cmd_suite(args: argparse.Namespace) -> int:
    from .litmus import SUITE, Expect, RunConfig, Session, summarize
    from .registry import resolve_engine

    if resolve_engine(args.engine).ptx_only:
        non_ptx = [model for model in args.models if model != "ptx"]
        if non_ptx:
            print(
                f"error: engine {args.engine!r} supports only the 'ptx' "
                f"model (requested: {', '.join(non_ptx)})",
                file=sys.stderr,
            )
            return 2
    config = RunConfig(
        engine=args.engine,
        timeout=args.timeout,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        certify=args.certify,
        kernel=args.kernel,
    )
    failures = 0
    incomplete = 0
    uncertified = 0
    with Session(config) as session:
        error = _cache_error(session)
        if error is not None:
            print(error, file=sys.stderr)
            return 2
        for model in args.models:
            results = session.run_suite(SUITE, config.for_model(model))
            print(f"== model: {model} ==")
            print(summarize(results, show_stats=args.stats))
            failures += sum(1 for r in results if r.matches_expectation is False)
            incomplete += sum(1 for r in results if r.status != "ok")
            if args.certify:
                # Every FORBIDDEN verdict must carry a certificate record
                # (a checked DRAT refutation, or an explicit skip reason).
                uncertified += sum(
                    1 for r in results
                    if r.status == "ok"
                    and r.verdict is Expect.FORBIDDEN
                    and r.certificate is None
                )
            if args.stats:
                total = sum(r.elapsed or 0.0 for r in results)
                print(f"total search time: {total:.3f}s over {len(results)} tests")
            print()
        cert_failed = session.stats.cert_failed
        if args.certify:
            print(
                f"certificates: {session.stats.certified} verified, "
                f"{cert_failed} failed, {session.stats.cert_skipped} skipped"
            )
            print()
        if args.stats:
            print(f"session: {session.stats.format()}")
            if session.cache is not None:
                print(
                    f"cache  : {session.cache.stats.format()} "
                    f"({session.cache.directory})"
                )
            print()
    status = 0
    if failures:
        print(f"{failures} expectation mismatch(es)")
        status = 1
    if incomplete:
        print(f"{incomplete} test(s) timed out or errored before deciding")
        status = 1
    if cert_failed:
        print(f"{cert_failed} certificate check(s) failed")
        status = 1
    if uncertified:
        print(f"{uncertified} FORBIDDEN verdict(s) lack a certificate record")
        status = 1
    if status == 0:
        print("all verdicts match documented expectations")
    return status


def _load_litmus(path: str):
    """The litmus test in ``path``, or None after printing
    ``error: <file>: <message>`` for a missing, unreadable or malformed
    file (the caller exits 2)."""
    from .litmus.parser import parse_litmus

    try:
        with open(path) as handle:
            return parse_litmus(handle.read())
    except (OSError, ValueError) as exc:  # unreadable or not litmus
        message = getattr(exc, "strerror", None) or exc
        print(f"error: {path}: {message}", file=sys.stderr)
        return None


def _cmd_run(args: argparse.Namespace) -> int:
    from .litmus import RunConfig, run_litmus

    test = _load_litmus(args.file)
    if test is None:
        return 2
    try:
        config = RunConfig(
            model=args.model,
            engine=args.engine,
            timeout=args.timeout,
            certify=args.certify,
            kernel=args.kernel,
        )
        result = run_litmus(test, config=config)
    except ValueError as exc:  # e.g. symbolic engine on a non-PTX model
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"test       : {test.name}")
    print(f"model      : {args.model}")
    print(f"condition  : {test.condition!r}")
    print(f"verdict    : {result.verdict.value}")
    if result.certificate is not None:
        print(f"certificate: {result.certificate.format()}")
    if result.status != "ok":
        print(f"error      : {result.detail or result.status}", file=sys.stderr)
        return 2
    expected = test.expected(args.model)
    if expected is not None:
        print(f"expected   : {expected.value}")
    if args.stats:
        print(f"engine     : {args.engine}")
        print(f"elapsed    : {result.elapsed:.3f}s")
        if result.solver_stats is not None:
            print(f"sat        : {result.solver_stats.format()}")
        if result.enum_stats is not None:
            print(f"enum       : {result.enum_stats.format()}")
    if args.outcomes:
        for outcome in sorted(result.outcomes, key=repr):
            print(f"  {outcome}")
    if args.explain and args.model == "ptx":
        from .litmus.explanation import explain

        print()
        print(explain(test).render())
    ok = result.matches_expectation
    return 0 if ok in (True, None) else 1


def _cmd_mapping(args: argparse.Namespace) -> int:
    from .mapping import BUGGY_RMW_SC, STANDARD, check_mapping

    scheme = BUGGY_RMW_SC if args.buggy else STANDARD
    results = check_mapping(
        args.bound,
        scheme=scheme,
        scoped=not args.descoped,
        time_budget=args.budget,
    )
    variant = "de-scoped" if args.descoped else "scoped"
    print(f"mapping check: scheme={scheme.name} bound={args.bound} ({variant})")
    status = 0
    for axiom, result in results.items():
        stats = result.stats
        verdict = "holds" if result.holds else "COUNTEREXAMPLE"
        trailer = " (timed out)" if stats.timed_out else ""
        print(
            f"  {axiom:<12} {verdict:<16} "
            f"{stats.skeletons} skeletons, {stats.ptx_executions} PTX "
            f"executions, {stats.lifted_executions} lifted, "
            f"{stats.elapsed:.2f}s{trailer}"
        )
        if not result.holds:
            status = 1
            for cx in result.counterexamples:
                print(f"    {cx}")
    return status


def _cmd_proofs(args: argparse.Namespace) -> int:
    from .proof import all_lemmas, all_theorems

    started = time.perf_counter()
    lemmas = all_lemmas()
    theorems = all_theorems()
    elapsed = time.perf_counter() - started
    print(f"replayed {len(lemmas)} lemmas and {len(theorems)} theorems "
          f"in {elapsed:.3f}s")
    for name, report in theorems.items():
        print(f"  {name}")
        print(f"    conclusion: {report.statement!r}")
        print(f"    hypotheses used: {len(report.hypotheses)}")
        if args.verbose:
            for hyp in report.hypotheses:
                print(f"      - {hyp!r}")
    return 0


def _cmd_isa2(args: argparse.Namespace) -> int:
    from .core import Scope, device_thread
    from .mapping import BUGGY_RMW_SC, STANDARD, check_program_against_axiom
    from .ptx.isa import AtomOp
    from .rc11 import CProgramBuilder, MemOrder

    t0 = device_thread(0, 0, 0)
    t1 = device_thread(0, 1, 0)
    t2 = device_thread(0, 2, 0)
    isa2 = (
        CProgramBuilder("ISA2-rmw")
        .thread(t0).store("x", 1).store("y", 1, mo=MemOrder.REL, scope=Scope.GPU)
        .thread(t1)
        .rmw("r1", "y", AtomOp.EXCH, 2, mo=MemOrder.SC, scope=Scope.GPU)
        .store("y", 3, mo=MemOrder.RLX, scope=Scope.GPU)
        .thread(t2)
        .load("r2", "y", mo=MemOrder.ACQ, scope=Scope.GPU)
        .load("r3", "x")
        .build()
    )
    status = 0
    for scheme in (STANDARD, BUGGY_RMW_SC):
        cx = check_program_against_axiom(isa2, "Coherence", scheme=scheme)
        verdict = "counterexample found" if cx else "no counterexample"
        print(f"  RMW_SC mapping {scheme.name:<14}: {verdict}")
        if scheme is STANDARD and cx:
            status = 1
        if scheme.elide_rmw_sc_release and not cx:
            status = 1
    print(
        "Figure 12: eliding the .release on the RMW_SC mapping breaks the "
        "release sequence; the checker must catch it."
    )
    return status


def _farm_config(args: argparse.Namespace, **shape):
    """The farm run the shared ``fuzz``/``farm`` flags describe."""
    from .fuzz import FuzzBudget
    from .fuzz.farm import FarmConfig

    return FarmConfig(
        seed=args.seed,
        budget=FuzzBudget.parse(args.budget),
        jobs=args.jobs,
        timeout=args.timeout,
        perturb=args.perturb,
        artifact_dir=args.artifact_dir,
        max_found=args.max_found,
        kernel=args.kernel,
        **shape,
    )


def _print_found(report) -> None:
    """Each shrunk discrepancy of a fuzz run, then how to reproduce them."""
    from .litmus.serialize import test_to_litmus

    for found in report.found:
        d = found.discrepancy
        print()
        print(
            f"DISCREPANCY {d.kind} on case {found.case.index} "
            f"(cycle {found.case.cycle})"
        )
        print(f"  {d.left_label} vs {d.right_label}: {d.detail}")
        print(
            f"  shrunk in {found.shrunk.steps} step(s) "
            f"({found.shrunk.attempts} candidate(s) tried)"
        )
        if found.artifact_dir is not None:
            print(f"  artifact: {found.artifact_dir}")
        else:
            print("  " + test_to_litmus(found.shrunk.test).replace("\n", "\n  "))
    print()
    print(
        f"{report.found_total} distinct discrepancy(ies); reproduce "
        f"with --seed {report.config.seed}"
    )


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import os

    if args.recheck is not None:
        from .fuzz import recheck_artifact

        if _load_litmus(args.recheck) is None:
            return 2
        try:
            verdict, reshrunk = recheck_artifact(
                args.recheck, perturb=args.perturb, timeout=args.timeout,
                kernel=args.kernel,
            )
        except (OSError, ValueError) as exc:  # e.g. an unknown --perturb
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if verdict.clean:
            print(f"{args.recheck}: no discrepancy (engines agree)")
            if verdict.undecided:
                print(f"  undecided checks: {', '.join(verdict.undecided)}")
            return 0
        for d in verdict.discrepancies:
            print(f"{args.recheck}: {d.kind} still reproduces")
            print(f"  {d.left_label} vs {d.right_label}: {d.detail}")
        if reshrunk is not None and reshrunk.steps:
            print(f"  re-shrunk in {reshrunk.steps} step(s):")
            from .litmus.serialize import test_to_litmus

            print("    " + test_to_litmus(reshrunk.test).replace("\n", "\n    "))
        return 1

    from .fuzz.farm import run_farm

    def progress(report):
        if args.stats:
            print(f"  ... {report.stats.format()}", file=sys.stderr)

    # the blind farm without a checkpoint; rounds of a few cases per
    # worker let --max-found stop a broken-engine run after one round
    workers = args.jobs or (os.cpu_count() or 1)
    try:
        config = _farm_config(
            args, steer=False, seed_corpus=False, checkpoint=None,
            round_size=max(2 * workers, 8),
        )
        print(
            f"fuzzing: seed={config.seed} budget={config.budget} "
            f"jobs={config.jobs}"
            + (f" perturb={config.perturb}" if config.perturb else "")
        )
        report = run_farm(config, progress=progress)
    except (OSError, ValueError) as exc:  # e.g. unknown --perturb axiom
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{report.stats.format()} elapsed={report.elapsed:.1f}s")
    if report.ok:
        print("no discrepancies: all engines agree on every generated test")
        return 0
    _print_found(report)
    return 1


def _cmd_farm(args: argparse.Namespace) -> int:
    from .fuzz.farm import run_farm, write_corpus
    from .fuzz.sensitivity import (
        axiom_probes,
        render_sensitivity,
        sensitivity_matrix,
        undetected_axioms,
    )

    def progress(report):
        if args.stats:
            print(
                f"  ... round {report.rounds}: {report.stats.format()} "
                f"coverage={len(report.coverage)}",
                file=sys.stderr,
            )

    try:
        config = _farm_config(
            args, round_size=args.round_size, boost=args.boost,
            checkpoint=args.checkpoint,
        )
        print(
            f"farm: seed={config.seed} budget={config.budget} "
            f"jobs={config.jobs}"
            + (f" perturb={config.perturb}" if config.perturb else "")
            + (f" checkpoint={config.checkpoint}" if config.checkpoint else "")
        )
        report = run_farm(config, progress=progress)
    except (OSError, ValueError) as exc:  # bad flag or checkpoint
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"{report.stats.format()} rounds={report.rounds} "
        f"coverage={len(report.coverage)} candidates={len(report.candidates)} "
        f"elapsed={report.elapsed:.1f}s"
    )
    print(f"coverage digest: {report.coverage.digest()}")

    if args.coverage_out is not None:
        from .litmus.serialize import canonical_json
        from pathlib import Path

        Path(args.coverage_out).write_text(
            canonical_json(report.coverage.to_dict()) + "\n"
        )
        print(f"coverage map written to {args.coverage_out}")

    status = 0
    if args.corpus_out is not None:
        names = write_corpus(report, args.corpus_out, extra_tests=axiom_probes())
        print(f"distilled corpus: {len(names)} test(s) -> {args.corpus_out}")

    if args.check_sensitivity:
        # probes always ship with the corpus, so probing them plus a few
        # distilled shapes is exactly what the committed corpus can detect
        shapes = list(axiom_probes())
        have = {test.name for test in shapes}
        from .litmus.serialize import test_from_dict

        for name in report.distilled():
            if len(shapes) >= len(have) + 5:
                break
            if name not in have:
                shapes.append(test_from_dict(report.candidates[name]["test"]))
        payload = sensitivity_matrix(shapes)
        missing = undetected_axioms(payload)
        if args.sensitivity_out is not None:
            from pathlib import Path

            Path(args.sensitivity_out).write_text(render_sensitivity(payload))
            print(f"sensitivity matrix written to {args.sensitivity_out}")
        if missing:
            print(
                "SENSITIVITY FAILURE: no corpus shape detects ablation of: "
                + ", ".join(missing)
            )
            status = 1
        else:
            print(
                f"sensitivity: all {len(payload['axioms'])} axioms detected "
                f"across {len(payload['shapes'])} shape(s)"
            )

    if not report.ok:
        _print_found(report)
        return 1
    return status


def _cmd_generate(args: argparse.Namespace) -> int:
    from .core import Scope
    from .litmus import classify, generate
    from .ptx.events import Sem

    sems = {
        "weak": (Sem.WEAK, Sem.WEAK, None),
        "relaxed": (Sem.RELAXED, Sem.RELAXED, Scope.GPU),
        "rel_acq": (Sem.RELEASE, Sem.ACQUIRE, Scope.GPU),
    }
    write_sem, read_sem, scope = sems[args.strength]
    fence = (Sem.SC, Scope.GPU) if args.fences else None
    generated = generate(
        args.cycle, write_sem=write_sem, read_sem=read_sem, scope=scope,
        fence_po=fence,
    )
    test = generated.test
    print(f"synthesised test {test.name}")
    for thread in test.program.threads:
        print(f"  thread {thread.tid}:")
        for instr in thread.instructions:
            print(f"    {instr}")
    print(f"condition: {test.condition!r}")
    for model in args.models:
        verdict = classify(generated, model)
        print(f"verdict under {model:<4}: {verdict.value}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .lang.export import (
        export_ptx_alloy,
        export_ptx_coq,
        export_rc11_alloy,
        export_rc11_coq,
    )

    if args.format == "cat":
        from .cat import catmodel_to_cat, load_model

        name = "scoped-rc11" if args.model == "rc11" else args.model
        print(catmodel_to_cat(load_model(name)), end="")
        return 0
    exporters = {
        ("ptx", "alloy"): export_ptx_alloy,
        ("ptx", "coq"): export_ptx_coq,
        ("rc11", "alloy"): export_rc11_alloy,
        ("rc11", "coq"): export_rc11_coq,
    }
    print(exporters[(args.model, args.format)](), end="")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .litmus import RunConfig, Session, distinguishing_tests

    config = RunConfig(
        timeout=args.timeout,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        certify=args.certify,
        kernel=args.kernel,
    )
    found = 0
    with Session(config) as session:
        error = _cache_error(session)
        if error is not None:
            print(error, file=sys.stderr)
            return 2
        print(
            f"searching cycles up to length {args.max_length} for programs "
            f"separating {args.model_a!r} from {args.model_b!r}..."
        )
        for distinction in distinguishing_tests(
            args.model_a, args.model_b,
            max_length=args.max_length, limit=args.limit,
            session=session,
        ):
            print(f"  {distinction}")
            found += 1
    if not found:
        print("  no distinguishing test found within the bound")
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from .zoo.matrix import MatrixError, ModelMatrix, build_matrix, verify_claims

    session = None
    try:
        if args.jobs != 1:
            from .litmus import RunConfig, Session

            session = Session(RunConfig(jobs=args.jobs, use_cache=False))
        try:
            matrix = build_matrix(
                models=args.models or None,
                fast=args.fast,
                session=session,
                timeout=args.timeout,
            )
        except (KeyError, MatrixError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        if session is not None:
            session.close()
    corpus = "fast suite" if args.fast else "suite + generated corpus"
    print(f"conformance matrix over the {corpus} ({len(matrix.tests)} tests)")
    print()
    print(matrix.format_table())
    witnesses = matrix.format_witnesses()
    if witnesses:
        print()
        print(witnesses)
    problems = verify_claims(matrix)
    if problems:
        print()
        for problem in problems:
            print(f"CLAIM VIOLATION: {problem}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(matrix.to_json())
        print(f"\nwrote {args.out}")
    if args.check:
        try:
            with open(args.check, encoding="utf-8") as handle:
                golden = ModelMatrix.from_json(handle.read())
        except (OSError, ValueError, MatrixError) as exc:
            print(f"error: cannot load golden {args.check!r}: {exc}",
                  file=sys.stderr)
            return 2
        flips = matrix.diff(golden)
        if flips:
            print(f"\nmatrix deviates from golden {args.check}:")
            for flip in flips:
                print(f"  {flip}")
            return 1
        print(f"\nmatrix matches golden {args.check}")
    return 1 if problems else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeConfig, serve_forever

    config = ServeConfig(
        host=args.host,
        port=args.port,
        model=args.model,
        engine=args.engine,
        jobs=args.jobs,
        timeout=args.timeout,
        certify=args.certify,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        capacity=args.capacity,
        queue_limit=args.queue_limit,
    )
    serve_forever(config)
    return 0


def _client_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    if getattr(args, "model", None) is not None:
        overrides["model"] = args.model
    if getattr(args, "engine", None) is not None:
        overrides["engine"] = args.engine
    if getattr(args, "timeout", None) is not None:
        overrides["timeout"] = args.timeout
    if getattr(args, "certify", False):
        overrides["certify"] = True
    return overrides


def _cmd_client(args: argparse.Namespace) -> int:
    import json as _json

    from .serve import Client, ServiceError

    client = Client(args.host, args.port, timeout=args.socket_timeout)
    try:
        if args.action == "health":
            print(_json.dumps(client.health(), indent=2))
            return 0
        if args.action == "stats":
            print(_json.dumps(client.stats(), indent=2))
            return 0
        if args.action == "warm":
            warmed = client.warm(**_client_overrides(args))
            print(
                f"warmed {warmed['warmed']} verdicts "
                f"({warmed['loaded_from_disk']} from disk, "
                f"{warmed['computed']} computed); "
                f"{warmed['entries']} entries resident"
            )
            return 0
        if args.action == "run":
            return _client_run(client, args)
        return _client_suite(client, args)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise  # stdout piped into a closed pager; main() treats this as ok
    except (ConnectionError, OSError) as exc:
        print(
            f"error: cannot reach {args.host}:{args.port} ({exc})",
            file=sys.stderr,
        )
        return 2
    finally:
        client.close()


def _client_run(client, args: argparse.Namespace) -> int:
    overrides = _client_overrides(args)
    if args.file is not None:
        with open(args.file) as handle:
            payload = client.run(handle.read(), **overrides)
    elif args.test is not None:
        payload = client.run(args.test, **overrides)
    else:
        print("error: give a suite test name or --file", file=sys.stderr)
        return 2
    print(f"test       : {payload['test']}")
    print(f"verdict    : {payload['verdict']}")
    print(f"source     : {payload['source']}")
    print(f"digest     : {payload['digest']}")
    if "certificate_digest" in payload:
        print(f"certificate: drat sha256 {payload['certificate_digest']}")
    status = payload["result"].get("status", "ok")
    if status != "ok":
        detail = payload["result"].get("detail") or status
        print(f"error      : {detail}", file=sys.stderr)
        return 2
    return 0


def _client_suite(client, args: argparse.Namespace) -> int:
    """Fetch suite verdicts, optionally over several client threads.

    ``--jobs N`` slices the corpus into N chunks requested concurrently
    on independent connections — the service end stays one process; this
    exercises (and demonstrates) its concurrent-request handling.
    Verdicts are checked against the suite's documented expectations.
    """
    import threading

    from .litmus.suite import BY_NAME
    from .serve import Client, ServiceError

    overrides = _client_overrides(args)
    model = overrides.get("model", "ptx")
    names = args.tests if args.tests else client.suite_tests()
    jobs = max(1, args.jobs)
    chunks = [names[index::jobs] for index in range(jobs)]
    chunks = [chunk for chunk in chunks if chunk]
    verdicts: dict = {}
    failures: List[str] = []

    def fetch(chunk: List[str]) -> None:
        try:
            with Client(
                args.host, args.port, timeout=args.socket_timeout
            ) as worker:
                response = worker.suite(tests=chunk, **overrides)
            for verdict in response["verdicts"]:
                verdicts[verdict["test"]] = verdict
        except (ServiceError, ConnectionError, OSError) as exc:
            failures.append(str(exc))

    if len(chunks) == 1:
        fetch(chunks[0])
    else:
        threads = [
            threading.Thread(target=fetch, args=(chunk,)) for chunk in chunks
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if failures:
        for failure in failures:
            print(f"error: {failure}", file=sys.stderr)
        return 2
    mismatches = 0
    incomplete = 0
    for name in names:
        payload = verdicts.get(name)
        if payload is None:
            incomplete += 1
            continue
        expected = None
        test = BY_NAME.get(name)
        if test is not None:
            documented = test.expected(model)
            expected = documented.value if documented is not None else None
        marker = ""
        if payload["result"].get("status", "ok") != "ok":
            incomplete += 1
            marker = f"  [{payload['result']['status']}]"
        elif expected is not None and expected != payload["verdict"]:
            mismatches += 1
            marker = f"  [expected {expected}]"
        print(
            f"{name:<28} {payload['verdict']:<9} "
            f"{payload['source']:<9} {payload['digest'][:16]}{marker}"
        )
    print()
    if mismatches or incomplete:
        print(
            f"{mismatches} expectation mismatch(es), "
            f"{incomplete} incomplete verdict(s)"
        )
        return 1
    print(
        f"{len(names)} verdicts; all match documented expectations"
    )
    return 0


def _add_kernel_flag(parser: argparse.ArgumentParser) -> None:
    """The relation-kernel knob (one help string, one choices source)."""
    from .registry import DEFAULT_KERNEL, kernel_names

    parser.add_argument(
        "--kernel", default=DEFAULT_KERNEL, choices=kernel_names(),
        help="relation kernel for the enumerative searches: per-test "
             "compiled axiom checkers ('compiled', default) or the "
             "hashed tuple-set reference ('set'); verdicts and outcome "
             "sets are identical across kernels",
    )


def _add_fuzz_flags(parser: argparse.ArgumentParser, budget: str) -> None:
    """The flags of ``fuzz`` and ``farm``: both run the one farm loop."""
    parser.add_argument(
        "--budget", default=budget, metavar="N|Ns|Nm|Nh",
        help="a case count ('200': the total stream length, which a "
             "resumed farm continues toward) or a wall clock ('60s', "
             f"'5m', '1h') bounding this invocation; default {budget} "
             "cases",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed; the same seed and count budget replay the "
             "identical case stream (default 0)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes for engine runs (0 = one per CPU core; "
             "default 1 = in-process)",
    )
    parser.add_argument(
        "--timeout", type=float, default=20.0, metavar="SECONDS",
        help="per-engine-run budget; over-budget runs make their checks "
             "undecided, never a discrepancy (default 20)",
    )
    parser.add_argument(
        "--perturb", default=None, metavar="AXIOM",
        help="deliberately skip one PTX axiom on the enumerative side "
             "(negative control: the run must find discrepancies)",
    )
    parser.add_argument(
        "--artifact-dir", default=None, metavar="DIR",
        help="write repro-<kind>-<hash>/ artifacts (shrunk repro.litmus, "
             "original.litmus, report.json) for every distinct discrepancy",
    )
    parser.add_argument(
        "--max-found", type=int, default=10,
        help="stop after shrinking this many distinct discrepancies "
             "(default 10)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print running counters to stderr after every round",
    )
    _add_kernel_flag(parser)


def _add_exec_flags(parser: argparse.ArgumentParser) -> None:
    """Execution-subsystem flags shared by the sweep commands."""
    _add_kernel_flag(parser)
    parser.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes for the sweep (0 = one per CPU core; "
             "default 1 = in-process)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-test wall-clock budget; an over-budget test reports "
             "TIMEOUT instead of hanging the sweep",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent result-cache directory "
             "(default: $PTXMM_CACHE_DIR or ~/.cache/ptxmm)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="solve every test fresh; do not read or write the result cache",
    )
    parser.add_argument(
        "--certify", action="store_true",
        help="attach independently checked certificates to verdicts: DRAT "
             "refutations for FORBIDDEN, satisfying witnesses for ALLOWED; "
             "a failed check downgrades the verdict to ERROR",
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``ptxmm`` console script."""
    from .registry import engine_names, model_names

    models = model_names()
    engines = engine_names()
    parser = argparse.ArgumentParser(
        prog="ptxmm",
        description="Formal analysis toolkit for the NVIDIA PTX memory model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_suite = sub.add_parser("suite", help="run the standard litmus suite")
    p_suite.add_argument("--models", nargs="+", default=["ptx"], choices=models)
    p_suite.add_argument(
        "--stats", action="store_true",
        help="append per-test wall time (and SAT counters) to the table, "
             "plus session/cache counters",
    )
    p_suite.add_argument(
        "--engine", default="enumerative", choices=engines,
        help="decision engine for every suite run (ptx-only engines "
             "reject other models)",
    )
    _add_exec_flags(p_suite)
    p_suite.set_defaults(func=_cmd_suite)

    p_run = sub.add_parser("run", help="run a litmus test from a file")
    p_run.add_argument("file")
    p_run.add_argument("--model", default="ptx", choices=models)
    p_run.add_argument("--outcomes", action="store_true")
    p_run.add_argument(
        "--explain", action="store_true",
        help="report the axioms rejecting the condition (PTX model only)",
    )
    p_run.add_argument(
        "--engine", default="enumerative", choices=engines,
        help="decision engine: explicit execution enumeration, one bounded "
             "SAT query, SAT-based instance enumeration producing the "
             "full outcome set, or reads-from enumeration with coherence "
             "saturation (ptx-only engines reject other models)",
    )
    p_run.add_argument(
        "--stats", action="store_true",
        help="print wall time and SAT solver counters for the run",
    )
    p_run.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; an over-budget run reports TIMEOUT",
    )
    p_run.add_argument(
        "--certify", action="store_true",
        help="independently check the verdict (DRAT refutation or "
             "satisfying witness) and print the certificate",
    )
    _add_kernel_flag(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_map = sub.add_parser("mapping", help="bounded mapping soundness check")
    p_map.add_argument("--bound", type=int, default=2)
    p_map.add_argument("--descoped", action="store_true")
    p_map.add_argument("--buggy", action="store_true")
    p_map.add_argument("--budget", type=float, default=None)
    p_map.set_defaults(func=_cmd_mapping)

    p_proofs = sub.add_parser("proofs", help="replay kernel lemmas/theorems")
    p_proofs.add_argument("--verbose", action="store_true")
    p_proofs.set_defaults(func=_cmd_proofs)

    p_isa2 = sub.add_parser("isa2", help="Figure 12 buggy-mapping demo")
    p_isa2.set_defaults(func=_cmd_isa2)

    p_gen = sub.add_parser(
        "generate", help="synthesise a litmus test from a critical cycle"
    )
    p_gen.add_argument("cycle", help='e.g. "PodWR Fre PodWR Fre"')
    p_gen.add_argument(
        "--strength", default="relaxed", choices=["weak", "relaxed", "rel_acq"]
    )
    p_gen.add_argument("--fences", action="store_true",
                       help="insert fence.sc on program-order edges")
    p_gen.add_argument("--models", nargs="+", default=["ptx", "sc"], choices=models)
    p_gen.set_defaults(func=_cmd_generate)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: generate tests, cross-check all engines",
    )
    _add_fuzz_flags(p_fuzz, budget="200")
    p_fuzz.add_argument(
        "--recheck", default=None, metavar="LITMUS_FILE",
        help="instead of fuzzing, replay one artifact litmus file through "
             "the oracle (exit 1 if the discrepancy still reproduces)",
    )
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_farm = sub.add_parser(
        "farm",
        help="coverage-guided fuzzing farm: steer generation toward "
             "uncovered features, checkpoint/resume, distill a corpus",
    )
    _add_fuzz_flags(p_farm, budget="300")
    p_farm.add_argument(
        "--round-size", type=int, default=64, metavar="N",
        help="cases per steering round; generation bias refreshes from "
             "the coverage map at round boundaries only (default 64)",
    )
    p_farm.add_argument(
        "--boost", type=float, default=8.0,
        help="sampling weight multiplier for uncovered features "
             "(default 8)",
    )
    p_farm.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help="checkpoint file: saved after every round, resumed from "
             "when it exists (config must match)",
    )
    p_farm.add_argument(
        "--corpus-out", default=None, metavar="DIR",
        help="distill the frontier-preserving corpus (plus the pinned "
             "axiom probes) into DIR with a MANIFEST.json",
    )
    p_farm.add_argument(
        "--coverage-out", default=None, metavar="FILE",
        help="write the merged coverage map as canonical JSON",
    )
    p_farm.add_argument(
        "--check-sensitivity", action="store_true",
        help="run the axiom-ablation sensitivity matrix over the corpus "
             "shapes; exit 1 if any axiom goes undetected",
    )
    p_farm.add_argument(
        "--sensitivity-out", default=None, metavar="FILE",
        help="with --check-sensitivity, write the matrix JSON here",
    )
    p_farm.set_defaults(func=_cmd_farm)

    p_exp = sub.add_parser(
        "export", help="emit a model as Alloy, Coq or cat text (Figures 13/16)"
    )
    p_exp.add_argument("model", choices=["ptx", "rc11"])
    p_exp.add_argument("format", choices=["alloy", "coq", "cat"])
    p_exp.set_defaults(func=_cmd_export)

    p_cmp = sub.add_parser(
        "compare", help="find litmus tests distinguishing two models"
    )
    p_cmp.add_argument("model_a", choices=models)
    p_cmp.add_argument("model_b", choices=models)
    p_cmp.add_argument("--max-length", type=int, default=4)
    p_cmp.add_argument("--limit", type=int, default=3)
    _add_exec_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_mtx = sub.add_parser(
        "matrix",
        help="N×N cross-model conformance matrix with witness tests",
    )
    p_mtx.add_argument(
        "--models", nargs="+", metavar="MODEL",
        help="zoo models to compare (default: every registered model)",
    )
    p_mtx.add_argument(
        "--fast", action="store_true",
        help="run the hand-written suite only (skip the generated corpus)",
    )
    p_mtx.add_argument(
        "--out", metavar="FILE", help="write the matrix as JSON"
    )
    p_mtx.add_argument(
        "--check", metavar="GOLDEN",
        help="compare against a committed golden matrix; exit 1 on any "
             "cell flip",
    )
    p_mtx.add_argument("--jobs", type=int, default=1)
    p_mtx.add_argument("--timeout", type=float, default=None)
    p_mtx.set_defaults(func=_cmd_matrix)

    p_srv = sub.add_parser(
        "serve",
        help="run the verdict service: a long-lived HTTP/JSON daemon with "
             "request coalescing, a two-level verdict store, and "
             "back-pressure",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8787)
    p_srv.add_argument(
        "--model", default="ptx", choices=models,
        help="default model for requests that do not override it",
    )
    p_srv.add_argument(
        "--engine", default="enumerative", choices=engines,
        help="default decision engine for requests that do not override it",
    )
    p_srv.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes behind the service's Session "
             "(0 = one per CPU core)",
    )
    p_srv.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="maximum per-request deadline; requests may ask for less, "
             "never more (default 60)",
    )
    p_srv.add_argument(
        "--capacity", type=int, default=4096,
        help="in-memory verdict LRU capacity, entries (default 4096)",
    )
    p_srv.add_argument(
        "--queue-limit", type=int, default=16,
        help="admitted compute-bound requests before 503 + Retry-After "
             "(default 16)",
    )
    p_srv.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="on-disk verdict store directory "
             "(default: $PTXMM_CACHE_DIR or ~/.cache/ptxmm)",
    )
    p_srv.add_argument(
        "--no-cache", action="store_true",
        help="serve from memory only; no on-disk verdict tier",
    )
    p_srv.add_argument(
        "--certify", action="store_true",
        help="certify verdicts by default; FORBIDDEN responses carry the "
             "checked DRAT refutation's digest",
    )
    p_srv.set_defaults(func=_cmd_serve)

    p_cli = sub.add_parser(
        "client", help="query a running verdict service"
    )
    p_cli.add_argument("--host", default="127.0.0.1")
    p_cli.add_argument("--port", type=int, default=8787)
    p_cli.add_argument(
        "--socket-timeout", type=float, default=300.0, metavar="SECONDS",
        help="per-request socket timeout (default 300)",
    )
    cli_sub = p_cli.add_subparsers(dest="action", required=True)

    c_run = cli_sub.add_parser("run", help="one verdict")
    c_run.add_argument(
        "test", nargs="?", default=None,
        help="standard-suite test name (or use --file)",
    )
    c_run.add_argument(
        "--file", default=None, help="litmus file to submit instead of a name"
    )
    c_suite = cli_sub.add_parser(
        "suite", help="verdicts for the standard suite (or --tests ...)"
    )
    c_suite.add_argument(
        "--tests", nargs="+", default=None, help="subset of suite test names"
    )
    c_suite.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="concurrent client connections to spread the suite over",
    )
    c_warm = cli_sub.add_parser(
        "warm", help="preload the suite corpus into the service's store"
    )
    for sub_parser in (c_run, c_suite, c_warm):
        sub_parser.add_argument(
            "--model", default=None, choices=models,
            help="override the service's default model",
        )
        sub_parser.add_argument(
            "--engine", default=None, choices=engines,
            help="override the service's default engine",
        )
        sub_parser.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="per-request deadline (clamped by the service maximum)",
        )
        sub_parser.add_argument("--certify", action="store_true")
    cli_sub.add_parser("stats", help="service counters as JSON")
    cli_sub.add_parser("health", help="liveness probe")
    p_cli.set_defaults(func=_cmd_client)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # output piped into a pager/head that closed early — not an error
        return 0


if __name__ == "__main__":
    sys.exit(main())
