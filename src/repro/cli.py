"""Command-line interface: ``jmake``.

Subcommands::

    jmake demo                      run JMake on a demo patch over the
                                    synthetic tree and print the report
    jmake evaluate [--commits N]    build a corpus, run the evaluation
                                    window, and print every table/figure
    jmake janitors [--commits N]    identify janitors (Tables I-II)
    jmake trace <commit>            check one commit with tracing on and
                                    print its annotated span tree
    jmake serve [--transport T]     start the check service, submit a
                                    batch of commits, report
                                    per-request verdicts and service
                                    stats, and drain cleanly
    jmake worker --connect H:P      join a coordinator as a cross-host
                                    worker: authenticate with the
                                    shared key, rebuild the corpus from
                                    the shipped spec, and serve WORK
                                    frames until shutdown (reconnecting
                                    through partitions with jittered
                                    backoff)
    jmake stats <sink>              read a telemetry sink back: latest
                                    snapshot tables (p50/p90/p99 request
                                    latency) or event-kind counts
    jmake watch [--out-dir D]       fleet mode: continuously pull unseen
                                    commits from a stream, check them
                                    through the check service, journal
                                    every verdict, and fold the journal
                                    into the persistent verdict store
    jmake query <store>             ask an ingested store questions —
                                    typed filters, the janitor ranking,
                                    or the canonical dump CI diffs —
                                    without compiling anything

Output paths: every sink-producing subcommand takes ``--out-dir DIR``
and resolves its outputs to conventional filenames inside it
(``stats.json``, ``metrics.jsonl``, ``events.jsonl``, ``run.jnl``,
``verdicts.sqlite``). The per-sink flags (``--stats-out``,
``--metrics-sink``, ``--events-out``, ``--journal``, ``--store``)
override one sink each: they put a journal outside the directory,
write an OpenMetrics sink, or write several metrics sinks.
``repro.api.resolve_outputs`` is the one shared validator behind all
of them.

Observability: ``jmake evaluate --trace-out FILE`` writes a Chrome
trace-event JSON (load it in chrome://tracing or https://ui.perfetto.dev)
with one span tree per checked commit; ``--metrics-out FILE`` writes the
pipeline metrics registry (counters/gauges/histograms, cache telemetry
included) as JSON. ``jmake serve --metrics-sink/--events-out/
--stats-interval`` turn the service into a continuous telemetry plane:
periodic metric snapshots to OpenMetrics or JSONL sinks plus a
structured operational event log, both resumable across restarts.
``--log-level`` configures the ``repro.*`` logger hierarchy. Everything
runs offline against the generated substrate; see README.md.

This module imports only from :mod:`repro.api` — the stable facade is
the CLI's sole dependency on the library, by design.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import api


def _demo(args: argparse.Namespace) -> int:
    tree = api.generate_tree()
    session = api.CheckSession.from_generated_tree(tree)

    path = "drivers/staging/comedi/comedi0.c"
    original = tree.files[path]
    edited = original.replace("int status = 0;",
                              "int status = 0;\n\tint retries = 0;")
    files = dict(tree.files)
    files[path] = edited
    worktree = api.CheckSession.worktree_for_files(files)
    patch = api.Patch(files=[api.diff_texts(path, original, edited)])

    print(f"Checking a demo patch touching {path} ...")
    report = session.check_patch(worktree, patch)
    print(report.render())
    return 0 if report.certified else 1


def _evaluate(args: argparse.Namespace) -> int:
    try:
        api.validate_jobs(args.jobs, what="--jobs")
    except ValueError as error:
        print(f"jmake evaluate: {error}", file=sys.stderr)
        return 2
    try:
        journal = api.resolve_outputs(
            args.out_dir, {"journal": args.journal})["journal"]
    except ValueError as error:
        print(f"jmake evaluate: {error}", file=sys.stderr)
        return 2
    fault_plan = None
    injector = api.NULL_INJECTOR
    if args.fault_plan:
        try:
            fault_plan = api.FaultPlan.load(args.fault_plan)
        except api.FaultPlanError as error:
            print(f"jmake evaluate: {error}", file=sys.stderr)
            return 2
        injector = api.FaultInjector(fault_plan)
        print(f"fault plan loaded: {len(fault_plan.specs)} rule(s), "
              f"seed={fault_plan.seed!r}")
    try:
        retry_policy = api.RetryPolicy(
            max_retries=args.max_retries,
            step_timeout_seconds=args.step_timeout)
    except ValueError as error:
        print(f"jmake evaluate: {error}", file=sys.stderr)
        return 2
    spec = api.CorpusSpec(seed=args.seed,
                          history_commits=max(200, args.commits // 2),
                          eval_commits=args.commits)
    print(f"Building corpus ({spec.eval_commits} evaluation commits) ...")
    corpus = api.build_corpus(spec)
    options = api.JMakeOptions(use_configs=not args.no_configs,
                               use_allmodconfig=args.allmodconfig)
    if args.no_cache:
        cache: "api.BuildCache | bool" = False
    else:
        policy = api.CachePolicy(clock=args.cache_clock)
        if args.cache_file:
            cache = api.BuildCache.load(args.cache_file, policy,
                                        injector=injector)
        else:
            cache = api.BuildCache(policy)
    if args.resume and not journal:
        print("jmake evaluate: --resume requires --journal "
              "(or --out-dir)", file=sys.stderr)
        return 2
    if args.chaos_kill_after is not None and not journal:
        print("jmake evaluate: --chaos-kill-after requires --journal "
              "(or --out-dir)", file=sys.stderr)
        return 2
    observe = bool(args.trace_out or args.metrics_out)
    session = api.EvaluationSession(corpus, options=options, cache=cache,
                                    observe=observe, fault_plan=fault_plan,
                                    retry_policy=retry_policy)
    crash_point = None
    if args.chaos_kill_after is not None:
        try:
            crash_point = api.CrashPoint(args.chaos_kill_after)
        except ValueError as error:
            print(f"jmake evaluate: {error}", file=sys.stderr)
            return 2
    print("Running JMake over the evaluation window ...")
    try:
        result = session.run(limit=args.limit, jobs=args.jobs,
                             journal=journal, resume=args.resume,
                             on_journal_append=crash_point)
    except api.SimulatedCrashError as error:
        # the chaos harness killed the run at the requested journal
        # offset; everything already journaled survives for --resume
        print(f"jmake evaluate: {error}", file=sys.stderr)
        print(f"resume with: jmake evaluate --journal {journal} "
              f"--resume", file=sys.stderr)
        return 3
    except api.JournalError as error:
        # covers corruption too: a damaged interior record must stop
        # the run loudly, never silently re-check what was durable
        print(f"jmake evaluate: {error}", file=sys.stderr)
        return 2
    if result.journal_stats is not None:
        stats = result.journal_stats
        print(f"journal {stats['path']}: {stats['records']} verdict(s) "
              f"durable ({stats['resumed']} resumed, "
              f"{stats['emitted']} fresh)")
    if args.cache_file and session.cache is not None:
        session.cache.save(args.cache_file)
        print(f"build cache written to {args.cache_file}")
    if args.trace_out:
        events = api.write_chrome_trace(args.trace_out,
                                        result.span_trees or [])
        print(f"trace written to {args.trace_out} "
              f"({events} events, {len(result.span_trees or [])} commits)")
    if args.metrics_out:
        combined = result.metrics.snapshot() \
            if result.metrics is not None else api.MetricsRegistry()
        if session.cache is not None:
            combined.merge(session.cache.stats.registry)
        # the substrate's namespaced counters (substrate.prepared.*,
        # substrate.replay.*) ride along in the same payload
        combined.merge(api.collect_substrate_metrics())
        api.atomic_write_json(args.metrics_out, combined.to_dict())
        print(f"metrics written to {args.metrics_out}")

    print(f"\ncommits: {result.total_commits}  ignored: "
          f"{result.ignored_commits}  patches checked: "
          f"{len(result.patches)}\n")
    if fault_plan:
        injected = sum(len(patch.fault_reports)
                       for patch in result.patches)
        partial = [patch for patch in result.patches
                   if patch.quarantined_archs]
        print(f"Robustness: {injected} fault(s) injected, "
              f"{len(partial)} commit(s) degraded to PARTIAL")
        for patch in partial:
            print(f"  {patch.commit_id}: {patch.verdict}")
        print()
    if args.cache_stats and result.cache_stats is not None:
        print("Build cache statistics\n" + result.cache_stats.render()
              + "\n")
    if args.cache_stats:
        from repro.cpp import prepared
        print("Substrate fast-path statistics\n" + prepared.render_stats()
              + "\n")
    _, text = api.table3(result)
    print("Table III — patch characteristics\n" + text + "\n")
    _, text = api.table4(result)
    print("Table IV — reasons lines escape the compiler (janitors)\n"
          + text + "\n")
    for experiment_id in ("E-F4a", "E-F4b", "E-F4c", "E-F5", "E-F6",
                          "E-S1", "E-S2", "E-S3", "E-S4", "E-S5", "E-S6"):
        _, text = api.EXPERIMENTS[experiment_id].run(result)
        print(text + "\n")
    if args.output:
        api.atomic_write_text(args.output,
                              api.write_markdown_report(result))
        print(f"markdown report written to {args.output}")
    return 0


def _build_telemetry(metrics_paths, events_path) -> tuple:
    """Sinks/EventLog/snapshot-seed from resolved telemetry paths.

    Returns ``(metrics_sinks, events, snapshot_start_seq, closers)``.
    JSONL sinks carry their journal-style ``last_seq`` watermark out of
    recovery; seeding the emitters with it is what makes a restarted
    service continue the monotone sequence instead of duplicating
    already-durable records.
    """
    metrics_sinks = []
    closers = []
    snapshot_start = 0
    for path in metrics_paths or []:
        if path.endswith(".jsonl"):
            sink = api.JsonlSink(path)
            snapshot_start = max(snapshot_start, sink.last_seq)
            closers.append(sink)
        else:
            sink = api.OpenMetricsSink(path)
        metrics_sinks.append(sink)
    events = None
    if events_path:
        event_sink = api.JsonlSink(events_path)
        closers.append(event_sink)
        events = api.EventLog(start_seq=event_sink.last_seq,
                              sinks=[event_sink])
    elif metrics_sinks:
        # sinks imply observe mode: keep the in-memory ring so
        # stats()["events"] is populated even without a durable file
        events = api.EventLog()
    return metrics_sinks, events, snapshot_start, closers


def _serve(args: argparse.Namespace) -> int:
    try:
        api.validate_jobs(args.jobs, what="--jobs")
        config = api.ServiceConfig(
            max_pending_requests=args.max_pending,
            transport=args.transport,
            jobs=args.jobs,
            start_method=args.start_method,
            listen=args.listen,
            auth_key=args.auth_key,
            spawn_workers=not args.no_spawn,
            heartbeat_seconds=args.heartbeat,
            lease_seconds=args.lease,
            reconnect_grace_seconds=args.reconnect_grace)
        if args.stats_interval is not None and args.stats_interval <= 0:
            raise ValueError(f"--stats-interval must be positive, "
                             f"got {args.stats_interval}")
    except ValueError as error:
        print(f"jmake serve: {error}", file=sys.stderr)
        return 2
    fault_plan = None
    if args.fault_plan:
        try:
            fault_plan = api.FaultPlan.load(args.fault_plan)
        except api.FaultPlanError as error:
            print(f"jmake serve: {error}", file=sys.stderr)
            return 2
        config.fault_plan = fault_plan
    try:
        resolved = api.resolve_outputs(
            args.out_dir,
            {"stats": args.stats_out, "metrics": args.metrics_sink,
             "events": args.events_out})
    except ValueError as error:
        print(f"jmake serve: {error}", file=sys.stderr)
        return 2
    stats_out = resolved["stats"]
    events_out = resolved["events"]
    metrics_paths = resolved["metrics"]
    if isinstance(metrics_paths, str):
        metrics_paths = [metrics_paths]
    try:
        metrics_sinks, events, snapshot_start, closers = \
            _build_telemetry(metrics_paths, events_out)
    except OSError as error:
        print(f"jmake serve: {error}", file=sys.stderr)
        return 2
    if events is not None:
        config.events = events
    spec = api.CorpusSpec(seed=args.seed,
                          history_commits=max(200, args.commits // 2),
                          eval_commits=args.commits)
    print(f"Building corpus ({spec.eval_commits} evaluation commits) ...")
    corpus = api.build_corpus(spec)
    service = api.serve(corpus,
                        config=config,
                        cache=not args.no_cache)
    if metrics_sinks:
        service.snapshotter = api.Snapshotter(
            service.metrics,
            collectors=[api.collect_substrate_metrics],
            interval_seconds=args.stats_interval,
            start_seq=snapshot_start,
            sinks=metrics_sinks)

    commits = corpus.repository.log(since=api.Corpus.TAG_EVAL_START,
                                    until=api.Corpus.TAG_EVAL_END)
    checkable = [commit for commit in commits
                 if api.is_checkable(corpus.repository, commit)]
    if args.limit is not None:
        checkable = checkable[:args.limit]
    workers = ""
    if config.transport != "asyncio":
        workers = (f" jobs={config.jobs} "
                   f"start_method={config.start_method}")
        if config.listen:
            workers += f" listen={config.listen}"
        if not config.spawn_workers:
            workers += " (awaiting external workers)"
    print(f"service: transport={config.transport}{workers}; submitting "
          f"{len(checkable)} request(s) ...")
    try:
        results = service.check_commits(
            [commit.id for commit in checkable])
        stats = service.stats()
    finally:
        for sink in closers:
            sink.close()
    for result in results:
        print(f"  {result.request_id} {result.commit_id}: "
              f"{result.verdict} "
              f"({result.elapsed_sim_seconds:.1f}s simulated)")
    print(f"\nrequests completed: {stats['requests_completed']}")
    for worker in stats["shards"]:
        print(f"  worker {worker['worker']}: pid={worker['pid']} "
              f"assignments={worker['assignments']} "
              f"crashes={worker['crashes']} "
              f"hangs={worker['hangs']} "
              f"restarts={worker['restarts']}")
    health = stats["health"]
    print(f"  health: {health['status']} "
          f"(breakers={health['breaker_open_shards'] or '-'} "
          f"quarantined={','.join(health['quarantined_archs']) or '-'})")
    if stats.get("snapshots"):
        snapshots = stats["snapshots"]
        print(f"  snapshots: {snapshots['samples_taken']} sample(s), "
              f"seq={snapshots['seq']}, "
              f"interval={snapshots['interval_seconds']}s")
        for sink in metrics_sinks:
            print(f"    sink {sink.path}")
    if events is not None:
        event_stats = stats["events"]
        counts = " ".join(f"{kind}={count}" for kind, count
                          in event_stats["counts"].items()) or "-"
        print(f"  events: seq={event_stats['seq']} {counts}")
        if events_out:
            print(f"    sink {events_out}")
    if stats_out:
        api.atomic_write_json(stats_out, stats)
        print(f"stats written to {stats_out}")
    drained = not stats["started"]
    print("drain: clean" if drained else "drain: NOT CLEAN")
    return 0 if drained and len(results) == len(checkable) else 1


def _worker(args: argparse.Namespace) -> int:
    host, _, port_text = args.connect.rpartition(":")
    try:
        port = int(port_text)
        if not host or not 0 < port < 65536:
            raise ValueError
    except ValueError:
        print(f"jmake worker: --connect wants HOST:PORT, "
              f"got {args.connect!r}", file=sys.stderr)
        return 2
    corpus = None
    if args.seed is not None:
        # pre-build the corpus locally instead of waiting for the
        # coordinator's spec; the WELCOME fingerprint check still
        # proves both sides see the same tree
        spec = api.CorpusSpec(seed=args.seed,
                              history_commits=max(200, args.commits // 2),
                              eval_commits=args.commits)
        print(f"Building corpus ({spec.eval_commits} evaluation "
              f"commits) ...")
        corpus = api.build_corpus(spec)
    try:
        reconnect = api.ReconnectPolicy(max_attempts=args.max_attempts)
        client = api.WorkerClient(
            host, port,
            auth_key=args.auth_key,
            worker_id=args.worker_id,
            corpus=corpus,
            cache=not args.no_cache,
            start_method=args.start_method or "fork",
            reconnect=reconnect)
    except ValueError as error:
        print(f"jmake worker: {error}", file=sys.stderr)
        return 2
    print(f"worker: connecting to {host}:{port} ...")
    try:
        summary = client.run()
    except api.AuthError as error:
        print(f"jmake worker: {error}", file=sys.stderr)
        return 4
    except api.CorpusMismatchError as error:
        print(f"jmake worker: {error}", file=sys.stderr)
        print("hint: rebuild with the coordinator's --seed/--commits "
              "(or drop --seed to take the wire spec)", file=sys.stderr)
        return 4
    except (api.TransportError, OSError) as error:
        print(f"jmake worker: {error}", file=sys.stderr)
        return 3
    print(f"worker {summary['worker_id']} done: "
          f"{summary['assignments']} assignment(s), "
          f"{summary['reconnects']} reconnect(s), "
          f"lease epoch {summary['lease']}")
    return 0


def _watch(args: argparse.Namespace) -> int:
    try:
        api.validate_jobs(args.jobs, what="--jobs")
        resolved = api.resolve_outputs(
            args.out_dir,
            {"store": args.store, "journal": args.journal,
             "events": args.events_out, "stats": args.stats_out})
        service_config = api.ServiceConfig(
            transport=args.transport,
            jobs=args.jobs,
            start_method=args.start_method)
        config = api.WatchConfig(
            batch_size=args.batch_size,
            max_batches=args.max_batches,
            limit=args.limit,
            fsync=not args.no_fsync,
            chaos_kill_after=args.chaos_kill_after,
            service=service_config,
            cache=not args.no_cache,
            follow=args.follow,
            poll_interval_seconds=args.poll_interval,
            stop_file=args.stop_file,
            idle_timeout_seconds=args.idle_timeout)
    except ValueError as error:
        print(f"jmake watch: {error}", file=sys.stderr)
        return 2
    store_path = resolved["store"]
    journal = resolved["journal"]
    if not store_path or not journal:
        print("jmake watch: needs --out-dir (or both --store and "
              "--journal) so the store and journal persist",
              file=sys.stderr)
        return 2
    events = None
    closers = []
    if resolved["events"]:
        event_sink = api.JsonlSink(resolved["events"])
        closers.append(event_sink)
        events = api.EventLog(start_seq=event_sink.last_seq,
                              sinks=[event_sink])
    spec = api.CorpusSpec(seed=args.seed,
                          history_commits=max(200, args.commits // 2),
                          eval_commits=args.commits)
    print(f"Building corpus ({spec.eval_commits} evaluation commits) ...")
    corpus = api.build_corpus(spec)
    options = api.JMakeOptions(use_configs=not args.no_configs,
                               use_allmodconfig=args.allmodconfig)
    try:
        if args.source == "synthetic":
            source = api.SyntheticTrafficSource(corpus, args.traffic,
                                                seed=args.traffic_seed)
        else:
            source = api.WindowSource(corpus)
    except ValueError as error:
        print(f"jmake watch: {error}", file=sys.stderr)
        return 2
    resume_hint = f"--out-dir {args.out_dir}" if args.out_dir else \
        f"--store {store_path} --journal {journal}"
    mode = " follow" if args.follow else ""
    print(f"watch: source={args.source} transport={args.transport} "
          f"jobs={args.jobs} batch_size={args.batch_size}{mode}; "
          f"store={store_path} journal={journal}")
    session = api.WatchSession(corpus, store=store_path,
                               journal=journal, source=source,
                               options=options, config=config,
                               events=events, resume=args.resume)
    previous_handlers = {}
    if args.follow:
        import signal

        def _graceful(signum, frame):
            # flag only; the loop stops at the next batch boundary so
            # the in-flight batch lands durably first
            session.request_stop("signal")

        for signum in (signal.SIGTERM, signal.SIGINT):
            previous_handlers[signum] = signal.signal(signum, _graceful)
    try:
        result = session.run()
    except api.SimulatedCrashError as error:
        # the dying verdict is already durable in the journal; the
        # resumed daemon catches the store up and continues the stream
        print(f"jmake watch: {error}", file=sys.stderr)
        print(f"resume with: jmake watch {resume_hint} --resume "
              f"(same --seed/--commits/--source flags)",
              file=sys.stderr)
        return 3
    except (api.JournalError, api.StoreError) as error:
        print(f"jmake watch: {error}", file=sys.stderr)
        return 2
    finally:
        if previous_handlers:
            import signal
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)
        for sink in closers:
            sink.close()
    idle = f", {result.idle_polls} idle poll(s)" \
        if result.idle_polls else ""
    # CI greps "watch drained:"; other stop reasons name themselves
    ending = "drained" if result.stopped_by == "drained" \
        else f"stopped ({result.stopped_by})"
    print(f"\nwatch {ending}: "
          f"{result.commits_seen} commit(s) pulled, "
          f"{result.fresh} checked fresh, {result.replayed} replayed "
          f"from the journal, {result.batches} batch(es){idle}")
    stats = result.store_stats
    print(f"store {store_path}: {stats['verdicts']} verdict(s), "
          f"{stats['file_rows']} file row(s), {stats['authors']} "
          f"author(s) ({result.ingested} ingested this run, "
          f"{result.duplicates} duplicate(s))")
    jstats = result.journal_stats
    print(f"journal {jstats['path']}: {jstats['records']} verdict(s) "
          f"durable ({jstats['recovered']} recovered, "
          f"{jstats['emitted']} fresh)")
    if result.janitors:
        print("\njanitor view (ascending file_cv):")
        for row in result.janitors:
            print(f"  {row.email} patches={row.patches} "
                  f"certified={row.certified} partial={row.partial} "
                  f"attention={row.attention} files={row.files} "
                  f"file_cv={row.file_cv:.3f}")
    if resolved["stats"]:
        summary = {
            "commits_seen": result.commits_seen,
            "fresh": result.fresh,
            "replayed": result.replayed,
            "batches": result.batches,
            "ingested": result.ingested,
            "duplicates": result.duplicates,
            "store": result.store_stats,
            "journal": result.journal_stats,
        }
        api.atomic_write_json(resolved["stats"], summary)
        print(f"stats written to {resolved['stats']}")
    return 0


def _query(args: argparse.Namespace) -> int:
    import os
    if args.store != ":memory:" and not os.path.exists(args.store):
        print(f"jmake query: {args.store}: no such store "
              f"(run `jmake watch` first)",
              file=sys.stderr)
        return 2
    try:
        with api.open_store(args.store) as store:
            return _answer_query(args, store)
    except api.StoreError as error:
        print(f"jmake query: {error}", file=sys.stderr)
        return 2


def _answer_query(args: argparse.Namespace, store) -> int:
    """Run one ``jmake query`` mode against an open store."""
    if args.compact:
        if args.retain is None:
            print("jmake query: --compact needs --retain N "
                  "(newest verdicts to keep)", file=sys.stderr)
            return 2
        pruned = store.compact(args.retain)
        print(f"{args.store}: compacted to {pruned['kept']} "
              f"verdict(s) ({pruned['pruned']} pruned, "
              f"{pruned['file_rows_pruned']} file row(s) dropped)")
        return 0
    if args.canonical:
        # the byte-deterministic proof format CI diffs — nothing
        # else may touch stdout in this mode
        sys.stdout.write(store.canonical_dump())
        return 0
    if args.janitors:
        rows = store.janitor_report(api.JanitorViewCriteria(
            min_patches=args.min_patches, min_files=args.min_files,
            top_n=args.top))
        print(f"{args.store}: {len(rows)} janitor(s) "
              f"(ascending file_cv)")
        for row in rows:
            print(f"  {row.email} ({row.name}) "
                  f"patches={row.patches} certified={row.certified} "
                  f"partial={row.partial} attention={row.attention} "
                  f"files={row.files} file_cv={row.file_cv:.3f}")
        return 0
    tristate = {"yes": True, "no": False, None: None}
    predicates = {
        "commit": args.commit, "path": args.path,
        "arch": args.arch, "config": args.config,
        "status": args.status, "verdict": args.verdict,
        "author": args.author, "limit": args.limit,
        "certified": tristate[args.certified],
        "fully_checked": tristate[args.fully_checked],
    }
    predicates = {name: value for name, value in predicates.items()
                  if value is not None}
    results = api.query_verdicts(store, **predicates)
    if args.json:
        print(json.dumps([verdict.record for verdict in results],
                         indent=2, sort_keys=True))
        return 0
    print(f"{args.store}: {len(results)} verdict(s) "
          f"({len(store)} stored)")
    for verdict in results:
        print(f"  {verdict.commit} {verdict.verdict} "
              f"author={verdict.author_email or '-'} "
              f"files={len(set(row.path for row in verdict.files))} "
              f"elapsed={verdict.elapsed_seconds:.1f}s")
        if args.files:
            for row in verdict.files:
                print(f"    {row.path} arch={row.arch or '-'} "
                      f"config={row.config or '-'} "
                      f"status={row.status} "
                      f"i_ok={int(row.i_ok)} o_ok={int(row.o_ok)}")
    return 0


def _render_metrics_tables(metrics: dict) -> str:
    """Counters/gauges as a fixed-width table, histograms with
    p50/p90/p99 latency summaries."""
    lines = []
    scalars = [(name, value)
               for section in ("counters", "gauges")
               for name, value in sorted(metrics.get(section, {}).items())]
    if scalars:
        width = max(len(name) for name, _ in scalars)
        lines.append(f"{'instrument':<{width}} {'value':>14}")
        lines.append("-" * (width + 15))
        for name, value in scalars:
            text = f"{value:.3f}".rstrip("0").rstrip(".") \
                if isinstance(value, float) else str(value)
            lines.append(f"{name:<{width}} {text:>14}")
    histograms = metrics.get("histograms", {})
    if histograms:
        if lines:
            lines.append("")
        for name in sorted(histograms):
            data = histograms[name]
            quantiles = api.histogram_quantiles(data)
            lines.append(
                f"{name}: n={data['count']} sum={data['sum']:.4f} "
                f"p50={quantiles[0.5]:.4f} p90={quantiles[0.9]:.4f} "
                f"p99={quantiles[0.99]:.4f}")
    return "\n".join(lines)


def _stats(args: argparse.Namespace) -> int:
    """Read one telemetry sink back: latest snapshot (or event counts)."""
    path = args.sink
    try:
        if path.endswith(".jsonl"):
            records = api.read_jsonl(path)
            if not records:
                print(f"jmake stats: no records in {path}",
                      file=sys.stderr)
                return 2
            snapshots = [record for record in records
                         if "metrics" in record]
            if snapshots:
                record = snapshots[-1]
                api.validate_snapshot_record(record)
                print(f"{path}: {len(snapshots)} snapshot(s), latest "
                      f"seq={record['seq']} clock={record['clock']} "
                      f"ts={record['ts']:.3f}\n")
                print(_render_metrics_tables(record["metrics"]))
                return 0
            # an --events-out file: summarize kinds instead
            counts: dict[str, int] = {}
            for record in records:
                api.validate_event_record(record)
                counts[record["kind"]] = counts.get(record["kind"], 0) + 1
            print(f"{path}: {len(records)} event(s), latest "
                  f"seq={records[-1]['seq']}\n")
            width = max(len(kind) for kind in counts)
            for kind in sorted(counts):
                print(f"{kind:<{width}} {counts[kind]:>8}")
            return 0
        with open(path, "r", encoding="utf-8") as handle:
            metrics = api.parse_openmetrics(handle.read())
        seq = metrics["gauges"].pop("jmake_snapshot_seq", None)
        timestamp = metrics["gauges"].pop(
            "jmake_snapshot_timestamp_seconds", None)
        header = f"{path}: OpenMetrics exposition"
        if seq is not None:
            header += f", snapshot seq={seq}"
        if timestamp is not None:
            header += f" ts={timestamp:.3f}"
        print(header + "\n")
        print(_render_metrics_tables(metrics))
        return 0
    except FileNotFoundError:
        print(f"jmake stats: {path}: no such file", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"jmake stats: {path}: {error}", file=sys.stderr)
        return 2


def _trace(args: argparse.Namespace) -> int:
    spec = api.CorpusSpec(seed=args.seed,
                          history_commits=max(200, args.commits // 2),
                          eval_commits=args.commits)
    print(f"Building corpus ({spec.eval_commits} evaluation commits) ...")
    corpus = api.build_corpus(spec)
    try:
        commit = corpus.repository.resolve(args.commit)
    except api.VcsError as error:
        print(f"jmake trace: {error}", file=sys.stderr)
        print("hint: commit ids come from the synthetic corpus; run "
              "`jmake evaluate` (same --seed/--commits) to list them",
              file=sys.stderr)
        return 2
    tracer = api.Tracer()
    metrics = api.MetricsRegistry()
    options = api.JMakeOptions(use_configs=not args.no_configs,
                               use_allmodconfig=args.allmodconfig)
    session = api.CheckSession.from_generated_tree(
        corpus.tree, options=options, tracer=tracer, metrics=metrics)
    report = session.check_commit(corpus.repository, commit)
    root = tracer.drain()[-1]
    root.set("commit.index", 0)
    root.set("worker", 0)
    tree = root.to_dict()
    print(f"\n{api.render_span_tree(tree)}\n")
    print(f"spans: {api.span_count(tree)}  verdict: {report.verdict}")
    if args.out:
        events = api.write_chrome_trace(args.out, [tree])
        print(f"trace written to {args.out} ({events} events)")
    return 0


def _janitors(args: argparse.Namespace) -> int:
    spec = api.CorpusSpec(seed=args.seed,
                          history_commits=args.commits,
                          eval_commits=max(100, args.commits // 3))
    print(f"Building corpus ({spec.history_commits} history commits) ...")
    corpus = api.build_corpus(spec)
    criteria = api.scaled_criteria(corpus)
    _, text = api.table1(criteria)
    print("Table I — thresholds\n" + text + "\n")
    finder = api.JanitorFinder(corpus.repository, corpus.tree.maintainers,
                               criteria=criteria)
    ranked = finder.identify(
        history_since=None, history_until=api.Corpus.TAG_EVAL_END,
        eval_since=api.Corpus.TAG_EVAL_START,
        eval_until=api.Corpus.TAG_EVAL_END)
    tool_users = {p.name for p in corpus.roster if p.tool_user}
    interns = {p.name for p in corpus.roster if p.intern}
    _, text = api.table2(ranked, tool_users=tool_users, interns=interns)
    print("Table II — identified janitors\n" + text)
    ground_truth = {p.name for p in corpus.roster
                    if p.kind is api.PersonaKind.JANITOR}
    hits = sum(1 for dev in ranked if dev.name in ground_truth)
    print(f"\nground-truth janitors recovered: {hits}/{len(ranked)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``jmake`` command."""
    parser = argparse.ArgumentParser(
        prog="jmake",
        description="JMake reproduction (Lawall & Muller, DSN 2017)")
    parser.add_argument("--log-level", default=None,
                        choices=list(api.LEVELS),
                        help="configure the repro.* logger hierarchy "
                             "(default: warnings only, unformatted)")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="check one demo patch")
    demo.set_defaults(func=_demo)

    evaluate = sub.add_parser("evaluate",
                              help="regenerate the paper's evaluation")
    evaluate.add_argument("--commits", type=int, default=400)
    evaluate.add_argument("--limit", type=int, default=None)
    evaluate.add_argument("--seed", default="jmake-cli")
    evaluate.add_argument("--no-configs", action="store_true",
                          help="allyesconfig only (the E-S1 baseline)")
    evaluate.add_argument("--allmodconfig", action="store_true",
                          help="also try allmodconfig (the E-A1 extension)")
    evaluate.add_argument("--jobs", type=int, default=1,
                          help="worker processes (the paper used 25)")
    evaluate.add_argument("--no-cache", action="store_true",
                          help="disable the content-addressed build cache")
    evaluate.add_argument("--cache-stats", action="store_true",
                          help="print build-cache hit/miss statistics")
    evaluate.add_argument("--cache-file", default=None,
                          help="pickle the build cache here "
                               "(loaded first if it exists)")
    evaluate.add_argument("--cache-clock", default="replay",
                          choices=["replay", "probe"],
                          help="hit accounting: replay charges the full "
                               "modeled cost (timings byte-identical); "
                               "probe charges only the probe cost")
    evaluate.add_argument("--output", default=None,
                          help="write a markdown report to this path")
    evaluate.add_argument("--trace-out", default=None,
                          help="write a Chrome trace-event JSON "
                               "(chrome://tracing / Perfetto) with one "
                               "span tree per checked commit")
    evaluate.add_argument("--metrics-out", default=None,
                          help="write the pipeline metrics registry "
                               "(counters/histograms + cache telemetry) "
                               "as JSON")
    evaluate.add_argument("--out-dir", default=None, metavar="DIR",
                          help="resolve output sinks to conventional "
                               "filenames in this directory (journal "
                               "-> DIR/run.jnl); per-sink flags "
                               "override")
    evaluate.add_argument("--journal", default=None,
                          help="write-ahead verdict journal: every "
                               "patch verdict is fsynced here the "
                               "moment it exists (see DESIGN.md §7; "
                               "overrides --out-dir's run.jnl)")
    evaluate.add_argument("--resume", action="store_true",
                          help="replay --journal and rerun only the "
                               "commits without a durable verdict; the "
                               "final records are byte-identical to an "
                               "uninterrupted run")
    evaluate.add_argument("--chaos-kill-after", type=int, default=None,
                          metavar="N",
                          help="chaos harness: simulate sudden process "
                               "death after N journaled verdicts "
                               "(exit 3; rerun with --resume)")
    evaluate.add_argument("--fault-plan", default=None,
                          help="JSON fault plan to inject deterministic "
                               "build failures (see DESIGN.md §5)")
    evaluate.add_argument("--max-retries", type=int, default=2,
                          help="bounded retries per faulted step "
                               "(exponential backoff, simulated clock)")
    evaluate.add_argument("--step-timeout", type=float, default=None,
                          help="simulated seconds one config/compile "
                               "step may take before failing with a "
                               "timeout")
    evaluate.set_defaults(func=_evaluate)

    serve = sub.add_parser("serve",
                           help="start the check service, run a batch "
                                "of requests, and drain")
    serve.add_argument("--commits", type=int, default=400)
    serve.add_argument("--limit", type=int, default=8,
                       help="requests to submit from the eval window")
    serve.add_argument("--seed", default="jmake-cli")
    serve.add_argument("--transport", default="asyncio",
                       choices=("asyncio", "socket"),
                       help="execution backend: checks on this "
                            "process's asyncio loop, or warm worker "
                            "processes over a socket speaking the "
                            "framed wire protocol")
    serve.add_argument("--jobs", type=int, default=2,
                       help="worker processes for the socket transport "
                            "(default: 2)")
    serve.add_argument("--start-method", default=None,
                       choices=("fork", "spawn", "forkserver"),
                       help="multiprocessing start method for worker "
                            "processes (default: JMAKE_START_METHOD "
                            "from the environment, else fork)")
    serve.add_argument("--max-pending", type=int, default=64,
                       help="admission control: concurrent requests")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the shared build cache")
    serve.add_argument("--fault-plan", default=None,
                       help="JSON fault plan applied per request")
    serve.add_argument("--out-dir", default=None, metavar="DIR",
                       help="resolve output sinks to conventional "
                            "filenames in this directory (stats.json, "
                            "metrics.jsonl, events.jsonl); per-sink "
                            "flags override")
    serve.add_argument("--stats-out", default=None,
                       help="write scheduling stats JSON here "
                            "(overrides --out-dir's stats.json)")
    serve.add_argument("--metrics-sink", action="append", default=None,
                       metavar="PATH",
                       help="periodic metric snapshots: *.jsonl appends "
                            "JSON-lines history (resumable), anything "
                            "else is an atomically rewritten "
                            "OpenMetrics exposition file (repeatable)")
    serve.add_argument("--events-out", default=None, metavar="PATH",
                       help="append structured operational events "
                            "(crashes, breakers, rejections, ...) as "
                            "JSONL; resumes seq numbers on restart")
    serve.add_argument("--stats-interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="real seconds between metric snapshots "
                            "when a --metrics-sink is configured "
                            "(default: 1.0)")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="socket transport: bind the coordinator "
                            "here so cross-host `jmake worker` "
                            "processes can dial in (default: an "
                            "ephemeral localhost port)")
    serve.add_argument("--auth-key", default=None, metavar="KEY",
                       help="shared secret for the HMAC challenge/"
                            "response worker handshake (default: a "
                            "random per-run key, which only spawned "
                            "workers can know)")
    serve.add_argument("--no-spawn", action="store_true",
                       help="socket transport: spawn no local workers; "
                            "every slot waits for an external `jmake "
                            "worker --connect` (requires --auth-key)")
    serve.add_argument("--heartbeat", type=float, default=0.0,
                       metavar="SECONDS",
                       help="socket transport: ask workers to "
                            "heartbeat this often; 0 disables "
                            "lease-based failure detection")
    serve.add_argument("--lease", type=float, default=0.0,
                       metavar="SECONDS",
                       help="socket transport: reclaim a worker's "
                            "assignment after this long without a "
                            "heartbeat (>= --heartbeat)")
    serve.add_argument("--reconnect-grace", type=float, default=0.0,
                       metavar="SECONDS",
                       help="socket transport: how long a crashed "
                            "connection may rejoin (fresh lease epoch) "
                            "before the slot restarts or breaks")
    serve.set_defaults(func=_serve)

    worker = sub.add_parser(
        "worker",
        help="join a coordinator as a cross-host check worker over "
             "the framed wire protocol")
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="the coordinator's --listen address")
    worker.add_argument("--auth-key", required=True, metavar="KEY",
                        help="shared secret proving this worker to "
                             "the coordinator (HMAC challenge/response)")
    worker.add_argument("--worker-id", type=int, default=-1,
                        help="claim a specific worker slot "
                             "(default: -1, any free slot)")
    worker.add_argument("--seed", default=None,
                        help="pre-build the corpus locally from this "
                             "seed instead of taking the coordinator's "
                             "wire spec (must match its --seed)")
    worker.add_argument("--commits", type=int, default=400,
                        help="evaluation commits when --seed is given "
                             "(must match the coordinator)")
    worker.add_argument("--no-cache", action="store_true",
                        help="disable this worker's build cache")
    worker.add_argument("--max-attempts", type=int, default=8,
                        help="consecutive failed dials before giving "
                             "up (jittered exponential backoff "
                             "between attempts)")
    worker.add_argument("--start-method", default=None,
                        choices=("fork", "spawn", "forkserver"),
                        help="reported in HELLO for fleet telemetry")
    worker.set_defaults(func=_worker)

    watch = sub.add_parser("watch",
                           help="fleet mode: continuously check unseen "
                                "commits from a stream and ingest every "
                                "verdict into the persistent store")
    watch.add_argument("--commits", type=int, default=400)
    watch.add_argument("--seed", default="jmake-cli")
    watch.add_argument("--no-configs", action="store_true",
                       help="allyesconfig only (the E-S1 baseline)")
    watch.add_argument("--allmodconfig", action="store_true",
                       help="also try allmodconfig (the E-A1 extension)")
    watch.add_argument("--out-dir", default=None, metavar="DIR",
                       help="resolve the store/journal/event sinks to "
                            "conventional filenames in this directory "
                            "(verdicts.sqlite, run.jnl, events.jsonl)")
    watch.add_argument("--store", default=None, metavar="PATH",
                       help="per-sink override: the SQLite verdict "
                            "store (default: DIR/verdicts.sqlite)")
    watch.add_argument("--journal", default=None, metavar="PATH",
                       help="per-sink override: the write-ahead "
                            "verdict journal (default: DIR/run.jnl)")
    watch.add_argument("--events-out", default=None, metavar="PATH",
                       help="per-sink override: append watch/ingest "
                            "events as JSONL (default: "
                            "DIR/events.jsonl when --out-dir is set)")
    watch.add_argument("--stats-out", default=None, metavar="PATH",
                       help="per-sink override: write the run summary "
                            "JSON (default: DIR/stats.json)")
    watch.add_argument("--source", default="window",
                       choices=("window", "synthetic"),
                       help="commit stream: the corpus's evaluation "
                            "window (a fixed backlog) or fresh "
                            "deterministic synthetic traffic")
    watch.add_argument("--traffic", type=int, default=12,
                       help="synthetic source: commits to generate")
    watch.add_argument("--traffic-seed", default="watch-traffic",
                       help="synthetic source: traffic stream seed")
    watch.add_argument("--batch-size", type=int, default=8,
                       help="unseen commits checked per ingest batch")
    watch.add_argument("--max-batches", type=int, default=None,
                       help="stop after this many batches "
                            "(default: drain the stream)")
    watch.add_argument("--limit", type=int, default=None,
                       help="cap on total commits checked across the "
                            "run (journal backlog included, so "
                            "--resume stops at the same stream "
                            "position)")
    watch.add_argument("--resume", action="store_true",
                       help="reopen the journal and store, replay "
                            "durable verdicts, and continue the "
                            "stream where the last process died")
    watch.add_argument("--chaos-kill-after", type=int, default=None,
                       metavar="N",
                       help="chaos harness: simulate sudden process "
                            "death after N journaled verdicts "
                            "(exit 3; rerun with --resume)")
    watch.add_argument("--no-fsync", action="store_true",
                       help="skip per-record journal fsync (tests)")
    watch.add_argument("--follow", action="store_true",
                       help="long-lived mode: when the stream runs "
                            "dry, poll it for new commits instead of "
                            "exiting; stop via SIGTERM/SIGINT (the "
                            "in-flight batch still lands), "
                            "--stop-file, or --idle-timeout")
    watch.add_argument("--poll-interval", type=float, default=0.5,
                       metavar="SECONDS",
                       help="follow mode: real seconds between idle "
                            "polls (default: 0.5)")
    watch.add_argument("--stop-file", default=None, metavar="PATH",
                       help="follow mode: stop gracefully when this "
                            "file appears (touch it to stop a daemon "
                            "you cannot signal)")
    watch.add_argument("--idle-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="follow mode: stop after this long with "
                            "no new commits (default: wait forever)")
    watch.add_argument("--transport", default="asyncio",
                       choices=("asyncio", "socket"),
                       help="check-service execution backend")
    watch.add_argument("--jobs", type=int, default=2,
                       help="worker processes for the socket transport "
                            "(default: 2)")
    watch.add_argument("--start-method", default=None,
                       choices=("fork", "spawn", "forkserver"),
                       help="multiprocessing start method")
    watch.add_argument("--no-cache", action="store_true",
                       help="disable the shared build cache")
    watch.set_defaults(func=_watch)

    query = sub.add_parser("query",
                           help="ask an ingested verdict store "
                                "questions without compiling anything")
    query.add_argument("store", help="path to a verdict store "
                                     "(--store/--out-dir from a watch "
                                     "run)")
    query.add_argument("--commit", default=None,
                       help="exact commit id")
    query.add_argument("--path", default=None,
                       help="commits whose patch touched this file")
    query.add_argument("--arch", default=None,
                       help="commits with a compilation fact on this "
                            "architecture")
    query.add_argument("--config", default=None,
                       help="commits checked under this config target")
    query.add_argument("--status", default=None,
                       help="per-file status (e.g. ok, quarantined)")
    query.add_argument("--verdict", default=None,
                       help="CERTIFIED, 'ATTENTION REQUIRED', PARTIAL "
                            "(prefix match), or an exact "
                            "'PARTIAL:<archs>' string")
    query.add_argument("--author", default=None,
                       help="commits by this author email")
    query.add_argument("--certified", default=None,
                       choices=("yes", "no"))
    query.add_argument("--fully-checked", default=None,
                       choices=("yes", "no"))
    query.add_argument("--limit", type=int, default=None,
                       help="return at most this many verdicts")
    query.add_argument("--files", action="store_true",
                       help="also print each verdict's per-file rows")
    query.add_argument("--json", action="store_true",
                       help="print the full canonical records as JSON")
    query.add_argument("--janitors", action="store_true",
                       help="print the §IV janitor ranking (derived "
                            "from the stored verdicts) instead of "
                            "verdicts")
    query.add_argument("--min-patches", type=int, default=3,
                       help="janitor view: minimum patches threshold")
    query.add_argument("--min-files", type=int, default=2,
                       help="janitor view: minimum distinct files")
    query.add_argument("--top", type=int, default=10,
                       help="janitor view: rows to print")
    query.add_argument("--canonical", action="store_true",
                       help="print the byte-deterministic canonical "
                            "dump (the kill/resume proof format CI "
                            "diffs)")
    query.add_argument("--compact", action="store_true",
                       help="retention: prune the store down to the "
                            "newest --retain verdicts in one "
                            "transaction, and vacuum")
    query.add_argument("--retain", type=int, default=None, metavar="N",
                       help="newest verdicts --compact keeps")
    query.set_defaults(func=_query)

    stats = sub.add_parser("stats",
                           help="read a telemetry sink back: latest "
                                "snapshot tables with p50/p90/p99 "
                                "latency, or event-kind counts")
    stats.add_argument("sink", help="a --metrics-sink/--events-out path "
                                    "(*.jsonl history or OpenMetrics "
                                    "exposition)")
    stats.set_defaults(func=_stats)

    janitors = sub.add_parser("janitors",
                              help="identify janitors (Tables I-II)")
    janitors.add_argument("--commits", type=int, default=900)
    janitors.add_argument("--seed", default="jmake-cli")
    janitors.set_defaults(func=_janitors)

    trace = sub.add_parser("trace",
                           help="check one commit with tracing on and "
                                "print its annotated span tree")
    trace.add_argument("commit", help="commit id (or unique prefix) "
                                      "in the synthetic corpus")
    trace.add_argument("--commits", type=int, default=400)
    trace.add_argument("--seed", default="jmake-cli")
    trace.add_argument("--no-configs", action="store_true",
                       help="allyesconfig only (the E-S1 baseline)")
    trace.add_argument("--allmodconfig", action="store_true",
                       help="also try allmodconfig (the E-A1 extension)")
    trace.add_argument("--out", default=None,
                       help="also write this commit's Chrome trace JSON")
    trace.set_defaults(func=_trace)

    args = parser.parse_args(argv)
    if args.log_level:
        configure_logging = api.configure_logging
        configure_logging(args.log_level)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
