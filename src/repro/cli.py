"""Command-line interface.

The survey closes §IV-A with open-source frameworks that "provide a
ready for use tool to democratize the CGRAs" — so the package is also
a tool::

    python -m repro list mappers
    python -m repro map dot_product --arch simple4x4 \\
                        --mapper dresc --show-contexts
    python -m repro map dotprod --arch 4x4 --mapper sa_spatial --profile
    python -m repro compare --kernels dot_product,sobel_x \\
                            --mappers list_sched,dresc,ilp --trace out.jsonl
    python -m repro compare --jobs 4 --timeout 60
    python -m repro table1
    python -m repro timeline
    python -m repro dse --cache
    python -m repro cache stats --dir ~/.cache/repro-mappings
    python -m repro fuzz --seeds 0:200 --jobs 4 --timeout 15
    python -m repro fuzz --seeds 0:50 --mapper sat --arch hetero4x4 \\
                         --log failures.jsonl --emit-dir repros/
    python -m repro bench record --note "before refactor"
    python -m repro bench compare last

Every subcommand prints plain text and exits non-zero on failure, so
the CLI scripts cleanly.  ``--profile`` prints the per-phase
time/counter breakdown recorded by :mod:`repro.obs` (plus ASCII
convergence plots when the run emitted progress series); ``--trace
FILE`` writes the spans as JSONL with a provenance manifest on line 0;
``--metrics`` collects process metrics and prints the Prometheus text
exposition.  ``bench record``/``bench compare`` drive the
perf-regression ledger (:mod:`repro.bench.history`).  ``-v``/
``--verbose`` turns on DEBUG logging for the ``repro.*`` hierarchy
(WARNING otherwise).

Kernel, architecture, and mapper names resolve leniently: exact name
first, then case/underscore-insensitive, then unique prefix (the
shortest candidate wins when one is a prefix of all others, so
``dotprod`` means ``dot_product``), then unique substring; a bare
architecture size like ``4x4`` selects the ``simple`` preset.
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import nullcontext

__all__ = ["main"]


# ---------------------------------------------------------------------------
def _normalize(name: str) -> str:
    return name.lower().replace("_", "").replace("-", "")


def resolve_name(name: str, candidates: list[str], what: str) -> str:
    """Resolve a user-supplied name against known ``candidates``."""
    if name in candidates:
        return name
    norm = _normalize(name)
    by_norm = {_normalize(c): c for c in candidates}
    if norm in by_norm:
        return by_norm[norm]
    if "simple" + norm in by_norm:  # bare size -> the simple mesh preset
        return by_norm["simple" + norm]

    def pick(matches: list[str]) -> str | None:
        if len(matches) == 1:
            return matches[0]
        if matches:
            # Unambiguous if the shortest match is a stem of the rest.
            shortest = min(matches, key=lambda c: len(_normalize(c)))
            stem = _normalize(shortest)
            if all(_normalize(m).startswith(stem) for m in matches):
                return shortest
        return None

    chosen = pick([c for c in candidates if _normalize(c).startswith(norm)])
    if chosen is None:
        chosen = pick([c for c in candidates if norm in _normalize(c)])
    if chosen is None:
        raise SystemExit(
            f"unknown {what} {name!r}; available: {sorted(candidates)}"
        )
    return chosen


def _resolve_kernel(name: str) -> str:
    from repro.ir import kernels

    if ":" in name:  # generator spec, e.g. layered:200:1:1 — no fuzzing
        try:
            kernels.kernel(name)
        except KeyError as ex:
            raise SystemExit(str(ex.args[0])) from None
        return name
    return resolve_name(name, list(kernels.kernel_names()), "kernel")


def _resolve_arch(name: str) -> str:
    from repro.arch import presets

    return resolve_name(name, sorted(presets.PRESETS), "architecture")


def _resolve_mapper(name: str) -> str:
    from repro.core.registry import names

    return resolve_name(name, names(), "mapper")


def _obs_context(args):
    """A ``tracing()`` context when ``--trace``/``--profile`` ask for it."""
    from repro.obs import tracing

    if getattr(args, "trace", None) or getattr(args, "profile", False):
        return tracing()
    return nullcontext()


def _emit_obs(args, tracer) -> None:
    """Print the profile and/or write the JSONL trace, when requested."""
    if tracer is None:
        return
    if getattr(args, "profile", False):
        from repro.obs import render_profile

        print("\n" + render_profile(tracer))
    if getattr(args, "trace", None):
        print("\n" + _write_trace(tracer, args.trace))


def _write_trace(source, path: str) -> str:
    from repro.obs import write_jsonl

    try:
        n = write_jsonl(source, path)
    except OSError as ex:
        raise SystemExit(f"error: cannot write trace {path!r}: {ex}")
    return f"trace: wrote {n} records to {path}"


def _metrics_context(args):
    """A ``metrics_scope()`` context when ``--metrics`` asks for it."""
    from repro.obs import metrics_scope

    if getattr(args, "metrics", False):
        return metrics_scope()
    return nullcontext()


def _emit_metrics(registry) -> None:
    """Print the Prometheus exposition of a collected registry."""
    if registry is None:
        return
    from repro.obs import render_prometheus

    text = render_prometheus(registry)
    if text:
        print("\n" + text)


def _cache_option(args):
    """Translate --cache/--no-cache/--cache-dir into the ``cache``
    argument of :func:`repro.cache.cache_scope`."""
    flag = getattr(args, "cache", None)
    if flag is False:
        return False
    directory = getattr(args, "cache_dir", None)
    if directory:
        return directory  # a directory implies --cache
    if flag:
        return True
    return None  # follow the environment (off by default)


def _emit_cache_stats(active) -> None:
    if active is not None:
        print(f"cache: {active.stats.describe()}")


# ---------------------------------------------------------------------------
def _cmd_list(args) -> int:
    if args.what == "mappers":
        from repro.core.registry import catalog

        for name, meta in catalog().items():
            kinds = "/".join(meta["kinds"])
            tag = "exact" if meta["exact"] else meta["family"]
            print(
                f"{name:14s} {tag:13s} {meta['subfamily']:18s}"
                f" {kinds:16s} after {meta['modeled_after']}"
            )
    elif args.what == "kernels":
        from repro.ir import kernels

        for name in kernels.kernel_names():
            g = kernels.kernel(name)
            print(
                f"{name:16s} {g.op_count():3d} ops,"
                f" {g.num_edges():3d} deps,"
                f" {len(g.memory_ops()):2d} memory ops"
            )
    elif args.what == "archs":
        from repro.arch import presets

        for name in sorted(presets.PRESETS):
            cgra = presets.by_name(name)
            print(
                f"{name:14s} {cgra.width}x{cgra.height},"
                f" {len(cgra.links)} links,"
                f" contexts={cgra.n_contexts}"
            )
    return 0


def _cmd_map(args) -> int:
    from repro.api import map_dfg
    from repro.arch import presets
    from repro.cache import cache_scope
    from repro.core.exceptions import MapFailure
    from repro.core.metrics import metrics_of
    from repro.ir import kernels

    arch = _resolve_arch(args.arch)
    mapper = _resolve_mapper(args.mapper)
    cgra = presets.by_name(arch)
    tracer = None
    with _obs_context(args) as ctx, cache_scope(
        _cache_option(args)
    ) as cache, _metrics_context(args) as reg:
        if ctx is not None:
            tracer = ctx
        try:
            if args.source:
                from repro.api import compile_source

                with open(args.source) as fh:
                    src = fh.read()
                mapping = compile_source(src, cgra, mapper=mapper)
            else:
                kernel = _resolve_kernel(args.kernel)
                dfg = kernels.kernel(kernel)
                mapping = map_dfg(
                    dfg, cgra, mapper=mapper, ii=args.ii
                )
        except MapFailure as ex:
            print(f"mapping failed: {ex}", file=sys.stderr)
            _emit_obs(args, tracer)
            _emit_metrics(reg)
            return 1
    print(mapping.describe())
    print(f"\nmetrics: {metrics_of(mapping).row()}")
    if args.show_contexts and mapping.kind == "modulo":
        from repro.sim.configgen import render_contexts

        print("\n" + render_contexts(mapping))
    _emit_cache_stats(cache)
    _emit_obs(args, tracer)
    _emit_metrics(reg)
    return 0


def _cmd_compare(args) -> int:
    from repro.arch import presets
    from repro.bench import ascii_table, run_matrix
    from repro.cache import cache_scope

    arch = _resolve_arch(args.arch)
    mappers = [_resolve_mapper(m) for m in args.mappers.split(",")]
    kernels = [_resolve_kernel(k) for k in args.kernels.split(",")]
    cgra = presets.by_name(arch)
    want_obs = bool(args.trace or args.profile)
    with cache_scope(_cache_option(args)) as cache, _metrics_context(
        args
    ) as reg:
        results = run_matrix(
            mappers, kernels, cgra, trace=want_obs,
            jobs=args.jobs, timeout=args.timeout,
        )
    _emit_cache_stats(cache)
    print(
        ascii_table(
            [r.row() for r in results],
            title=f"mapper x kernel on {cgra.name}",
        )
    )
    if want_obs:
        roots = [r.trace for r in results if r.trace is not None]
        if args.profile:
            from repro.obs import render_convergence, render_summary

            print()
            print(
                render_summary(
                    roots, title="per-phase summary (all cells)"
                )
            )
            convergence = render_convergence(roots)
            if convergence:
                print()
                print(convergence)
        if args.trace:
            print("\n" + _write_trace(roots, args.trace))
    _emit_metrics(reg)
    return 0 if all(r.ok for r in results) else 1


def _cmd_cache(args) -> int:
    from repro.cache import CACHE_DIR_ENV, CACHE_ENV, DiskStore
    from repro.cache import cache_dir_from_env

    directory = args.dir or cache_dir_from_env()
    if not directory:
        print(
            "no cache directory configured; pass --dir, or set"
            f" {CACHE_DIR_ENV} or a path-valued {CACHE_ENV}",
            file=sys.stderr,
        )
        return 1
    store = DiskStore(directory)
    if args.action == "stats":
        st = store.stats()
        print(f"directory: {st['directory']}")
        print(f"entries:   {st['entries']}")
        print(
            f"bytes:     {st['bytes']}"
            f" (cap {st['max_bytes']})"
        )
    else:  # clear
        removed = store.clear()
        print(f"cleared {removed} entr(y/ies) from {directory}")
    return 0


def _parse_seeds(spec: str) -> range:
    """``A:B`` -> range(A, B); a bare ``N`` -> range(0, N)."""
    try:
        if ":" in spec:
            lo_s, hi_s = spec.split(":", 1)
            lo, hi = int(lo_s or 0), int(hi_s)
        else:
            lo, hi = 0, int(spec)
    except ValueError:
        raise SystemExit(f"bad --seeds {spec!r}; expected N or A:B")
    if hi <= lo:
        raise SystemExit(f"empty seed range {spec!r}")
    return range(lo, hi)


def _cmd_fuzz(args) -> int:
    from repro.check import run_fuzz
    from repro.core.registry import names

    seeds = _parse_seeds(args.seeds)
    mappers = None
    if args.mapper:
        mappers = [
            _resolve_mapper(m)
            for spec in args.mapper
            for m in spec.split(",")
        ]
    archs = None
    if args.arch:
        archs = [
            _resolve_arch(a)
            for spec in args.arch
            for a in spec.split(",")
        ]
    tracer = None
    with _obs_context(args) as ctx:
        if ctx is not None:
            tracer = ctx
        report = run_fuzz(
            seeds,
            mappers,
            archs,
            n_iters=args.iters,
            shrink=not args.no_shrink,
            timeout=args.timeout,
            log=args.log,
            fail_fast=args.fail_fast,
            jobs=args.jobs,
            metamorphic=not args.oracle_only,
        )
    n_mappers = len(mappers or names())
    print(
        f"fuzz: seeds {seeds.start}:{seeds.stop} rotating over"
        f" {n_mappers} mapper(s)"
    )
    print(f"fuzz: {report.summary()}")
    for d in report.divergences:
        print(f"  {d.headline()}")
        if d.shrunk_pretty:
            indented = "\n".join(
                "    " + line for line in d.shrunk_pretty.splitlines()
            )
            print(f"    shrunk to:\n{indented}")
    if args.emit_dir and report.divergences:
        import os

        os.makedirs(args.emit_dir, exist_ok=True)
        written = 0
        for d in report.divergences:
            if not d.reproducer:
                continue
            path = os.path.join(
                args.emit_dir,
                f"test_repro_seed{d.seed}_{d.mapper}.py",
            )
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(d.reproducer)
            written += 1
        print(f"fuzz: wrote {written} reproducer(s) to {args.emit_dir}")
    if args.log and report.divergences:
        print(f"fuzz: appended failure log to {args.log}")
    _emit_obs(args, tracer)
    return 0 if report.ok else 1


def _cmd_table1(args) -> int:
    from repro.survey.taxonomy import (
        executable_table1,
        literature_table1,
        render_table1,
    )

    print(render_table1(literature_table1(), title="Table I (literature)"))
    print()
    print(render_table1(executable_table1(), title="Table I (this package)"))
    return 0


def _cmd_timeline(args) -> int:
    from repro.survey.timeline import render_timeline

    print(render_timeline())
    return 0


def _cmd_dse(args) -> int:
    from repro.bench import ascii_table
    from repro.cache import cache_scope
    from repro.dse import default_space, explore, pareto_front

    tracer = None
    with _obs_context(args) as ctx, cache_scope(
        _cache_option(args)
    ) as cache, _metrics_context(args) as reg:
        if ctx is not None:
            tracer = ctx
        points = explore(
            default_space() if args.full else None,
            jobs=args.jobs, timeout=args.timeout,
        )
    _emit_cache_stats(cache)
    rows = [
        {
            "architecture": p.label(),
            "perf": round(p.performance, 3),
            "cost": round(p.cost, 0),
            "mapped": f"{100 * p.success_rate:.0f}%",
        }
        for p in points
    ]
    print(ascii_table(rows, title="design-space sweep"))
    print("\nPareto frontier:")
    for p in pareto_front(points):
        print(f"  {p.label():30s} perf={p.performance:.3f} cost={p.cost:.0f}")
    _emit_obs(args, tracer)
    _emit_metrics(reg)
    return 0


def _cmd_bench(args) -> int:
    import os

    from repro.arch import presets
    from repro.bench import history

    arch = _resolve_arch(args.arch)
    # Non-default slices keep their own ledger files: the parallel
    # slice's timings measure the pool's steady state and the place
    # slice runs different cells on a different fabric class; neither
    # may be diffed against serial default entries.
    suffix = "" if args.slice == "default" else f"-{args.slice}"
    jobs = args.jobs if args.slice in ("parallel", "serve") else 1
    cells = {
        "exact": history.EXACT_SLICE,
        "place": history.PLACE_SLICE,
        "route": history.ROUTE_SLICE,
    }.get(args.slice, history.DEFAULT_SLICE)
    path = os.path.join(args.history_dir, f"{arch}{suffix}.jsonl")
    if args.action == "list":
        try:
            entries = history.load_entries(path)
        except ValueError as ex:  # corrupt ledger line
            print(f"error: {ex}", file=sys.stderr)
            return 2
        if not entries:
            print(f"no ledger at {path}", file=sys.stderr)
            return 1
        print(history.render_entries(entries))
        return 0

    def fresh_entry(note=None):
        if args.slice == "serve":
            return history.run_serve_slice(
                arch, repeats=args.repeats, label=note, jobs=jobs
            )
        if args.slice == "cache":
            return history.run_cache_slice(
                presets.by_name(arch), repeats=args.repeats, label=note
            )
        return history.run_slice(
            presets.by_name(arch), cells=cells, repeats=args.repeats,
            label=note, jobs=jobs,
        )

    if args.action == "record":
        entry = fresh_entry(args.note)
        history.append_entry(entry, path)
        try:
            print(history.render_entries(history.load_entries(path)))
        except ValueError as ex:  # older line is corrupt; entry stands
            print(f"warning: {ex}", file=sys.stderr)
        print(f"\nrecorded entry -> {path}")
        return 0

    # compare: fresh slice vs a recorded baseline.
    try:
        base = history.select_baseline(
            history.load_entries(path), args.baseline
        )
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    fresh = fresh_entry()
    tolerances = {}
    if args.time_tolerance is not None:
        tolerances["time"] = (
            args.time_tolerance, history.TOLERANCES["time"][1]
        )
    if args.count_tolerance is not None:
        tolerances["count"] = (
            args.count_tolerance, history.TOLERANCES["count"][1]
        )
    comparisons = history.compare_entries(
        base, fresh, tolerances=tolerances
    )
    print(history.render_comparison(comparisons, all_rows=args.all))
    if any(c.regressed for c in comparisons) and not args.warn_only:
        return 3
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.cache import cache_scope
    from repro.serve import MappingServer

    server = MappingServer(
        args.host, args.port, jobs=args.jobs, timeout=args.timeout
    )

    def _ready(srv: MappingServer) -> None:
        # A parseable readiness line: the CI smoke (and any wrapper
        # script) waits for it before submitting.
        print(
            f"serve: listening on {srv.host}:{srv.bound_port}",
            flush=True,
        )

    async def _main() -> None:
        with cache_scope(_cache_option(args)):
            await server.run_until_signalled(
                grace=args.grace, ready=_ready
            )

    asyncio.run(_main())
    print("serve: drained and stopped", flush=True)
    return 0


def _cmd_submit(args) -> int:
    import json

    from repro.serve.client import iter_submit

    if args.kernel:
        request = {
            "kernel": _resolve_kernel(args.kernel),
            "arch": _resolve_arch(args.arch),
            "mapper": _resolve_mapper(args.mapper),
        }
        if args.ii is not None:
            request["ii"] = args.ii
        if args.deadline_ms is not None:
            request["deadline_ms"] = args.deadline_ms
        requests = [request]
    else:
        if args.file and args.file != "-":
            try:
                with open(args.file) as fh:
                    text = fh.read()
            except OSError as ex:
                print(f"error: {ex}", file=sys.stderr)
                return 2
        else:
            text = sys.stdin.read()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as ex:
            print(f"error: batch is not valid JSON: {ex}", file=sys.stderr)
            return 2
        if isinstance(doc, list):
            requests = doc
        elif isinstance(doc, dict) and isinstance(
            doc.get("requests"), list
        ):
            requests = doc["requests"]
        else:
            print(
                "error: expected a JSON array of requests or an object"
                " with a 'requests' array",
                file=sys.stderr,
            )
            return 2

    failed = False
    try:
        for resp in iter_submit(
            requests, host=args.host, port=args.port,
            timeout=args.connect_timeout,
        ):
            print(json.dumps(resp, sort_keys=True), flush=True)
            if "batch" not in resp and not resp.get("ok"):
                failed = True
    except (ConnectionError, OSError) as ex:
        print(
            f"error: cannot reach {args.host}:{args.port}: {ex}",
            file=sys.stderr,
        )
        return 2
    return 1 if failed else 0


def _timeout(text: str) -> float:
    """The ``--timeout`` flags' type: seconds, within the bounds a
    request's ``deadline_ms`` has."""
    from repro.serve.validate import check_timeout

    try:
        return check_timeout(float(text))
    except ValueError as ex:
        raise argparse.ArgumentTypeError(str(ex)) from None


def _add_parallel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the sweep (1 = serial, the default)",
    )
    parser.add_argument(
        "--timeout", type=_timeout, default=None, metavar="SECONDS",
        help="per-cell wall-clock budget; overruns become failure rows",
    )


def _add_cache_flags(
    parser: argparse.ArgumentParser,
    cache_help: str = "enable the content-addressed mapping cache",
) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--cache", dest="cache", action="store_true", default=None,
        help=cache_help,
    )
    group.add_argument(
        "--no-cache", dest="cache", action="store_false",
        help="force caching off, overriding REPRO_CACHE",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="cache to DIR on disk as well (implies --cache)",
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write the span trace as JSONL to FILE",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the per-phase time/counter breakdown and"
             " convergence plots",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="collect process metrics; print the Prometheus exposition",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="A canonical CGRA mapping framework (see README.md).",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="DEBUG logging for the repro.* hierarchy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list mappers, kernels or archs")
    p.add_argument("what", choices=["mappers", "kernels", "archs"])
    p.set_defaults(fn=_cmd_list)

    p = sub.add_parser("map", help="map a kernel onto an architecture")
    p.add_argument(
        "kernel", nargs="?", default=None,
        help="kernel name (same as --kernel)",
    )
    p.add_argument("--kernel", dest="kernel_opt", default="dot_product")
    p.add_argument("--source", help="kernel-language source file instead")
    p.add_argument("--arch", default="simple4x4")
    p.add_argument("--mapper", default="list_sched")
    p.add_argument("--ii", type=int, default=None)
    p.add_argument("--show-contexts", action="store_true")
    _add_cache_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_map)

    p = sub.add_parser("compare", help="mapper x kernel matrix")
    p.add_argument("--kernels", default="dot_product,sobel_x")
    p.add_argument("--mappers", default="list_sched,edge_centric")
    p.add_argument("--arch", default="simple4x4")
    _add_parallel_flags(p)
    _add_cache_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser(
        "cache", help="inspect or clear the on-disk mapping cache"
    )
    p.add_argument("action", choices=["stats", "clear"])
    p.add_argument(
        "--dir", metavar="DIR", default=None,
        help="cache directory (default: REPRO_CACHE_DIR / REPRO_CACHE)",
    )
    p.set_defaults(fn=_cmd_cache)

    p = sub.add_parser(
        "fuzz",
        help="differential conformance fuzz: mappers vs the interpreter",
    )
    p.add_argument(
        "--seeds", default="0:50", metavar="A:B",
        help="seed range (half-open; a bare N means 0:N; default 0:50)",
    )
    p.add_argument(
        "--mapper", action="append", default=None, metavar="NAME",
        help="restrict to these mappers (repeatable / comma lists;"
             " default: every registered mapper, rotating with the seed)",
    )
    p.add_argument(
        "--arch", action="append", default=None, metavar="NAME",
        help="restrict to these presets (default: simple4x4, adres4x4,"
             " hycube4x4)",
    )
    p.add_argument(
        "--iters", type=int, default=4, metavar="N",
        help="iterations the semantic oracle observes (default 4)",
    )
    p.add_argument(
        "--no-shrink", action="store_true",
        help="report failures raw instead of delta-debugging them",
    )
    p.add_argument(
        "--oracle-only", action="store_true",
        help="skip metamorphic invariants (relabel/passes/fork replay)",
    )
    p.add_argument(
        "--log", metavar="FILE", default=None,
        help="append divergences to FILE as JSONL",
    )
    p.add_argument(
        "--emit-dir", metavar="DIR", default=None,
        help="write shrunk pytest reproducers into DIR",
    )
    p.add_argument(
        "--fail-fast", action="store_true",
        help="stop at the first unexplained divergence",
    )
    _add_parallel_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser(
        "bench",
        help="perf-regression ledger: record runs, diff against them",
    )
    p.add_argument("action", choices=["record", "compare", "list"])
    p.add_argument(
        "baseline", nargs="?", default="last",
        help="for compare: 'last' (default), an entry index, or a"
             " git-sha prefix",
    )
    p.add_argument("--arch", default="simple4x4")
    p.add_argument(
        "--history-dir", metavar="DIR",
        default="benchmarks/history",
        help="ledger directory (one JSONL file per architecture)",
    )
    p.add_argument(
        "--repeats", type=int, default=3, metavar="K",
        help="runs per cell; the ledger records the median (default 3)",
    )
    p.add_argument(
        "--slice",
        choices=[
            "default", "parallel", "exact", "cache", "place", "route",
            "serve",
        ],
        default="default",
        help="'parallel' runs the slice over the pre-warmed worker"
             " pool and keeps its own per-arch ledger file, so pool"
             " regressions are tracked separately from mapper ones;"
             " 'exact' runs the SAT/CSP/ILP mapper cells; 'cache' runs"
             " the default cells cold then warm under a fresh mapping"
             " cache and fails if a warm cell misses; 'place' runs the"
             " large-fabric placement cells (pair with --arch"
             " simple16x16); 'serve' benchmarks warm batches through"
             " the in-process mapping daemon",
    )
    p.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="worker processes for --slice parallel/serve (default 2)",
    )
    p.add_argument(
        "--note", default=None, metavar="TEXT",
        help="label stored in the recorded entry's manifest",
    )
    p.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but exit 0 (CI soft mode)",
    )
    p.add_argument(
        "--all", action="store_true",
        help="show every compared quantity, not just regressions",
    )
    p.add_argument(
        "--time-tolerance", type=float, default=None, metavar="RTOL",
        help="relative tolerance for timing metrics (default 0.75)",
    )
    p.add_argument(
        "--count-tolerance", type=float, default=None, metavar="RTOL",
        help="relative tolerance for work counts (default 0.02)",
    )
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser(
        "serve",
        help="batch mapping daemon over the persistent worker pool",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8642,
        help="TCP port (0 = pick a free one; default 8642)",
    )
    p.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="pool workers mapping requests (default 2)",
    )
    p.add_argument(
        "--timeout", type=_timeout, default=None, metavar="SECONDS",
        help="default per-request deadline when a request carries no"
             " deadline_ms (default: none)",
    )
    p.add_argument(
        "--grace", type=float, default=None, metavar="SECONDS",
        help="per-rung budget of the pool's shutdown escalation"
             " ladder on SIGTERM/SIGINT",
    )
    _add_cache_flags(
        p,
        cache_help="enable the mapping cache; without --cache-dir each"
                   " pool worker keeps its own memory tier across"
                   " batches, but only --cache-dir shares entries"
                   " between workers and across restarts",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "submit", help="submit a mapping batch to a running daemon"
    )
    p.add_argument(
        "file", nargs="?", default=None,
        help="batch JSON file ('-' or omitted = stdin; ignored with"
             " --kernel)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument(
        "--kernel", default=None,
        help="build a one-request batch instead of reading a file",
    )
    p.add_argument("--arch", default="simple4x4")
    p.add_argument("--mapper", default="list_sched")
    p.add_argument("--ii", type=int, default=None)
    p.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request deadline for --kernel submissions",
    )
    p.add_argument(
        "--connect-timeout", type=float, default=30.0, metavar="SECONDS",
        help="socket connect/read timeout (default 30)",
    )
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser("table1", help="regenerate the survey's Table I")
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("timeline", help="regenerate the survey's Fig. 4")
    p.set_defaults(fn=_cmd_timeline)

    p = sub.add_parser("dse", help="architecture design-space sweep")
    p.add_argument("--full", action="store_true")
    _add_parallel_flags(p)
    _add_cache_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_dse)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.obs import configure_logging

    configure_logging(
        logging.DEBUG if args.verbose else logging.WARNING
    )
    if args.fn is _cmd_map:
        # The positional kernel wins over the --kernel default.
        args.kernel = args.kernel or args.kernel_opt
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `repro list kernels | head`
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
