"""The mapper interface and its taxonomy metadata.

Every mapping method in :mod:`repro.mappers` subclasses
:class:`Mapper` and declares a :class:`MapperInfo` — the machine-
readable version of its cell in the survey's Table I: technique family
(heuristic / meta-heuristic / exact-ILP-B&B / exact-CSP), subfamily
(SA, GA, QEA, ILP, SAT, CP, ...), which mapping kinds it solves
(spatial / temporal), and whether it can prove optimality.

The registry (:mod:`repro.core.registry`) collects these, and the
Table I benchmark renders the classification *from the registry*, so
taxonomy and code cannot drift apart.
"""

from __future__ import annotations

import abc
import logging
import time
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Iterable, Iterator

from repro.arch.cgra import CGRA
from repro.core.exceptions import MapFailure
from repro.core.mapping import Mapping
from repro.core.problem import MappingProblem
from repro.ir.dfg import DFG
from repro.obs.metrics import (
    MAP_FAILURES_TOTAL,
    MAP_LATENCY_MS,
    MAPS_TOTAL,
    get_metrics,
)
from repro.obs.tracer import II_ATTEMPTS, Tracer, get_tracer

__all__ = ["Mapper", "MapperInfo", "first_valid", "ii_range"]

_log = logging.getLogger("repro.core.mapper")

FAMILIES = ("heuristic", "metaheuristic", "exact")
KINDS = ("spatial", "temporal")


@dataclass(frozen=True)
class MapperInfo:
    """One row of the executable Table I.

    Attributes:
        name: registry key.
        family: ``heuristic`` / ``metaheuristic`` / ``exact``.
        subfamily: the technique label the survey uses in the cell
            (e.g. ``"SA"``, ``"GA"``, ``"ILP"``, ``"SAT"``, ``"CP"``,
            ``"B&B"``, ``"list"``, ``"graph"``).
        kinds: mapping kinds supported (``"spatial"``, ``"temporal"``).
        exact: can prove optimality / infeasibility.
        solves: which sub-problems are addressed together
            (``"binding+scheduling"``, ``"binding"``, ``"scheduling"``,
            or ``"binding"`` alone for spatial).
        modeled_after: the literature reference(s) the implementation
            follows (survey citation numbers).
        year: publication year of the modelled technique.
    """

    name: str
    family: str
    subfamily: str
    kinds: tuple[str, ...]
    exact: bool = False
    solves: str = "binding+scheduling"
    modeled_after: str = ""
    year: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"bad family {self.family!r}")
        for k in self.kinds:
            if k not in KINDS:
                raise ValueError(f"bad mapping kind {k!r}")


@dataclass(eq=False)
class Mapper(abc.ABC):
    """Abstract mapping method.

    Subclasses implement :meth:`_map`; the public :meth:`map` wraps it
    with input checking, wall-clock accounting and result stamping.
    Each registered mapper is a ``@dataclass(eq=False, kw_only=True)``
    whose fields are its options: the class declaration is the one
    place a mapper's configuration is written, and :meth:`cache_token`
    reads it from there.

    Args:
        seed: RNG seed for stochastic methods (all mappers accept it so
            harness code can treat them uniformly).
    """

    info: ClassVar[MapperInfo]
    seed: int = 0

    # ------------------------------------------------------------------
    def map(
        self, dfg: DFG, cgra: CGRA, ii: int | None = None
    ) -> Mapping:
        """Produce a validated mapping or raise :class:`MapFailure`.

        A fresh result is validated in :meth:`first_valid`, the attempt
        loop every mapper returns through (``portfolio`` returns an
        entrant's), a cached one by :meth:`repro.cache.MappingCache.get`
        as it loads.

        When tracing is enabled (:func:`repro.obs.tracing`) the call
        runs under a root span named ``map`` and the resulting
        :attr:`Mapping.trace` carries that span tree.

        When a mapping cache is active (:func:`repro.cache.mapping_cache`
        or the ``REPRO_CACHE`` environment variable — off by default),
        the call first consults it under the canonical problem key; a
        validated hit returns without running the algorithm, and a
        fresh result is stored for the next identical call.
        """
        # Imported lazily: repro.cache serializes/validates through
        # repro.core, so a module-level import would be circular.
        from repro.cache import get_cache

        dfg.check()
        tracer = get_tracer()
        metrics = get_metrics()
        cache = get_cache()
        t0 = time.perf_counter()
        key = None
        try:
            with tracer.span(
                "map", mapper=self.info.name, dfg=dfg.name, cgra=cgra.name
            ) as root:
                if cache is not None:
                    key = cache.key(dfg, cgra, self, ii)
                    with tracer.span("cache_lookup", key=key):
                        hit = cache.get(key, dfg, cgra)
                    if hit is not None:
                        hit.mapper = self.info.name
                        hit.map_time = time.perf_counter() - t0
                        if tracer.enabled:
                            root.tag(
                                ii=hit.ii, kind=hit.kind, cached=True
                            )
                            hit.trace = root
                        metrics.counter(MAPS_TOTAL).inc()
                        metrics.histogram(MAP_LATENCY_MS).observe(
                            1000 * hit.map_time
                        )
                        return hit
                mapping = self._map(dfg, cgra, ii)
        except MapFailure:
            metrics.counter(MAP_FAILURES_TOTAL).inc()
            raise
        mapping.mapper = self.info.name
        mapping.map_time = time.perf_counter() - t0
        if tracer.enabled:
            root.tag(ii=mapping.ii, kind=mapping.kind)
            mapping.trace = root
        if cache is not None:
            cache.put(key, mapping)
        metrics.counter(MAPS_TOTAL).inc()
        metrics.histogram(MAP_LATENCY_MS).observe(
            1000 * mapping.map_time
        )
        return mapping

    @abc.abstractmethod
    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        """The actual mapping algorithm."""

    def cache_token(self) -> str:
        """Configuration identity beyond (name, seed) for cache keys.

        Every option field but ``seed`` (which the key carries on its
        own), as ``name=repr(value)`` in declaration order; empty for a
        mapper with no options.  Cache keys, serve's dedup key and the
        sweep's cell keys all read it, so an option can never be left
        out of them.
        """
        return ";".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self)
            if f.init and f.name != "seed"
        )

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def search(
        self,
        dfg: DFG,
        cgra: CGRA,
        ii: int | None,
        tries: Callable[[int], Iterable[Mapping | None]],
        failure: str | Callable[[], str],
    ) -> Mapping:
        """II escalation: :meth:`first_valid` over ``tries(ii)`` for
        each II from :func:`ii_range` in turn."""
        return self.first_valid(
            (m for ii_try in ii_range(dfg, cgra, ii) for m in tries(ii_try)),
            failure,
        )

    def first_valid(
        self,
        attempts: Iterable[Mapping | None],
        failure: str | Callable[[], str],
    ) -> Mapping:
        """:func:`first_valid` under this mapper's name."""
        return first_valid(self.info.name, attempts, failure)

    def fail(self, message: str, attempts: int = 0) -> MapFailure:
        """Build a MapFailure tagged with this mapper's name."""
        return _failure(self.info.name, message, attempts)


def first_valid(
    producer: str,
    attempts: Iterable[Mapping | None],
    failure: str | Callable[[], str],
) -> Mapping:
    """Return the first candidate of ``attempts`` that validates.

    ``attempts`` yields one candidate mapping per attempt, or ``None``
    for an attempt that found nothing; an invalid candidate counts as
    a failed attempt.  Every fresh mapping — each registered mapper's,
    ``multi_map``'s and ``map_dual_issue``'s — leaves through this one
    check.  When the attempts run out, raises a ``MapFailure`` for
    ``producer`` with ``failure`` (called first when it is callable,
    so the message can report what the search saw) and the number of
    attempts.
    """
    n = 0
    for mapping in attempts:
        n += 1
        if mapping is not None and not mapping.validate(
            raise_on_error=False
        ):
            return mapping
    message = failure() if callable(failure) else failure
    raise _failure(producer, message, attempts=n)


def _failure(producer: str, message: str, attempts: int = 0) -> MapFailure:
    _log.warning(
        "%s: giving up after %d attempt(s): %s", producer, attempts, message
    )
    return MapFailure(
        f"{producer}: {message}", mapper=producer, attempts=attempts
    )


def ii_range(dfg: DFG, cgra: CGRA, ii: int | None) -> Iterable[int]:
    """II values to try: requested II, or MII..min(2*MII+ops, contexts).

    With tracing enabled, iterating records one ``ii`` span per
    attempted II (wrapping the loop body that consumes the value) and
    bumps the ``ii_attempts`` counter; disabled, the plain range comes
    back untouched.
    """
    if ii is not None:
        values = range(ii, ii + 1)
    else:
        lo = MappingProblem(dfg, cgra).mii
        hi = min(cgra.n_contexts, 2 * lo + dfg.op_count())
        values = range(lo, hi + 1)
    tracer = get_tracer()
    if not tracer.enabled:
        return values
    return _traced_ii_iter(values, tracer)


def _traced_ii_iter(values: range, tracer: Tracer) -> Iterator[int]:
    """Yield IIs, wrapping each consumer loop body in an ``ii`` span.

    The span opens before the yield and closes when the consumer
    advances (or abandons) the loop, so the mapper's work for that II
    lands inside it.
    """
    for value in values:
        tracer.count(II_ATTEMPTS)
        with tracer.span("ii", ii=value):
            yield value
