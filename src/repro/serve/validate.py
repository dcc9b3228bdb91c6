"""Request validation for the serve daemon.

A request is a JSON *problem document*: what to map (a kernel spec or
an inline DFG document), where (an architecture preset name), how (a
mapper name plus constructor options), and under what constraints
(requested II, per-request deadline).  Validation happens before any
work is scheduled, and every defect is a :class:`RequestError` naming
the offending field — one malformed request never kills its batch.

Validation also computes each request's in-batch dedup key: the
architecture preset name, the mapper identity (name, seed, II, config
token) and an exact-label suffix (the kernel spec, or a digest of the
canonical DFG document).  The suffix determines the DFG and the preset
name determines the architecture, so only requests whose response
documents would be byte-identical collapse onto one execution — no
canonical cache address is needed to tell them apart.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from repro.arch import presets
from repro.core.registry import create, names
from repro.core.serialize import dfg_from_doc, dfg_to_doc
from repro.ir import kernels as kernel_lib

__all__ = [
    "MAX_DEADLINE_MS",
    "Prepared",
    "RequestError",
    "validate_batch",
    "validate_request",
]

#: the fields a request document may carry
_FIELDS = frozenset(
    ("id", "kernel", "dfg", "arch", "mapper", "ii", "options",
     "deadline_ms")
)

#: the largest ``deadline_ms`` a request may carry (one day); a larger
#: budget is not a deadline, and a non-finite one cannot arm a timer
MAX_DEADLINE_MS = 86_400_000


class RequestError(ValueError):
    """A malformed request, naming the offending field."""

    def __init__(self, field: str, detail: str) -> None:
        super().__init__(f"{field}: {detail}")
        self.field = field
        self.detail = detail


@dataclass
class Prepared:
    """One validated request, ready to shard over the pool."""

    rid: str
    index: int
    arch: str
    mapper: str
    ii: int | None
    options: dict[str, Any]
    budget: float | None  # seconds; None = no deadline
    kernel: str | None    # kernel spec, or None for an inline DFG
    dfg_doc: dict | None  # canonical DFG doc, or None for a kernel
    key: str              # in-batch dedup key

    def item(self) -> tuple:
        """The picklable pool-task payload."""
        if self.kernel is not None:
            return ("kernel", self.kernel, self.arch, self.mapper,
                    self.ii, self.options)
        return ("dfg", self.dfg_doc, self.arch, self.mapper,
                self.ii, self.options)


def validate_request(
    doc: Any, index: int, *, default_budget: float | None = None
) -> Prepared:
    """Validate one request document; raises :class:`RequestError`."""
    where = f"requests[{index}]"
    if not isinstance(doc, dict):
        raise RequestError(
            where, f"must be a JSON object, got {type(doc).__name__}"
        )
    for field in doc:
        if field not in _FIELDS:
            raise RequestError(f"{where}.{field}", "unknown field")

    rid = doc.get("id", str(index))
    if not isinstance(rid, str):
        raise RequestError(f"{where}.id", f"must be a string, got {rid!r}")

    kernel = doc.get("kernel")
    dfg_doc = doc.get("dfg")
    if (kernel is None) == (dfg_doc is None):
        raise RequestError(
            f"{where}.kernel",
            "exactly one of 'kernel' or 'dfg' is required",
        )
    if kernel is not None:
        if not isinstance(kernel, str):
            raise RequestError(
                f"{where}.kernel",
                f"must be a kernel name string, got {kernel!r}",
            )
        try:
            dfg = kernel_lib.kernel(kernel)
        except KeyError as ex:
            raise RequestError(
                f"{where}.kernel", str(ex.args[0])
            ) from None
        except Exception as ex:  # bad generator spec
            raise RequestError(f"{where}.kernel", str(ex)) from None
    else:
        try:
            dfg = dfg_from_doc(dfg_doc)
        except ValueError as ex:
            raise RequestError(f"{where}.dfg", str(ex)) from None

    arch = doc.get("arch")
    if not isinstance(arch, str):
        raise RequestError(
            f"{where}.arch",
            f"must be a preset name string, got {arch!r}",
        )
    if arch not in presets.PRESETS:
        raise RequestError(
            f"{where}.arch",
            f"unknown preset {arch!r};"
            f" available: {sorted(presets.PRESETS)}",
        )

    mapper_name = doc.get("mapper", "list_sched")
    if not isinstance(mapper_name, str) or mapper_name not in names():
        raise RequestError(
            f"{where}.mapper",
            f"unknown mapper {mapper_name!r}; available: {names()}",
        )
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise RequestError(
            f"{where}.options",
            f"must be a JSON object, got {type(options).__name__}",
        )
    try:
        mapper = create(mapper_name, **options)
    except Exception as ex:
        raise RequestError(f"{where}.options", str(ex)) from None

    ii = doc.get("ii")
    if ii is not None and (
        isinstance(ii, bool) or not isinstance(ii, int) or ii < 1
    ):
        raise RequestError(
            f"{where}.ii", f"must be a positive integer, got {ii!r}"
        )

    deadline = doc.get("deadline_ms")
    if deadline is None:
        budget = default_budget
    elif (
        isinstance(deadline, bool)
        or not isinstance(deadline, (int, float))
        or not 0 < deadline <= MAX_DEADLINE_MS
    ):
        raise RequestError(
            f"{where}.deadline_ms",
            "must be a positive number of milliseconds, at most"
            f" {MAX_DEADLINE_MS}, got {deadline!r}",
        )
    else:
        budget = float(deadline) / 1000.0

    canon = dfg_to_doc(dfg) if kernel is None else None
    token = hashlib.sha256(mapper.cache_token().encode()).hexdigest()[:16]
    base = (
        f"{arch}-{mapper.info.name}-s{mapper.seed}"
        f"-ii{'auto' if ii is None else ii}-t{token}"
    )
    if kernel is not None:
        key = f"{base}+k:{kernel}"
    else:
        digest = hashlib.sha256(
            json.dumps(
                canon, sort_keys=True, separators=(",", ":")
            ).encode()
        ).hexdigest()[:16]
        key = f"{base}+d:{digest}"

    return Prepared(
        rid=rid, index=index, arch=arch, mapper=mapper_name, ii=ii,
        options=options, budget=budget, kernel=kernel, dfg_doc=canon,
        key=key,
    )


def validate_batch(
    doc: Any, *, default_budget: float | None = None
) -> tuple[list[Prepared], list[tuple[int, str, RequestError]]]:
    """Validate a batch document.

    Returns ``(prepared, bad)``: the requests that will run, and
    ``(index, request id, error)`` for each one that will not.  A
    mis-shaped batch *envelope* raises :class:`RequestError` instead —
    there are no per-request indices to report against.
    """
    if not isinstance(doc, dict):
        raise RequestError(
            "batch", f"must be a JSON object, got {type(doc).__name__}"
        )
    requests = doc.get("requests")
    if not isinstance(requests, list):
        raise RequestError(
            "batch.requests",
            f"must be an array of request objects,"
            f" got {type(requests).__name__}",
        )
    prepared: list[Prepared] = []
    bad: list[tuple[int, str, RequestError]] = []
    for i, entry in enumerate(requests):
        try:
            prepared.append(
                validate_request(entry, i, default_budget=default_budget)
            )
        except RequestError as ex:
            rid = (
                entry.get("id")
                if isinstance(entry, dict)
                and isinstance(entry.get("id"), str)
                else str(i)
            )
            bad.append((i, rid, ex))
    return prepared, bad
