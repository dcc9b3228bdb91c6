"""Space-time resource accounting.

One :class:`Occupancy` instance tracks who uses what on the folded
(modulo) or plain time axis — the same structure serves

* the validator (:meth:`repro.core.mapping.Mapping.validate` replays a
  finished mapping through it), and
* constructive mappers/routers, which query ``can_*`` before committing
  and ``release_*`` when tearing moves apart (simulated annealing).

Resources per ``(cell, slot)`` (slot = absolute cycle mod II for
modulo mappings):

==========  ======================================  ===================
resource    consumed by                             capacity
==========  ======================================  ===================
``fu``      the op scheduled there; route steps     1
            too when ``cgra.route_shares_fu``
``bypass``  route steps when the fabric has         ``cgra.bypass_capacity``
            dedicated bypass muxes
``rf``      hold steps (value parked one cycle)     ``cell.rf_size``
``link``    a value crossing ``src -> dst``         1 distinct value
==========  ======================================  ===================

All route/hold/link usage is *deduplicated by value* (the producing
node id): a value fanning out to several consumers through the same
wire or slot pays once, which is how real mux fabrics behave.

Layout
------

Storage is *flat*: one preallocated list per resource class, indexed
``slot * n_cells + cell`` (links: ``slot * n_links + link_id`` with
the dense ids of :meth:`repro.arch.cgra.CGRA.link_index`).  The
``can_*`` calls in every mapper's innermost loop therefore cost one
multiply-add and a list index — no tuple construction, no hashing —
and :meth:`Occupancy.copy` is list slicing.  With ``ii`` set the slot
axis is exactly ``ii`` entries; without it the axis grows on demand
(appending whole slots keeps existing indices valid).

The slot-major layout is deliberate: growing the time axis appends,
so indices computed before a growth stay correct.

A reference ``dict``-keyed implementation with identical semantics
(``DictOccupancy``) is kept in ``tests/oracles`` for the equivalence
suite and the hot-path microbenchmark.
"""

from __future__ import annotations

from repro.arch.cgra import CGRA

__all__ = ["Occupancy"]

#: initial slot-axis capacity for unfolded (``ii=None``) accounting
_INITIAL_SLOTS = 16

#: number of resource classes aggregated by :meth:`Occupancy.pressure`
_N_CLASSES = 4


class Occupancy:
    """Mutable resource usage on a (possibly modulo-folded) time axis.

    Args:
        cgra: the target array.
        ii: modulo period for slot folding; ``None`` disables folding
            (plain TEC accounting).
    """

    __slots__ = (
        "cgra",
        "ii",
        "fu",
        "routed",
        "rf",
        "link",
        "_n_cells",
        "_n_links",
        "_n_slots",
        "_link_idx",
        "_rf_sizes",
        "_shares_fu",
        "_bypass",
        "_used_fu",
        "_used_routed",
        "_used_rf",
        "_used_link",
    )

    def __init__(self, cgra: CGRA, ii: int | None = None) -> None:
        self.cgra = cgra
        self.ii = ii
        self._n_cells = cgra.n_cells
        self._link_idx = cgra.link_table
        self._n_links = len(self._link_idx)
        self._rf_sizes = [c.rf_size for c in cgra.cells]
        self._shares_fu = cgra.route_shares_fu
        self._bypass = cgra.bypass_capacity
        self._n_slots = ii if ii else _INITIAL_SLOTS
        # slot-major flat arrays; dicts (value -> edge refcount) are
        # allocated lazily per occupied entry.
        self.fu: list[int | None] = [None] * (self._n_slots * self._n_cells)
        self.routed: list[dict[int, int] | None] = [None] * len(self.fu)
        self.rf: list[dict[int, int] | None] = [None] * len(self.fu)
        self.link: list[dict[int, int] | None] = (
            [None] * (self._n_slots * self._n_links)
        )
        # Occupied-entry counts per class, kept incrementally so
        # pressure() is O(1) (it sits in SA cost functions).
        self._used_fu = 0
        self._used_routed = 0
        self._used_rf = 0
        self._used_link = 0

    def slot(self, t: int) -> int:
        if self.ii:
            return t % self.ii
        if t < 0:
            raise ValueError(f"negative cycle {t} on an unfolded axis")
        return t

    def _grow_to(self, s: int) -> None:
        """Extend the slot axis to cover slot ``s`` (``ii=None`` only)."""
        new_slots = max(s + 1, 2 * self._n_slots)
        extra = (new_slots - self._n_slots) * self._n_cells
        self.fu.extend([None] * extra)
        self.routed.extend([None] * extra)
        self.rf.extend([None] * extra)
        self.link.extend(
            [None] * ((new_slots - self._n_slots) * self._n_links)
        )
        self._n_slots = new_slots

    # ------------------------------------------------------------------
    # Functional units
    # ------------------------------------------------------------------
    def can_place_op(self, cell: int, t: int) -> bool:
        s = self.slot(t)
        if s >= self._n_slots:
            return True  # untouched slots are free
        i = s * self._n_cells + cell
        if self.fu[i] is not None:
            return False
        if self._shares_fu and self.routed[i]:
            return False
        return True

    def place_op(self, nid: int, cell: int, t: int) -> None:
        s = self.slot(t)
        if s >= self._n_slots:
            self._grow_to(s)
        i = s * self._n_cells + cell
        if self.fu[i] is None:
            self._used_fu += 1
        self.fu[i] = nid

    def release_op(self, cell: int, t: int) -> None:
        s = self.slot(t)
        if s >= self._n_slots:
            return
        i = s * self._n_cells + cell
        if self.fu[i] is not None:
            self._used_fu -= 1
            self.fu[i] = None

    def op_at(self, cell: int, t: int) -> int | None:
        s = self.slot(t)
        if s >= self._n_slots:
            return None
        return self.fu[s * self._n_cells + cell]

    # ------------------------------------------------------------------
    # Routing (pass-through re-emission)
    # ------------------------------------------------------------------
    def can_route(self, value: int, cell: int, t: int) -> bool:
        s = self.slot(t)
        if s >= self._n_slots:
            return True
        i = s * self._n_cells + cell
        users = self.routed[i]
        if users and value in users:
            return True  # same value already passes here: free fan-out
        if self._shares_fu:
            return self.fu[i] is None and not users
        return (len(users) if users else 0) < self._bypass

    def add_route(self, value: int, cell: int, t: int) -> None:
        s = self.slot(t)
        if s >= self._n_slots:
            self._grow_to(s)
        i = s * self._n_cells + cell
        users = self.routed[i]
        if users is None:
            users = self.routed[i] = {}
        if not users:
            self._used_routed += 1
        users[value] = users.get(value, 0) + 1

    def release_route(self, value: int, cell: int, t: int) -> None:
        s = self.slot(t)
        if s >= self._n_slots:
            return
        users = self.routed[s * self._n_cells + cell]
        if not users:
            return
        n = users.get(value, 0) - 1
        if n > 0:
            users[value] = n
        elif value in users:
            del users[value]
            if not users:
                self._used_routed -= 1

    # ------------------------------------------------------------------
    # Register-file holds
    # ------------------------------------------------------------------
    def can_hold(self, value: int, cell: int, t: int) -> bool:
        s = self.slot(t)
        if s >= self._n_slots:
            return self._rf_sizes[cell] > 0
        users = self.rf[s * self._n_cells + cell]
        if users and value in users:
            return True
        return (len(users) if users else 0) < self._rf_sizes[cell]

    def add_hold(self, value: int, cell: int, t: int) -> None:
        s = self.slot(t)
        if s >= self._n_slots:
            self._grow_to(s)
        i = s * self._n_cells + cell
        users = self.rf[i]
        if users is None:
            users = self.rf[i] = {}
        if not users:
            self._used_rf += 1
        users[value] = users.get(value, 0) + 1

    def release_hold(self, value: int, cell: int, t: int) -> None:
        s = self.slot(t)
        if s >= self._n_slots:
            return
        users = self.rf[s * self._n_cells + cell]
        if not users:
            return
        n = users.get(value, 0) - 1
        if n > 0:
            users[value] = n
        elif value in users:
            del users[value]
            if not users:
                self._used_rf -= 1

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def can_use_link(self, value: int, src: int, dst: int, t: int) -> bool:
        s = self.slot(t)
        if s >= self._n_slots:
            return True
        users = self.link[s * self._n_links + self._link_idx[(src, dst)]]
        if not users:
            return True
        return value in users

    def add_link(self, value: int, src: int, dst: int, t: int) -> None:
        s = self.slot(t)
        if s >= self._n_slots:
            self._grow_to(s)
        i = s * self._n_links + self._link_idx[(src, dst)]
        users = self.link[i]
        if users is None:
            users = self.link[i] = {}
        if not users:
            self._used_link += 1
        users[value] = users.get(value, 0) + 1

    def release_link(self, value: int, src: int, dst: int, t: int) -> None:
        s = self.slot(t)
        if s >= self._n_slots:
            return
        users = self.link[s * self._n_links + self._link_idx[(src, dst)]]
        if not users:
            return
        n = users.get(value, 0) - 1
        if n > 0:
            users[value] = n
        elif value in users:
            del users[value]
            if not users:
                self._used_link -= 1

    # ------------------------------------------------------------------
    # Flat fast-path queries (repro.mappers.routecore)
    #
    # The routing engine asks the same can_* question for every
    # neighbour at one cycle; folding the slot and bounds check per
    # *query* wastes most of the work.  time_base()/link_time_base()
    # do the fold once per cycle and the *_i variants take the flat
    # index directly — same semantics as their tuple counterparts,
    # pinned by the equivalence suite.  A base of -1 means the slot
    # lies beyond the allocated axis: everything there is free and the
    # caller short-circuits without touching the arrays.
    # ------------------------------------------------------------------
    def time_base(self, t: int) -> int:
        """``slot(t) * n_cells``, or ``-1`` when the slot is untouched
        (every cell resource at that cycle is free)."""
        s = self.slot(t)
        if s >= self._n_slots:
            return -1
        return s * self._n_cells

    def link_time_base(self, t: int) -> int:
        """``slot(t) * n_links``, or ``-1`` when the slot is untouched."""
        s = self.slot(t)
        if s >= self._n_slots:
            return -1
        return s * self._n_links

    def can_route_i(self, value: int, i: int) -> bool:
        """:meth:`can_route` for flat index ``i = time_base(t) + cell``
        (caller guarantees ``time_base(t) >= 0``)."""
        users = self.routed[i]
        if users and value in users:
            return True
        if self._shares_fu:
            return self.fu[i] is None and not users
        return (len(users) if users else 0) < self._bypass

    def can_hold_i(self, value: int, cell: int, i: int) -> bool:
        """:meth:`can_hold` for flat index ``i = time_base(t) + cell``."""
        users = self.rf[i]
        if users and value in users:
            return True
        return (len(users) if users else 0) < self._rf_sizes[cell]

    def can_use_link_i(self, value: int, i: int) -> bool:
        """:meth:`can_use_link` for ``i = link_time_base(t) + link_id``
        (dense ids from :attr:`repro.arch.cgra.CGRA.link_table`)."""
        users = self.link[i]
        return not users or value in users

    # ------------------------------------------------------------------
    # Introspection (tests, debugging; not hot paths)
    # ------------------------------------------------------------------
    def holds_at(self, cell: int, t: int) -> set[int]:
        """Values parked in ``cell``'s RF at cycle ``t``."""
        s = self.slot(t)
        if s >= self._n_slots:
            return set()
        users = self.rf[s * self._n_cells + cell]
        return set(users) if users else set()

    def routed_at(self, cell: int, t: int) -> set[int]:
        """Values re-emitted through ``cell`` at cycle ``t``."""
        s = self.slot(t)
        if s >= self._n_slots:
            return set()
        users = self.routed[s * self._n_cells + cell]
        return set(users) if users else set()

    def link_users(self, src: int, dst: int, t: int) -> set[int]:
        """Values crossing link ``src -> dst`` at cycle ``t``."""
        s = self.slot(t)
        if s >= self._n_slots:
            return set()
        users = self.link[s * self._n_links + self._link_idx[(src, dst)]]
        return set(users) if users else set()

    # ------------------------------------------------------------------
    def used_entries(self) -> int:
        """Total occupied (resource, slot) entries across all classes."""
        return (
            self._used_fu
            + self._used_routed
            + self._used_rf
            + self._used_link
        )

    def pressure(self) -> float:
        """A congestion summary: mean occupied slots per resource class.

        The counts are maintained incrementally, so this is O(1) —
        negotiated-congestion routers poll it as a progress signal and
        SA cost functions fold it in per move.  Dividing the raw entry
        count by the (constant) number of classes keeps the signal
        monotone in every individual allocation.
        """
        return self.used_entries() / _N_CLASSES

    def copy(self) -> "Occupancy":
        out = Occupancy.__new__(Occupancy)
        out.cgra = self.cgra
        out.ii = self.ii
        out._n_cells = self._n_cells
        out._n_links = self._n_links
        out._n_slots = self._n_slots
        out._link_idx = self._link_idx
        out._rf_sizes = self._rf_sizes
        out._shares_fu = self._shares_fu
        out._bypass = self._bypass
        out.fu = self.fu[:]
        out.routed = [d.copy() if d else None for d in self.routed]
        out.rf = [d.copy() if d else None for d in self.rf]
        out.link = [d.copy() if d else None for d in self.link]
        out._used_fu = self._used_fu
        out._used_routed = self._used_routed
        out._used_rf = self._used_rf
        out._used_link = self._used_link
        return out
