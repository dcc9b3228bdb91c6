"""A small integer linear programming model builder.

Models are built incrementally (variables, rows, objective) and solved
by :func:`scipy.optimize.milp`, i.e. HiGHS's own branch and cut.  Sized
for the mapping formulations in :mod:`repro.mappers`: sparse 0/1
models with a few thousand variables at most.

Model form (minimisation)::

    minimise     c @ x
    subject to   lo <= A @ x <= hi     (one row per <=, >= or == constraint)
                 lb <= x <= ub,   x[i] integer for i in integers

Node and time limits make the solver safe to embed in the II-search
loops of the exact mappers; a limit hit returns the best integral
point HiGHS found, if any, without proof of optimality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array

from repro.obs.tracer import SOLVER_CLAUSES, SOLVER_NODES, get_tracer

__all__ = ["ILP", "ILPResult", "ILPStatus"]


class ILPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NODE_LIMIT = "node_limit"   #: best incumbent returned, not proven
    TIME_LIMIT = "time_limit"   #: best incumbent returned, not proven


@dataclass
class ILPResult:
    status: ILPStatus
    x: np.ndarray | None = None
    objective: float | None = None
    nodes: int = 0

    @property
    def ok(self) -> bool:
        """A feasible (possibly unproven-optimal) solution exists."""
        return self.x is not None


class ILP:
    """Incrementally built 0/1 / bounded-integer linear program.

    Example::

        ilp = ILP()
        x = [ilp.add_var(f"x{i}", lb=0, ub=1) for i in range(3)]
        ilp.add_constraint({x[0]: 1, x[1]: 1, x[2]: 1}, "==", 1)
        ilp.set_objective({x[0]: 3.0, x[1]: 1.0, x[2]: 2.0})
        res = ilp.solve()
    """

    def __init__(self, name: str = "ilp") -> None:
        self.name = name
        self._names: list[str] = []
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._integer: list[bool] = []
        self._obj: dict[int, float] = {}
        # Constraints as (coeffs dict, sense, rhs).
        self._cons: list[tuple[dict[int, float], str, float]] = []

    # ------------------------------------------------------------------
    def add_var(
        self,
        name: str | None = None,
        *,
        lb: float = 0.0,
        ub: float = 1.0,
        integer: bool = True,
    ) -> int:
        """Add a variable; returns its index."""
        idx = len(self._names)
        self._names.append(name or f"v{idx}")
        self._lb.append(lb)
        self._ub.append(ub)
        self._integer.append(integer)
        return idx

    @property
    def n_vars(self) -> int:
        return len(self._names)

    @property
    def n_constraints(self) -> int:
        return len(self._cons)

    def add_constraint(
        self, coeffs: dict[int, float], sense: str, rhs: float
    ) -> None:
        """Add ``sum(coeffs[i] * x[i]) <sense> rhs``; sense in <=, >=, ==."""
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {sense!r}")
        if not coeffs:
            raise ValueError("empty constraint")
        self._cons.append((dict(coeffs), sense, rhs))

    def set_objective(self, coeffs: dict[int, float]) -> None:
        """Minimisation objective (empty = pure feasibility problem)."""
        self._obj = dict(coeffs)

    # ------------------------------------------------------------------
    def solve(
        self,
        *,
        node_limit: int = 200_000,
        time_limit: float | None = None,
    ) -> ILPResult:
        """Solve the model; returns an :class:`ILPResult`.

        With tracing enabled the run is wrapped in an ``ilp_solve``
        span tagged with the model size, counting ``solver_clauses``
        (constraint rows) and ``solver_nodes`` (HiGHS B&B nodes).
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._solve_impl(node_limit, time_limit)
        with tracer.span(
            "ilp_solve",
            model=self.name,
            vars=self.n_vars,
            constraints=self.n_constraints,
        ) as span:
            result = self._solve_impl(node_limit, time_limit)
            span.count(SOLVER_CLAUSES, self.n_constraints)
            span.count(SOLVER_NODES, result.nodes)
            span.tag(status=result.status.value)
            return result

    def _solve_impl(
        self, node_limit: int, time_limit: float | None
    ) -> ILPResult:
        c = np.zeros(self.n_vars)
        for i, v in self._obj.items():
            c[i] = v
        constraints = None
        if self._cons:
            data: list[float] = []
            cols: list[int] = []
            indptr = [0]
            lo = np.empty(len(self._cons))
            hi = np.empty(len(self._cons))
            for r, (coeffs, sense, rhs) in enumerate(self._cons):
                cols.extend(coeffs)
                data.extend(coeffs.values())
                indptr.append(len(cols))
                lo[r] = -np.inf if sense == "<=" else rhs
                hi[r] = np.inf if sense == ">=" else rhs
            A = csr_array(
                (data, cols, indptr), shape=(len(self._cons), self.n_vars)
            )
            constraints = LinearConstraint(A, lo, hi)
        int_mask = np.array(self._integer, dtype=bool)
        # Presolve pays off only with an objective to bound.  On the
        # mappers' pure feasibility models the root heuristics find a
        # point at once, and presolve would cost more time and memory
        # (up to ~30 MB per solve on 4x4 kernels) than the solve.
        options: dict = {
            "node_limit": node_limit,
            "presolve": any(self._obj.values()),
        }
        if time_limit is not None:
            options["time_limit"] = time_limit

        def run(**extra):
            return milp(
                c,
                integrality=int_mask.astype(int),
                bounds=Bounds(self._lb, self._ub),
                constraints=constraints,
                options={**options, **extra},
            )

        res = run()
        if res.status == 4 and options["presolve"] and not (
            "Time limit" in res.message or "Solution limit" in res.message
        ):
            # Presolve cannot tell unbounded from infeasible, and on
            # some tiny models it ends in a bare "Solve error"; the
            # plain solve decides both.
            res = run(presolve=False)
        if res.status == 0:
            status = ILPStatus.OPTIMAL
        elif res.status == 2:
            status = ILPStatus.INFEASIBLE
        elif res.status == 3:
            status = ILPStatus.UNBOUNDED
        elif "Time limit" in res.message:
            status = ILPStatus.TIME_LIMIT
        elif res.status == 1 or "Solution limit" in res.message:
            # scipy reports HiGHS's node limit as status 4.
            status = ILPStatus.NODE_LIMIT
        else:
            raise RuntimeError(f"HiGHS failed on {self.name}: {res.message}")
        x = objective = None
        if res.x is not None:
            x = np.where(int_mask, np.round(res.x), res.x)
            objective = float(c @ x)
        return ILPResult(status, x, objective, res.mip_node_count or 0)

    # ------------------------------------------------------------------
    def value(self, result: ILPResult, idx: int) -> float:
        """Variable value in a result (0.0 if result has no solution)."""
        if result.x is None:
            return 0.0
        return float(result.x[idx])

    def __repr__(self) -> str:
        return (
            f"ILP({self.name!r}, vars={self.n_vars},"
            f" cons={self.n_constraints})"
        )

