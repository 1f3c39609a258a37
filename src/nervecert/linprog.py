"""Exact linear programming and linear solving over the rationals.

A primal simplex pivoting with Bland's rule, so termination is guaranteed,
every verdict is exact, and every run is bit-for-bit deterministic.  No
tolerances exist anywhere.  Also houses the exact Gauss solver used for
square crossing systems.

The simplex runs on an integer `Dictionary`, which stores only the
nonbasic columns and one shared positive determinant ``det``; row i stands
for ``det * x[basis[i]] + sum_c rows[i][c] * x[cols[c]] = rows[i][-1]``.
Variables with ids below ``free`` are free and never split; the others are
nonnegative.  A pivot is integer-preserving (Edmonds 1967; Bareiss 1968):
a pivot row with a negative pivot p is negated, every other row becomes
``(p * row - f * pivot_row) // det``, the entering column takes the leaving
variable, and p is the new ``det``.  The division is exact: started at
``det == 1``, a dictionary holds adj(B) M for its basis B of the starting
integer matrix M, so every entry is a minor of M.  A pushed cost row is
the row an augmented M would carry, and deleting columns deletes columns
of M, so neither needs a gcd.  Each row is ``det`` times the row a
rational dictionary would hold, so signs, ratio comparisons (by
cross-multiplying) and zero tests are those of rational pivoting, and a
value is ``Fraction(rhs, det)``.

Bland's rule goes by variable id.  The least id with an improving reduced
cost enters: a negative one, or for a free variable any nonzero one (it
then moves down).  The row of least ratio leaves, among rows whose basic
variable is not free, ties going to the least basic id; so a free
variable, once basic, stays basic.

The drivers take a feasible dictionary from the caller (`convex` makes its
starting pivot with `pivot`) and costs that map variable ids to ints.

- `lex_stages` minimizes several costs in turn on one dictionary
  (sequential lexicographic simplex, Isermann 1982): once a stage is
  optimal, every column with a nonzero (hence positive) reduced cost is
  deleted, which leaves exactly the optimal face, and the next cost is
  reduced against the current basis.  It yields a status per stage and the
  caller reads just the values it needs with `Dictionary.value` before
  resuming, so `convex.inscribed_radius` can run the radius stage of a
  ball, read r, and leave the coordinate stages for later.
- `least_face` minimizes a phase-1 artificial and keeps that cost's
  optimal face, which is how `convex.polytope_is_empty` decides every
  H-system.  `face_minimum` then minimizes one cost over that face from
  the basis the one before ended in, so `convex.HPolytope.bound` pays only
  for the bounds it reads.

`solve_lp` is the rational front end: it splits free variables itself,
slacks inequality rows, adds one artificial per row and decides
feasibility with `least_face`, the only phase 1 in the package, then
minimizes in one `lex_stages` stage over that face.  Its variables are
numbered as a full tableau's columns, so it takes a full tableau's Bland
pivots.  In the package it serves only `convex.hulls_intersect`; the tests
use it as the reference LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def frac(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass Fraction, int, or a 'p/q' string")
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class LPResult:
    status: str
    objective: Fraction | None
    x: tuple[Fraction, ...] | None


def _integer_rows(rows) -> tuple[list[list[int]], int]:
    """The rational rows times the lcm of all their denominators, and that lcm."""
    ratios = [
        [(v if type(v) in (int, Fraction) else frac(v)).as_integer_ratio() for v in row]
        for row in rows
    ]
    scale = lcm(*(den for row in ratios for _, den in row))
    return [[num * (scale // den) for num, den in row] for row in ratios], scale


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (a positive multiple)."""
    g = gcd(*row)
    return row if g <= 1 else [v // g for v in row]


@dataclass(slots=True)
class Dictionary:
    """An integer simplex dictionary; the module docstring says what a row means.

    ``rows`` holds the constraint rows and, while a cost is minimized, its
    reduced-cost row last; ``det`` is the coefficient of every row's basic
    variable (there is no per-row diagonal), ``basis`` has one variable per
    constraint row, and ``cols`` the variable of each stored column.  A cost
    row has the negated cost as its basic variable, so the cost is
    ``-row[-1] / det`` at the current basis.
    """

    rows: list[list[int]]
    det: int
    basis: list[int]
    cols: list[int]
    free: int = 0

    def value(self, v: int) -> Fraction:
        """The value of variable v at the current basic solution."""
        if v not in self.basis:
            return ZERO
        i = self.basis.index(v)
        return Fraction(self.rows[i][-1], self.det)


def pivot(D: Dictionary, r: int, j: int) -> None:
    """Integer-preserving exchange of basis[r] with cols[j]."""
    rows, det = D.rows, D.det
    prow = rows[r]
    p, d = prow[j], det
    if p < 0:
        prow, p, d = [-v for v in prow], -p, -det
    for i, row in enumerate(rows):
        f = row[j]
        if f and i != r:
            rows[i] = new = [(p * a - f * b) // det for a, b in zip(row, prow)]
            new[j] = -f * d // det
        elif not f and p != det:
            rows[i] = [p * a // det for a in row]
    prow[j] = d
    rows[r], D.det = prow, p
    D.basis[r], D.cols[j] = D.cols[j], D.basis[r]


def _entering(D: Dictionary) -> int | None:
    """The column of the least variable id with an improving reduced cost."""
    obj, cols, free = D.rows[-1], D.cols, D.free
    best = None
    for j, v in enumerate(cols):
        a = obj[j]
        if (a < 0 or (a and v < free)) and (best is None or v < cols[best]):
            best = j
    return best


def _leaving(D: Dictionary, j: int, sign: int) -> int | None:
    # The least ratio rhs/a over rows with a = sign * entry > 0 and a basic
    # variable that is not free, by cross-multiplying; ties to the least id.
    rows, free, best = D.rows, D.free, None  # best: (row, rhs, a, variable)
    for i, v in enumerate(D.basis):
        a = sign * rows[i][j]
        if a > 0 and v >= free:
            rhs = rows[i][-1]
            if best is None or (d := rhs * best[2] - best[1] * a) < 0 or (d == 0 and v < best[3]):
                best = (i, rhs, a, v)
    return None if best is None else best[0]


def _run_simplex(D: Dictionary) -> bool:
    """Pivot to optimality on the cost row last in D.rows; False if unbounded."""
    while True:
        j = _entering(D)
        if j is None:
            return True
        r = _leaving(D, j, -1 if D.rows[-1][j] > 0 else 1)
        if r is None:
            return False
        pivot(D, r, j)


def _push_cost(D: Dictionary, cost: dict[int, int]) -> None:
    """Append ``det`` times the reduced-cost row of ``cost`` against the basis."""
    obj = [D.det * cost.get(v, 0) for v in D.cols] + [0]
    for i, v in enumerate(D.basis):
        if c := cost.get(v):
            obj = [a - c * t for a, t in zip(obj, D.rows[i])]
    D.rows.append(obj)


def _optimal_face(D: Dictionary) -> None:
    """Pop the optimal cost row and delete every column it prices nonzero.

    At an optimum those reduced costs are positive (a free column is priced
    zero), so the optimal face is exactly the feasible set with those
    columns at zero.
    """
    obj = D.rows.pop()
    keep = [j for j in range(len(D.cols)) if not obj[j]]
    if len(keep) == len(D.cols):
        return
    D.cols = [D.cols[j] for j in keep]
    keep.append(-1)
    D.rows = [[row[j] for j in keep] for row in D.rows]


def lex_stages(D: Dictionary, costs: list[dict[int, int]]):
    """Minimize each cost in turn over the optimal face of the ones before.

    D must be feasible and hold no cost row; it is consumed.  Yields OPTIMAL
    per stage, with D at that stage's optimal basis until the generator
    resumes, or UNBOUNDED once and stops.
    """
    for stage, c in enumerate(costs):
        if stage:
            _optimal_face(D)
        _push_cost(D, c)
        if not _run_simplex(D):
            yield UNBOUNDED
            return
        yield OPTIMAL


def least_face(D: Dictionary, face_cost: dict[int, int]) -> bool:
    """Restrict D to the face where ``face_cost`` is least; False for a nonzero minimum.

    D is as in `lex_stages`.  ``face_cost`` must be bounded below by zero on
    the feasible set, as a phase-1 artificial is.  At a zero minimum the
    columns it prices nonzero are deleted, which leaves exactly the face.
    """
    _push_cost(D, face_cost)
    _run_simplex(D)
    if D.rows[-1][-1]:
        return False
    _optimal_face(D)
    return True


def face_minimum(D: Dictionary, c: dict[int, int]) -> Fraction | None:
    """The minimum of cost ``c`` from the current basis; None if unbounded.

    D stays at the basis the simplex ended in, so minimizing several costs
    one after another over a face from `least_face` starts each from where
    the one before stopped.
    """
    _push_cost(D, c)
    bounded = _run_simplex(D)
    least = Fraction(-D.rows.pop()[-1], D.det)
    return least if bounded else None


def solve_lp(
    c,
    A_ub=(),
    b_ub=(),
    A_eq=(),
    b_eq=(),
    nonneg=None,
    maximize: bool = False,
) -> LPResult:
    """Optimize c.x subject to A_ub x <= b_ub and A_eq x = b_eq.

    ``nonneg`` flags which variables are sign-restricted (default: all free).
    Free variables are split internally; the reported optimizer is in the
    original variables.
    """
    c = [frac(v) for v in c]
    n = len(c)
    A_ub = [list(row) for row in A_ub]
    b_ub = list(b_ub)
    A_eq = [list(row) for row in A_eq]
    b_eq = list(b_eq)
    if nonneg is None:
        nonneg = [False] * n
    if len(nonneg) != n:
        raise ValueError(f"nonneg has {len(nonneg)} flags for {n} variables")
    for row in A_ub + A_eq:
        if len(row) != n:
            raise ValueError(f"constraint row has {len(row)} entries, expected {n}")
    if len(b_ub) != len(A_ub) or len(b_eq) != len(A_eq):
        raise ValueError("right-hand side length disagrees with constraint count")

    # Variables: per original variable one or two standard ones, one slack
    # per inequality, then one artificial per row, basic in its row.  One
    # common scale turns every row into integers, so slacks and artificials
    # carry it, and the dictionary starts at det = 1.
    split: list[tuple[int, int]] = []  # (variable, sign)
    for j in range(n):
        split.append((j, 1))
        if not nonneg[j]:
            split.append((j, -1))
    rows, scale = _integer_rows(row + [b] for row, b in zip(A_ub + A_eq, b_ub + b_eq))
    m, nslack = len(rows), len(A_ub)
    n_std = len(split) + nslack
    D = Dictionary([], 1, list(range(n_std, n_std + m)), list(range(n_std)))
    for i, row in enumerate(rows):
        std = [row[j] * s for j, s in split] + [0] * nslack + [row[-1]]
        if i < nslack:
            std[len(split) + i] = scale
        D.rows.append([-v for v in std] if row[-1] < 0 else std)

    # Phase 1's face is the feasible set: every artificial is zero on it, so
    # the artificials it keeps (basic at level zero, or priced zero) and any
    # redundant rows cannot move the optimum of the one stage after it.
    if not least_face(D, {n_std + i: 1 for i in range(m)}):
        return LPResult(INFEASIBLE, None, None)
    sense = -1 if maximize else 1
    c_ints = _integer_rows([c])[0][0]
    c_std = {k: sense * c_ints[j] * s for k, (j, s) in enumerate(split) if c_ints[j]}
    if next(lex_stages(D, [c_std])) != OPTIMAL:
        return LPResult(UNBOUNDED, None, None)
    x = [ZERO] * n
    for k, (j, s) in enumerate(split):
        x[j] += s * D.value(k)
    objective = sum((ci * xi for ci, xi in zip(c, x) if ci and xi), ZERO)
    return LPResult(OPTIMAL, objective, tuple(x))


def gauss_solve(
    M, rhs
) -> tuple[str, list[Fraction] | None]:
    """Exact Gauss-Jordan elimination for M x = rhs.

    Fraction-free on full integer rows: a pivot row with a negative pivot is
    negated, and every other row becomes ``p * row - f * pivot_row`` divided
    by its gcd.  Returns ("unique", x), ("inconsistent", None), or
    ("underdetermined", None); the latter means consistent with more than
    one solution.
    """
    if len(M) != len(rhs):
        raise ValueError("row count and right-hand side length disagree")
    A = _integer_rows(list(row) + [r] for row, r in zip(M, rhs))[0]
    nrows = len(A)
    ncols = len(A[0]) - 1 if nrows else 0
    pivot_col: list[int] = []  # pivot_col[i] is the column pivoted in row i
    for col in range(ncols):
        r = len(pivot_col)
        piv = next((i for i in range(r, nrows) if A[i][col] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        pivot_col.append(col)
        prow = A[r]
        p = prow[col]
        if p < 0:
            prow = A[r] = [-v for v in prow]
            p = -p
        for i, row in enumerate(A):
            f = row[col]
            if f and i != r:
                A[i] = _primitive([p * a - f * b for a, b in zip(row, prow)])
    r = len(pivot_col)
    for i in range(r, nrows):
        if A[i][-1] != 0:
            return "inconsistent", None
    if r < ncols:
        return "underdetermined", None
    x = [ZERO] * ncols
    for row, col in enumerate(pivot_col):
        x[col] = Fraction(A[row][-1], A[row][col])
    return "unique", x
