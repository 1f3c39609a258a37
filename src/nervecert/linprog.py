"""Exact linear programming and linear solving over the rationals.

A primal simplex pivoting with Bland's rule, so termination is guaranteed,
every verdict is exact, and every run is bit-for-bit deterministic.  No
tolerances exist anywhere.  Also houses the exact Gauss solver used for
square crossing systems.

Both cores pivot fraction-free on rows of Python ints (Edmonds 1967;
Bareiss 1968).  Each integer row is kept a positive multiple of the row a
rational tableau would hold at the same step: the whole initial tableau is
scaled by one common denominator, a pivot row with a negative pivot is
negated, a row update is ``p * row - f * pivot_row`` followed by division
by the row's gcd, and a value is read back as ``Fraction(rhs, diagonal)``.
Signs, ratio comparisons (by cross-multiplication) and zero tests are thus
those of the rational tableau, so Bland's rule takes the same pivots and
returns the same optimum.

The drivers work on integer tableaux that the caller builds in canonical
form for a feasible basis (`convex` makes its starting pivot with `pivot`):

- `lex_stages` minimizes several objectives in turn on one tableau
  (sequential lexicographic simplex, Isermann 1982): once a stage is
  optimal, every column with a nonzero (hence positive) reduced cost is
  deleted, which leaves exactly the optimal face, and the next cost row is
  reduced against the current basis.  It is a generator, so a caller can
  stop after one stage and resume from the tableau and basis where that
  stage stopped: `convex.inscribed_radius` runs the radius stage of a ball
  and leaves its coordinate stages for later.
- `least_face` restricts once and then stops restricting: it minimizes a
  phase-1 artificial and keeps that cost's optimal face, which is how
  `convex.polytope_is_empty` decides every H-system.  `face_minimum` then
  minimizes one objective over that face from the basis the one before
  ended in, so `convex.HPolytope.bound` pays only for the bounds it reads.

`solve_lp` is the rational front end: it accepts free variables (split
internally), inequality rows (slacked internally) and either optimization
sense, adds one artificial per row and decides feasibility with
`least_face`, which is the only phase 1 in the package.  It then minimizes
its objective in one `lex_stages` stage over that face.  In the package it
serves only `convex.hulls_intersect` (V-hull intersection); the tests use it
as the reference LP.
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


def pivot(T: list[list[int]], basis: list[int], row: int, col: int) -> None:
    """Fraction-free pivot of column ``col`` into ``row``; basis[row] becomes col."""
    prow = T[row]
    p = prow[col]
    if p < 0:
        prow = T[row] = [-v for v in prow]
        p = -p
    for i, r in enumerate(T):
        if i == row:
            continue
        f = r[col]
        if f:
            T[i] = _primitive([p * a - f * b for a, b in zip(r, prow)])
    basis[row] = col


def _bland_entering(obj: list[int], ncols: int) -> int | None:
    for j in range(ncols):
        if obj[j] < 0:
            return j
    return None


def _bland_leaving(T: list[list[int]], basis: list[int], col: int, m: int) -> int | None:
    # Ratios rhs/a with a > 0 are compared as rhs_i * a_k against rhs_k * a_i.
    best_rhs = best_a = best_row = None
    for i in range(m):
        a = T[i][col]
        if a > 0:
            rhs = T[i][-1]
            if best_row is None:
                better = True
            else:
                lhs, rhs_k = rhs * best_a, best_rhs * a
                better = lhs < rhs_k or (lhs == rhs_k and basis[i] < basis[best_row])
            if better:
                best_rhs, best_a, best_row = rhs, a, i
    return best_row


def _run_simplex(T: list[list[int]], basis: list[int]) -> str:
    """Pivot to optimality; T's last row is the reduced-cost row."""
    m = len(T) - 1
    ncols = len(T[0]) - 1
    while True:
        col = _bland_entering(T[-1], ncols)
        if col is None:
            return OPTIMAL
        row = _bland_leaving(T, basis, col, m)
        if row is None:
            return UNBOUNDED
        pivot(T, basis, row, col)


def _cost_row(T: list[list[int]], basis: list[int], c: list[int]) -> list[int]:
    """The reduced-cost row of c against the basis, as a positive multiple.

    Row i stands for itself divided by its diagonal entry T[i][basis[i]] > 0.
    """
    m = len(T)
    diag = [T[i][basis[i]] for i in range(m)]
    D = lcm(*(diag[i] for i in range(m) if c[basis[i]]))
    obj = [D * v for v in c] + [0]
    for i in range(m):
        cb = c[basis[i]]
        if cb:
            f = cb * (D // diag[i])
            obj = [a - f * t for a, t in zip(obj, T[i])]
    return _primitive(obj)


def _optimal_face(T: list[list[int]], basis: list[int], cols: list[int]):
    """Pop T's optimal cost row and delete every column it prices nonzero.

    At an optimum those reduced costs are positive, so the optimal face is
    exactly the feasible set with those columns at zero.  ``cols`` maps each
    remaining column to its original index; returns the new (T, cols) and
    renumbers ``basis`` in place.
    """
    obj = T.pop()
    keep = [j for j in range(len(cols)) if obj[j] == 0]
    if len(keep) == len(cols):
        return T, cols
    where = {j: k for k, j in enumerate(keep)}
    basis[:] = [where[j] for j in basis]
    return [_primitive([row[j] for j in keep] + [row[-1]]) for row in T], [cols[j] for j in keep]


def lex_stages(T: list[list[int]], basis: list[int], costs: list[list[int]]):
    """Minimize each cost in turn over the optimal face of the ones before.

    T holds the constraint rows of a feasible integer tableau in canonical
    form for ``basis`` (no objective row); both are consumed.  Costs are
    integer rows over T's columns.  Yields ``(OPTIMAL, x)`` per stage, x
    being the basic solution over all the original columns, or
    ``(UNBOUNDED, None)`` once and stops.
    """
    n = len(costs[0])
    cols = list(range(n))  # original index of each remaining column
    for stage, c in enumerate(costs):
        if stage:
            T, cols = _optimal_face(T, basis, cols)
        T.append(_cost_row(T, basis, [c[j] for j in cols]))
        if _run_simplex(T, basis) != OPTIMAL:
            yield UNBOUNDED, None
            return
        x = [ZERO] * n
        for i in range(len(T) - 1):
            if T[i][-1]:
                x[cols[basis[i]]] = Fraction(T[i][-1], T[i][basis[i]])
        yield OPTIMAL, x


def least_face(
    T: list[list[int]], basis: list[int], face_cost: list[int]
) -> tuple[list[list[int]], list[int]] | None:
    """The face where ``face_cost`` is least, as (T, cols); None for a nonzero minimum.

    T and ``basis`` are as in `lex_stages`.  ``face_cost`` must be bounded
    below by zero on the feasible set, as a phase-1 artificial is.  At a zero
    minimum the columns it prices nonzero are deleted, which leaves exactly
    the face; ``cols`` maps each remaining column to its original index, and
    ``basis`` is renumbered in place.
    """
    T.append(_cost_row(T, basis, face_cost))
    _run_simplex(T, basis)
    if T[-1][-1]:
        return None
    return _optimal_face(T, basis, list(range(len(face_cost))))


def face_minimum(T: list[list[int]], basis: list[int], c: list[int]) -> Fraction | None:
    """The minimum of cost ``c`` (over T's columns) from the current basis; None if unbounded.

    T and ``basis`` stay at the basis the simplex ended in, so minimizing
    several costs one after another over a face from `least_face` starts
    each from where the one before stopped.
    """
    T.append(_cost_row(T, basis, c))
    optimal = _run_simplex(T, basis) == OPTIMAL
    T.pop()
    if not optimal:
        return None
    basic = (Fraction(c[j] * T[i][-1], T[i][j]) for i, j in enumerate(basis) if c[j])
    return sum(basic, ZERO)


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

    # Column layout: per original variable one or two standard columns, one
    # slack per inequality, then one artificial per row.  One common scale
    # turns every row into integers, so slacks and artificials carry it.
    split: list[tuple[int, int]] = []  # (variable, sign)
    for j in range(n):
        split.append((j, 1))
        if not nonneg[j]:
            split.append((j, -1))
    rows, scale = _integer_rows(row + [b] for row, b in zip(A_ub + A_eq, b_ub + b_eq))
    m, nslack = len(rows), len(A_ub)
    n_std = len(split) + nslack
    T: list[list[int]] = []
    for i, row in enumerate(rows):
        std = [row[j] * s for j, s in split] + [0] * (nslack + m) + [row[-1]]
        if i < nslack:
            std[len(split) + i] = scale
        if row[-1] < 0:
            std = [-v for v in std]
        std[n_std + i] = scale
        T.append(_primitive(std))

    # Phase 1's face is the feasible set: every artificial is zero on it, so
    # the artificials it keeps (basic at level zero, or priced zero) and any
    # redundant rows cannot move the optimum of the one stage after it.
    basis = list(range(n_std, n_std + m))
    face = least_face(T, basis, [0] * n_std + [1] * m)
    if face is None:
        return LPResult(INFEASIBLE, None, None)
    T, cols = face
    sense = -1 if maximize else 1
    c_ints = _integer_rows([c])[0][0]
    c_std = [sense * c_ints[j] * s for j, s in split] + [0] * (nslack + m)
    status, xs = next(lex_stages(T, basis, [[c_std[j] for j in cols]]))
    if status != OPTIMAL:
        return LPResult(status, None, None)
    x = [ZERO] * n
    for k, v in zip(cols, xs):
        if v and k < len(split):
            j, s = split[k]
            x[j] += v if s > 0 else -v
    objective = sum((ci * xi for ci, xi in zip(c, x) if ci and xi), ZERO)
    return LPResult(OPTIMAL, objective, tuple(x))


def gauss_solve(
    M, rhs
) -> tuple[str, list[Fraction] | None]:
    """Exact Gauss-Jordan elimination for M x = rhs.

    Returns ("unique", x), ("inconsistent", None), or ("underdetermined",
    None); the latter means consistent with more than one solution.
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
        pivot(A, pivot_col, r, col)
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
