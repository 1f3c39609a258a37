"""Shared generators for seeded randomized tests, and witness-map helpers."""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # before nervecert is imported: leave no __pycache__ under src/

import random  # noqa: E402
from fractions import Fraction

from nervecert import ConvexFamily, HPolytope, WitnessMap, complex_from_facets, witness_points
from nervecert.convex import make_point
from nervecert.witness import assemble_witness_map


def random_box(rng: random.Random, m: int) -> HPolytope:
    lo, hi = [], []
    for _ in range(m):
        den = rng.choice([1, 1, 2])
        a = Fraction(rng.randint(-10, 8), den)
        w = Fraction(rng.randint(1, 10), den)
        lo.append(a)
        hi.append(a + w)
    return HPolytope.box(lo, hi)


def _cut_through_center(rng: random.Random, box: HPolytope, m: int) -> HPolytope:
    """Add a halfspace that keeps the box center feasible, so the body stays nonempty."""
    center = []
    for i in range(m):
        hi = box.b[2 * i]
        lo = -box.b[2 * i + 1]
        center.append((lo + hi) / 2)
    row = [Fraction(rng.randint(-2, 2)) for _ in range(m)]
    if not any(row):
        row[rng.randrange(m)] = Fraction(1)
    b = sum(r * c for r, c in zip(row, center)) + Fraction(rng.randint(1, 4), 2)
    return HPolytope.stack([box, HPolytope.from_rows([row], [b], ambient=m)])


def random_family(
    rng: random.Random,
    n_min: int = 2,
    n_max: int = 8,
    m_max: int = 3,
    cuts: bool = False,
) -> ConvexFamily:
    """Random labeled boxes (optionally cut by a halfspace through their centers)."""
    m = rng.randint(1, m_max)
    n = rng.randint(n_min, n_max)
    bodies = []
    for label in range(n):
        body = random_box(rng, m)
        if cuts and rng.random() < 0.3:
            body = _cut_through_center(rng, body, m)
        bodies.append((label, body))
    return ConvexFamily.of(m, bodies)


def clustered_family(rng: random.Random, m: int, clusters: int, per: int) -> ConvexFamily:
    """Groups of mutually overlapping boxes with far-apart groups.

    Produces nerves with plenty of remote pairs, which is what the witness
    map verification suite needs to exercise.
    """
    bodies = []
    label = 0
    for c in range(clusters):
        anchor = [Fraction(100 * c + rng.randint(0, 3)) for _ in range(m)]
        for _ in range(per):
            lo = [a + Fraction(rng.randint(-4, 0), 2) for a in anchor]
            hi = [a + Fraction(rng.randint(1, 6), 2) for a in anchor]
            bodies.append((label, HPolytope.box(lo, hi)))
            label += 1
    return ConvexFamily.of(m, bodies)


# A tetrahedron, a triangle and an edge on it, and two lone vertices.
MIXED_COMPLEX_FACETS = [[0, 1, 2, 3], [2, 3, 4], [4, 5], [6], [8]]


def random_complexes(seed: int, count: int) -> list:
    """The fixed mixed complex, then ``count`` seeded random ones.

    Each random complex has one to four facets of one to four vertices over
    ids 0..6, and a lone vertex 7 or 8.
    """
    rng = random.Random(seed)
    complexes = [complex_from_facets(MIXED_COMPLEX_FACETS)]
    for _ in range(count):
        facets = [rng.sample(range(7), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        complexes.append(complex_from_facets(facets + [[rng.choice([7, 8])]]))
    return complexes


def witness_map(F: ConvexFamily, K) -> WitnessMap:
    """The linear map of F's canonical witness points on its nerve K."""
    return assemble_witness_map(K, witness_points(F, K), F.ambient)


def move_witness(g: WitnessMap, face, point) -> WitnessMap:
    """A corrupted copy of g: one face's point replaced, nothing verified."""
    return assemble_witness_map(g.nerve, {**g.witness, tuple(face): make_point(point)}, g.ambient)
