"""Seeded inputs for the benchmark, each job with the verdict it must give.

A job is one `certificate` or `vk` call on generated documents.  Families
realize sd L by construction: L is drawn in the plane, each vertex x of the
geometric sd L gets the convex hull of its closed star shrunk by 7/10
toward x, and at d=2 every body is lifted to R^4 by a product with [0,1]^2.
The expected verdict of a family comes from an independent planar oracle
(Fourier-Motzkin feasibility plus Helly closure), never from the program.

Everything is a function of the seed; nothing here reads the clock.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import combinations
from math import gcd, lcm

SHRINK = Q(7, 10)
# At 3/5 the three homothets inside each small triangle (v, m, c) of the
# subdivided triangle no longer share a point (they need a ratio >= 2/3).
SHRINK_MISSING = Q(3, 5)
FAR_POINT = (Q(-1000), Q(-1000))


# -- complexes ---------------------------------------------------------------

def canonical_faces(facets) -> list[tuple[int, ...]]:
    """All faces of the closure of ``facets``, by dimension then lexicographic."""
    faces = {sub for f in facets for k in range(1, len(f) + 1)
             for sub in combinations(sorted(f), k)}
    return sorted(faces, key=lambda f: (len(f), f))


def subdivision(facets) -> tuple[list[tuple[int, ...]], set[tuple[int, ...]]]:
    """Faces of L in sd-vertex-id order, and the face set of sd L.

    sd vertex ids follow the (dimension, lexicographic) order of L's faces,
    which is the labeling the program's `build sd` uses.
    """
    order = canonical_faces(facets)
    ids = {f: i for i, f in enumerate(order)}
    chains: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for f in order:
        tails = [(f,)]
        for k in range(1, len(f)):
            for sub in combinations(f, k):
                tails.extend((f,) + c for c in chains[sub])
        chains[f] = tails
    sd = {tuple(sorted(ids[m] for m in c)) for f in order for c in chains[f]}
    return order, sd


# -- exact planar geometry ---------------------------------------------------

def _cross(o, a, b) -> Q:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> list[tuple[Q, Q]]:
    """Counter-clockwise hull vertices with collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list = []
    upper: list = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) > 1 else pts[:1]


def _integer_row(a, b) -> tuple[list[int], int]:
    scale = lcm(*(q.denominator for q in (*a, b)))
    ints = [int(q * scale) for q in (*a, b)]
    g = gcd(*ints) or 1
    ints = [v // g for v in ints]
    return ints[:-1], ints[-1]


def hull_rows(hull) -> list[tuple[list[int], int]]:
    """Integer rows a.x <= b describing conv(hull); a segment gets four rows."""
    if len(hull) == 2:
        p, q = hull
        dx, dy = q[0] - p[0], q[1] - p[1]
        line = (dy, -dx), dy * p[0] - dx * p[1]
        rows = [line, ((-dy, dx), -line[1]),
                ((dx, dy), dx * q[0] + dy * q[1]),
                ((-dx, -dy), -(dx * p[0] + dy * p[1]))]
    else:
        rows = []
        for p, q in zip(hull, hull[1:] + hull[:1]):
            dx, dy = q[0] - p[0], q[1] - p[1]
            rows.append(((dy, -dx), dy * p[0] - dx * p[1]))
    return [_integer_row(a, b) for a, b in rows]


def fm_feasible(rows) -> bool:
    """Fourier-Motzkin feasibility of {(x, y) : a.(x, y) <= b} over the rationals."""
    pos, neg, rest = [], [], []
    for (a1, a2), b in rows:
        (pos if a1 > 0 else neg if a1 < 0 else rest).append((Q(a1), Q(a2), Q(b)))
    ys = [(a2, b) for _, a2, b in rest]
    for p1, p2, pb in pos:
        for n1, n2, nb in neg:
            ys.append((p2 * -n1 + n2 * p1, pb * -n1 + nb * p1))
    lo, hi = None, None
    for c, e in ys:
        if c == 0:
            if e < 0:
                return False
        elif c > 0:
            hi = e / c if hi is None else min(hi, e / c)
        else:
            lo = e / c if lo is None else max(lo, e / c)
    return lo is None or hi is None or lo <= hi


def planar_nerve(bodies: list[list]) -> set[tuple[int, ...]]:
    """Nerve of planar convex bodies: LP-free feasibility up to triples, Helly above."""
    n = len(bodies)
    level = [(i,) for i in range(n) if fm_feasible(bodies[i])]
    faces = set(level)
    size = 2
    while level:
        prev = set(level)
        nxt = []
        for base in level:
            for j in range(base[-1] + 1, n):
                cand = base + (j,)
                if any(cand[:i] + cand[i + 1:] not in prev for i in range(size)):
                    continue
                if size > 3 or fm_feasible([r for v in cand for r in bodies[v]]):
                    nxt.append(cand)
        faces.update(nxt)
        level = nxt
        size += 1
    return faces


def nerve_difference(nerve: set, claimed: set) -> tuple[str, tuple[int, ...]] | None:
    """The program's mismatch witness: least (size, lex) face of the difference."""
    if nerve == claimed:
        return None
    face = min(nerve ^ claimed, key=lambda f: (len(f), f))
    return ("missing_face" if face in claimed else "extra_face"), face


# -- families realizing sd L -------------------------------------------------

@dataclass
class Realization:
    """Planar sd L data: L's faces in sd-id order, positions, star hulls."""

    facets: list[list[int]]
    d: int
    faces: list[tuple[int, ...]]
    sd: set[tuple[int, ...]]
    pos: list[tuple[Q, Q]]
    star: list[list[tuple[Q, Q]]]


def realize(facets, vertex_pos: dict[int, tuple[Q, Q]], d: int) -> Realization:
    faces, sd = subdivision(facets)
    pos = []
    for f in faces:
        pts = [vertex_pos[v] for v in f]
        pos.append((sum(p[0] for p in pts) / len(f), sum(p[1] for p in pts) / len(f)))
    neighbours: list[set[int]] = [{i} for i in range(len(faces))]
    for a, b in (e for e in sd if len(e) == 2):
        neighbours[a].add(b)
        neighbours[b].add(a)
    star = [convex_hull([pos[j] for j in nb]) for nb in neighbours]
    return Realization([list(f) for f in facets], d, faces, sd, pos, star)


def shrink_toward(hull, centre, s: Q):
    return [(centre[0] + s * (p[0] - centre[0]), centre[1] + s * (p[1] - centre[1]))
            for p in hull]


def planar_bodies(R: Realization, s: Q, grown: dict[int, tuple[Q, Q]] | None = None):
    """Integer rows of every body: shrunk star hull, optionally grown onto a point."""
    bodies = []
    for i, hull in enumerate(R.star):
        pts = shrink_toward(hull, R.pos[i], s)
        if grown and i in grown:
            pts = pts + [grown[i]]
        bodies.append(hull_rows(convex_hull(pts)))
    return bodies


def family_doc(bodies, d: int) -> dict:
    """Family document in R^2d; at d=2 each planar body times [0,1]^2."""
    out = []
    for label, rows in enumerate(bodies):
        A = [[str(a) for a in row] + ["0"] * (2 * d - 2) for row, _ in rows]
        b = [str(rhs) for _, rhs in rows]
        for k in range(2, 2 * d):
            unit = ["0"] * (2 * d)
            unit[k] = "1"
            A.append(unit)
            b.append("1")
            A.append(["-1" if v == "1" else "0" for v in unit])
            b.append("0")
        out.append({"label": label, "hpoly": {"A": A, "b": b}})
    return {"ambient": 2 * d, "bodies": out}


def _first_violated_row(rows, point) -> int | None:
    for i, (a, b) in enumerate(rows):
        if a[0] * point[0] + a[1] * point[1] > b:
            return i
    return None


def _fmt(q: Q) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# -- drawings ----------------------------------------------------------------

def _jitter(rng: random.Random) -> Q:
    return Q(rng.choice((-3, -1, 1, 3)), 4)


def path_drawing(n: int, rng: random.Random):
    facets = [[i, i + 1] for i in range(n - 1)]
    pos = {i: (Q(12 * i) + _jitter(rng), Q(5 * (i % 2)) + _jitter(rng)) for i in range(n)}
    return facets, pos


# A decagon with integer corners close to radius 40, convex for any jitter
# below 1.
_DECAGON = [(40, 0), (32, 24), (12, 38), (-12, 38), (-32, 24),
            (-40, 0), (-32, -24), (-12, -38), (12, -38), (32, -24)]


def cycle_drawing(rng: random.Random):
    n = len(_DECAGON)
    facets = sorted(sorted([i, (i + 1) % n]) for i in range(n))
    pos = {i: (Q(x) + _jitter(rng), Q(y) + _jitter(rng)) for i, (x, y) in enumerate(_DECAGON)}
    return facets, pos


def tree_drawing(n: int, rng: random.Random):
    """Random recursive tree drawn in layers, subtrees over disjoint x-ranges.

    Each leaf gets its own 16-unit column in depth-first order and every
    parent sits over the middle of its children, so edges never cross and
    the layers are 40 units apart; small jitter keeps the drawing generic.
    """
    parent = {v: rng.randrange(v) for v in range(1, n)}
    children: dict[int, list[int]] = {v: [] for v in range(n)}
    for v in range(1, n):
        children[parent[v]].append(v)
    x: dict[int, Q] = {}
    depth = {0: 0}
    column = 0

    def place(v: int) -> None:
        nonlocal column
        for c in children[v]:
            depth[c] = depth[v] + 1
            place(c)
        if children[v]:
            x[v] = (x[children[v][0]] + x[children[v][-1]]) / 2
        else:
            x[v] = Q(16 * column)
            column += 1

    place(0)
    facets = sorted(sorted([v, p]) for v, p in parent.items())
    pos = {v: (x[v] + _jitter(rng), Q(-40 * depth[v]) + _jitter(rng)) for v in range(n)}
    return facets, pos


def triangles_drawing(rng: random.Random):
    """Two disjoint triangles with corners jittered around fixed templates."""
    template = [(0, 0), (36, 0), (18, 30), (60, 0), (96, 0), (78, 30)]
    pos = {i: (Q(x) + _jitter(rng), Q(y) + _jitter(rng)) for i, (x, y) in enumerate(template)}
    return [[0, 1, 2], [3, 4, 5]], pos


# -- jobs --------------------------------------------------------------------

@dataclass
class Job:
    """One CLI call on generated documents and the verdict it must give.

    ``argv`` names documents by key; the runner substitutes their paths.
    ``expect`` holds the exit code, the certificate kind and the fields of
    the certificate that must equal the stated values.
    """

    name: str
    argv: list[str]
    docs: dict[str, dict]
    expect: dict


def _certificate_job(name: str, R: Realization, bodies, expect: dict, extra=()) -> Job:
    return Job(
        name,
        ["certificate", "@family", "@complex", "-d", str(R.d), *extra],
        {"family": family_doc(bodies, R.d), "complex": {"facets": R.facets}},
        expect,
    )


def _clean_bodies(name: str, R: Realization):
    bodies = planar_bodies(R, SHRINK)
    if nerve_difference(planar_nerve(bodies), R.sd) is not None:
        raise AssertionError(f"{name}: drawing does not realize sd L")
    return bodies


def _clean_family_job(name: str, R: Realization) -> Job:
    return _certificate_job(
        name, R, _clean_bodies(name, R),
        {"exit": 0, "kind": "OBSTRUCTION_REPORT", "fields": {"vanishes": True}},
    )


def _mismatch_job(name: str, R: Realization, bodies) -> Job:
    diff = nerve_difference(planar_nerve(bodies), R.sd)
    if diff is None:
        raise AssertionError(f"{name}: mutation left the nerve unchanged")
    direction, face = diff
    return _certificate_job(
        name, R, bodies,
        {"exit": 2, "kind": "NERVE_MISMATCH",
         "fields": {"direction": direction, "witness_face": list(face)}},
    )


def _corrupt_job(name: str, R: Realization, face, point, stage: str, fields: dict) -> Job:
    spec = ",".join(map(str, face)) + ":" + ",".join(_fmt(c) for c in point)
    kind = "WITNESS_VIOLATION" if stage == "witness" else "LEMMA_VIOLATION"
    return _certificate_job(
        name, R, _clean_bodies(name, R), {"exit": 2, "kind": kind, "fields": fields},
        ["--corrupt-witness", spec, "--corrupt-stage", stage],
    )


def pipeline_d1(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = [
        _clean_family_job("path10", realize(*path_drawing(10, rng), d=1)),
        _clean_family_job("cycle10", realize(*cycle_drawing(rng), d=1)),
    ]
    for k in range(2):
        jobs.append(_clean_family_job(f"tree10_{k}", realize(*tree_drawing(10, rng), d=1)))
    return jobs


def pipeline_d2(seed: int) -> list[Job]:
    rng = random.Random(seed)
    return [_clean_family_job("two_triangles", realize(*triangles_drawing(rng), d=2))]


# The recheck of a missing-face mutant costs up to half as much again for
# one jitter as for another.  So each seed draws several such families, and
# one run averages over drawings as well as over time.
MISSING_FACE_FAMILIES = 6
D1_MUTANT_ROUNDS = 2


def mutants(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for k in range(MISSING_FACE_FAMILIES):
        R = realize(*triangles_drawing(rng), d=2)
        jobs.append(_mismatch_job(f"missing_face_d2_{k}", R, planar_bodies(R, SHRINK_MISSING)))

    for k in range(D1_MUTANT_ROUNDS):
        # Vertex 0 of the path is a leaf; growing its body onto the position
        # of its non-neighbour, vertex 1, adds exactly the faces through (0, 1).
        R = realize(*path_drawing(10, rng), d=1)
        jobs.append(_mismatch_job(f"extra_face_d1_{k}", R,
                                  planar_bodies(R, SHRINK, grown={0: R.pos[1]})))

        # Stage witness: p(0, id of edge (0, 1)) moved far outside body 0.
        R = realize(*cycle_drawing(rng), d=1)
        edge = R.faces.index((0, 1))
        row = _first_violated_row(planar_bodies(R, SHRINK)[0], FAR_POINT)
        jobs.append(_corrupt_job(
            f"witness_stage_d1_{k}", R, (0, edge), FAR_POINT, "witness",
            {"face": [0, edge], "body_label": 0, "row": row},
        ))

        # Stage lemma: p(0) moved onto p(b), where b is the first edge of L
        # not at vertex 0.  Body b is a segment, so its canonical point is its
        # lexicographically least endpoint, and (0) and (b) are remote.
        R = realize(*tree_drawing(10, rng), d=1)
        b = next(i for i, f in enumerate(R.faces) if len(f) == 2 and 0 not in f)
        target = min(shrink_toward(R.star[b], R.pos[b], SHRINK))
        jobs.append(_corrupt_job(
            f"lemma_stage_d1_{k}", R, (0,), target, "lemma", {"alpha": [0], "beta": [b]},
        ))
    return jobs


def torus_facets(n: int) -> list[list[int]]:
    """The n x n triangulated torus: two triangles per square of the grid."""
    facets = []
    for i in range(n):
        for j in range(n):
            a, b = n * i + j, n * i + (j + 1) % n
            c, e = n * ((i + 1) % n) + j, n * ((i + 1) % n) + (j + 1) % n
            facets.append(sorted([a, c, e]))
            facets.append(sorted([a, b, e]))
    return sorted(facets)


def _vk_job(name: str, facets, rng: random.Random, vanishes: bool, fields: dict) -> Job:
    """`vk -d 2` with the moment-curve parameters 1..n in seeded order."""
    n = len({v for f in facets for v in f})
    params = list(range(1, n + 1))
    rng.shuffle(params)
    return Job(
        name,
        ["vk", "@complex", "-d", "2", "--params", ",".join(map(str, params))],
        {"complex": {"facets": facets}},
        {"exit": 0 if vanishes else 3, "kind": "OBSTRUCTION_REPORT",
         "fields": {"vanishes": vanishes, **fields}},
    )


# The parameter order changes the cocycle, and the time to solve for it by
# up to a sixth; each seed draws this many orders per complex.
VK_ORDERS = 2


def vk_d2(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for k in range(VK_ORDERS):
        jobs.append(_vk_job(f"skeleton_9_2_{k}", [list(f) for f in combinations(range(10), 3)],
                            rng, False, {"n_pairs": 2100, "n_rows": 2520, "rank": 1449}))
        jobs.append(_vk_job(f"torus_6x6_{k}", torus_facets(6), rng,
                            True, {"n_pairs": 2124, "n_rows": 6696, "rank": 2124}))
    return jobs


WORKLOADS = {
    "pipeline_d1": pipeline_d1,
    "pipeline_d2": pipeline_d2,
    "mutants": mutants,
    "vk_d2": vk_d2,
}


def write_jobs(jobs: list[Job], directory) -> list[tuple[Job, list[str], str]]:
    """Write each job's documents; return (job, argv with paths, certificate path)."""
    out = []
    for k, job in enumerate(jobs):
        paths = {}
        for key, doc in job.docs.items():
            path = directory / f"{k:02d}_{job.name}_{key}.json"
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            paths[key] = str(path)
        argv = [paths[a[1:]] if a.startswith("@") else a for a in job.argv]
        cert = str(directory / f"{k:02d}_{job.name}_cert.json")
        out.append((job, argv + ["-o", cert], cert))
    return out
