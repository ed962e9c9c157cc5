"""Inequality checkers.  Each one instantiates a single bound on a concrete
instance and returns a BoundReport with both sides, a verdict, and enough
context to reproduce the computation.  A public checker computes every
input of its bound from the instance; ``run_all_checks`` computes the shared
inputs once and hands them to the checkers' private report functions.

Proven bounds with explicit constants run in assert mode; statements with
unspecified constants or hidden log factors, and bounds whose small-instance
regime is not pinned down, run in report mode and never fail a suite.

Verdicts are computed in exact integer arithmetic (square roots squared
out, decimal constants as fractions); the stored lhs/rhs floats are for
human consumption only.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arcgraph import (
    ArcGraph,
    build_sum_graph,
    _degrees,
    count_crossings_fast,
    count_intersections,
    has_parallel_edges,
)
from .sets import (
    IntegerSet,
    energy,
    is_dcd,
    level_set_size,
    consecutive_difference_multiplicity,
    representation_profile,
    satisfies_doubling,
    sumset_size,
)

__all__ = [
    "BoundReport",
    "check_sumset_lower",
    "check_crossing_upper",
    "check_crossing_lower",
    "check_degree_weighted_crossing",
    "check_bipartite_crossing",
    "check_energy_lower",
    "check_heavy_subset",
    "check_level_set_count",
    "check_multiplicity_lower",
    "check_intersection_lower",
    "check_doubling_lower",
    "run_all_checks",
    "reports_to_jsonable",
]

ASSERT = "assert"
REPORT = "report"


@dataclass(frozen=True)
class BoundReport:
    """One bound on one instance.

    The comparison direction is recorded in the name suffix: ``_ge`` means
    the claim is lhs >= rhs, ``_lt`` means lhs < rhs.  ``ratio`` is
    lhs/rhs when rhs is positive, else None.
    """

    name: str
    lhs: float
    rhs: float
    mode: str
    satisfied: bool
    ratio: Optional[float]
    context: dict

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "mode": self.mode,
            "satisfied": self.satisfied,
            "ratio": self.ratio,
            "context": self.context,
        }


def _ratio(lhs, rhs) -> Optional[float]:
    if rhs <= 0:
        return None
    try:
        return float(lhs) / float(rhs)
    except OverflowError:
        return None


def check_sumset_lower(A: IntegerSet, B: IntegerSet) -> BoundReport:
    """|A+B| >= |A| sqrt(|B|) / sqrt(27) when A has distinct consecutive
    differences.  Non-dcd A demotes the report to report mode."""
    return _sumset_lower_report(len(A), len(B), sumset_size(A, B), is_dcd(A))


def _sumset_lower_report(k: int, l: int, s: int, pre: bool) -> BoundReport:
    """The main sumset report for |A| = k, |B| = l and |A+B| = s."""
    satisfied = 27 * s * s >= k * k * l
    rhs = k * math.sqrt(l) / math.sqrt(27.0)
    return BoundReport(
        "sumset_lower_ge", float(s), rhs, ASSERT if pre else REPORT,
        satisfied, _ratio(s, rhs),
        {"aSize": k, "bSize": l, "sumsetSize": s, "preconditionDcd": pre})


def check_crossing_upper(A: IntegerSet, B: IntegerSet) -> BoundReport:
    """Crossings of the sum graph are at most C(|B|,2)(2|A|-1), hence at
    most |B|^2 |A|.  Both forms are required for a pass; the weaker one is
    the recorded lhs, the sharp one sits in the context."""
    crossings = count_crossings_fast(build_sum_graph(A, B))
    return _crossing_upper_report(len(A), len(B), crossings, is_dcd(A))


def _crossing_upper_report(k: int, l: int, crossings: int,
                           pre: bool) -> BoundReport:
    """The crossing upper-bound report for |A| = k and |B| = l."""
    sharp = (l * (l - 1) // 2) * (2 * k - 1)
    weak = l * l * k
    satisfied = crossings <= sharp and crossings <= weak
    return BoundReport(
        "crossing_upper_ge", float(weak), float(crossings),
        ASSERT if pre else REPORT, satisfied, _ratio(weak, crossings),
        {"aSize": k, "bSize": l, "crossings": crossings,
         "sharpBound": sharp, "sharpSatisfied": crossings <= sharp,
         "preconditionDcd": pre})


def check_crossing_lower(A: IntegerSet, B: IntegerSet) -> BoundReport:
    """One-page drawing lower bound cr >= e^3 / (27 n^2) with e = |B|(|A|-1)
    edges and n = |A+B| vertices.  Report-only: the cited bound speaks about
    optimal drawings and its small-instance correction terms are unknown, so
    instances like |B| = 1 legitimately fall below it."""
    if len(A) < 2:
        raise ValueError("A must have at least two elements")
    crossings = count_crossings_fast(build_sum_graph(A, B))
    return _crossing_lower_report(len(A), len(B), sumset_size(A, B),
                                  crossings, is_dcd(A))


def _crossing_lower_report(k: int, l: int, s: int, crossings: int,
                           pre: bool) -> BoundReport:
    """The one-page crossing report for |A| = k, |B| = l and |A+B| = s."""
    e = l * (k - 1)
    satisfied = 27 * s * s * crossings >= e**3
    rhs = e**3 / (27.0 * s * s)
    return BoundReport(
        "crossing_lower_ge", float(crossings), rhs, REPORT, satisfied,
        _ratio(crossings, rhs),
        {"aSize": k, "bSize": l, "sumsetSize": s, "edges": e,
         "crossings": crossings, "preconditionDcd": pre})


def check_degree_weighted_crossing(graph: ArcGraph) -> BoundReport:
    """cr(G) >= (1/36000n) * sum_i i*d_i^3 - 4.01 n^2 over the nonincreasing
    degree sequence of a simple graph."""
    return _degree_weighted_report(graph, count_crossings_fast(graph))


def _degree_weighted_report(graph: ArcGraph, crossings: int) -> BoundReport:
    """The degree-weighted report for a graph with the given crossings."""
    if has_parallel_edges(graph):
        raise ValueError("degree-weighted bound needs a simple graph")
    n = graph.num_vertices
    # sum of i * d_i^3: the c vertices of degree d after the first `before`
    # hold places before + 1 .. before + c
    weighted = before = 0
    vertices = np.bincount(_degrees(graph))
    for d in np.flatnonzero(vertices)[::-1].tolist():
        c = int(vertices[d])
        weighted += d**3 * (c * before + c * (c + 1) // 2)
        before += c
    # 4.01 n^2 = 144360 n^3 / (36000 n); compare integers, no floats
    satisfied = 36000 * n * crossings >= weighted - 144360 * n**3
    rhs = weighted / (36000.0 * n) - 4.01 * n * n if n else 0.0
    return BoundReport(
        "degree_weighted_crossing_ge", float(crossings), rhs, ASSERT,
        satisfied, _ratio(crossings, rhs),
        {"vertices": n, "edges": graph.num_edges, "crossings": crossings,
         "weightedDegreeCubes": weighted})


def check_bipartite_crossing(graph: ArcGraph, part_u) -> BoundReport:
    """cr >= e^3 / (108 |U||V|) for the bipartite subgraph of cross edges,
    asserted only under the edge-density hypothesis e >= 6 max(|U|,|V|)."""
    n = graph.num_vertices
    members = np.fromiter(part_u, dtype=np.int64)
    if np.any((members < 0) | (members >= n)):
        raise ValueError("part contains an out-of-range vertex index")
    in_u = np.zeros(n, dtype=bool)
    in_u[members] = True
    is_cross = in_u[graph.u] != in_u[graph.v]
    cross = ArcGraph(n, u=graph.u[is_cross], v=graph.v[is_cross])
    e = cross.num_edges
    size_u = int(np.count_nonzero(in_u))
    size_v = n - size_u
    crossings = count_crossings_fast(cross)
    # parallel edges never cross, so the cubic bound only holds for simple
    # cross subgraphs; multigraphs are recorded, not asserted
    simple = not has_parallel_edges(cross)
    hypothesis = simple and e >= 6 * max(size_u, size_v)
    if size_u and size_v:
        satisfied = 108 * size_u * size_v * crossings >= e**3
        rhs = e**3 / (108.0 * size_u * size_v)
    else:
        satisfied = e == 0
        rhs = 0.0
    return BoundReport(
        "bipartite_crossing_ge", float(crossings), rhs,
        ASSERT if hypothesis else REPORT, satisfied, _ratio(crossings, rhs),
        {"uSize": size_u, "vSize": size_v, "crossEdges": e,
         "hypothesisMet": hypothesis})


def check_energy_lower(A: IntegerSet, B: IntegerSet) -> BoundReport:
    """|A+B| against E_1.5(A,B)^(2/3).  The underlying statement hides a
    log factor, so this is report-only bookkeeping of the ratio."""
    if len(A) != len(B):
        raise ValueError("sets must have equal size")
    profile = representation_profile(A, B)
    return _energy_report(len(A), len(profile.counts),
                          energy(profile, 1.5).value, is_dcd(A))


def _energy_report(k: int, s: int, e15: float, pre: bool) -> BoundReport:
    """The energy report for |A| = |B| = k, |A+B| = s and E_1.5 = e15."""
    rhs = e15 ** (2.0 / 3.0)
    return BoundReport(
        "energy_lower_ge", float(s), rhs, REPORT, s >= rhs, _ratio(s, rhs),
        {"aSize": k, "bSize": k, "sumsetSize": s,
         "energy15": e15, "logSumsetSize": math.log(s),
         "preconditionDcd": pre})


def check_heavy_subset(A: IntegerSet, B: IntegerSet,
                       S: IntegerSet) -> BoundReport:
    """Given a subset S of the sumset carrying representation mass
    |A||B|/Delta, the sumset must satisfy |A+B| >= |B||A|^2 / ((2 Delta)^3 |S|).
    Delta is computed from S itself, so the mass hypothesis holds with
    equality."""
    profile = representation_profile(A, B)
    at = profile.locate(S.elements)
    if (at < 0).any():
        raise ValueError(f"{S[int(np.argmax(at < 0))]} is not in the sumset")
    mass = int(profile.multiplicities[at].sum())
    return _heavy_subset_report(len(A), len(B), len(profile.counts), len(S),
                                mass, is_dcd(A))


def _heavy_subset_report(k: int, l: int, s: int, size_s: int, mass: int,
                         pre: bool) -> BoundReport:
    """The heavy-subset report for size_s sums carrying mass pairs."""
    delta = (k * l) / mass
    # rhs = mass^3 / (8 k l^2 |S|) after substituting Delta
    satisfied = 8 * k * l * l * size_s * s >= mass**3
    rhs = mass**3 / (8.0 * k * l * l * size_s)
    return BoundReport(
        "heavy_subset_ge", float(s), rhs,
        ASSERT if pre else REPORT, satisfied, _ratio(s, rhs),
        {"aSize": k, "bSize": l, "sumsetSize": s, "subsetSize": size_s,
         "subsetMass": mass, "delta": delta,
         "secondCaseHypothesisHeld": k * l * l >= 6 * s,
         "preconditionDcd": pre})


def check_level_set_count(A: IntegerSet, B: IntegerSet, t: int) -> BoundReport:
    """Values represented at least t >= 2 times are few:
    |S_t| < 3 |A+B|^(1/2) |A|^(1/2) |B| / t^(3/2)."""
    if t < 2:
        raise ValueError("t must be >= 2")
    profile = representation_profile(A, B)
    return _level_set_report(len(A), len(B), len(profile.counts), t,
                             level_set_size(profile, t), is_dcd(A))


def _level_set_report(k: int, l: int, s: int, t: int, size_t: int,
                      pre: bool) -> BoundReport:
    """The level-set report for size_t sums represented >= t times."""
    satisfied = size_t * size_t * t**3 < 9 * s * k * l * l
    rhs = 3.0 * math.sqrt(s * k) * l / t**1.5
    return BoundReport(
        "level_set_count_lt", float(size_t), rhs,
        ASSERT if pre else REPORT, satisfied, _ratio(size_t, rhs),
        {"aSize": k, "bSize": l, "sumsetSize": s, "t": t,
         "levelSetSize": size_t, "preconditionDcd": pre})


def check_multiplicity_lower(A: IntegerSet, B: IntegerSet) -> BoundReport:
    """|A+B| against |A| sqrt(|B|/m) where m is the largest multiplicity of
    a consecutive difference of A.  The constant in the statement is
    unspecified, so the ratio is recorded, never asserted."""
    return _multiplicity_report(len(A), len(B), sumset_size(A, B),
                                consecutive_difference_multiplicity(A))


def _multiplicity_report(k: int, l: int, s: int, m: int) -> BoundReport:
    """The multiplicity report for a gap of A repeated m times."""
    satisfied = m * s * s >= k * k * l
    rhs = k * math.sqrt(l / m)
    return BoundReport(
        "multiplicity_lower_ge", float(s), rhs, REPORT, satisfied,
        _ratio(s, rhs),
        {"aSize": k, "bSize": l, "sumsetSize": s, "multiplicity": m})


def check_intersection_lower(graph: ArcGraph) -> BoundReport:
    """int(G) >= 0.0658 e^3 / n^2 once e >= 2.25 n; below that edge density
    the bound is only recorded.  0.0658 = 329/5000 exactly.

    Parallel edges share both endpoints and never intersect, so arbitrarily
    many of them add nothing to int(G); the bound is asserted for simple
    graphs only."""
    e = graph.num_edges
    n = graph.num_vertices
    intersections = count_intersections(graph)
    hypothesis = 4 * e >= 9 * n and not has_parallel_edges(graph)
    satisfied = 5000 * n * n * intersections >= 329 * e**3
    rhs = 0.0658 * e**3 / (n * n) if n else 0.0
    return BoundReport(
        "intersection_lower_ge", float(intersections), rhs,
        ASSERT if hypothesis else REPORT, satisfied,
        _ratio(intersections, rhs),
        {"vertices": n, "edges": e, "intersections": intersections,
         "hypothesisMet": hypothesis})


def check_doubling_lower(A: IntegerSet, B: IntegerSet) -> BoundReport:
    """|A+B| >= (2 / 3 sqrt(3)) |A| sqrt(|B|) when A has distinct
    consecutive differences within a factor of two of each other."""
    pre = len(A) >= 2 and is_dcd(A) and satisfies_doubling(A)
    return _doubling_report(len(A), len(B), sumset_size(A, B), pre)


def _doubling_report(k: int, l: int, s: int, pre: bool) -> BoundReport:
    """The doubling report for |A| = k, |B| = l and |A+B| = s."""
    satisfied = 27 * s * s >= 4 * k * k * l
    rhs = 2.0 * k * math.sqrt(l) / (3.0 * math.sqrt(3.0))
    return BoundReport(
        "doubling_lower_ge", float(s), rhs, ASSERT if pre else REPORT,
        satisfied, _ratio(s, rhs),
        {"aSize": k, "bSize": l, "sumsetSize": s,
         "preconditionDoublingDcd": pre})


# ---------------------------------------------------------------------------
# Suite runner.

# Most edges of a sum graph that gets the bipartite and intersection reports
_ORACLE_EDGE_LIMIT = 2500


def run_all_checks(A: IntegerSet, B: IntegerSet) -> list[BoundReport]:
    """Run every checker that applies to (A, B) and return the reports
    sorted by (name, context digest).

    Each report equals its public checker's on (A, B).  The profile (so
    |A+B| and the levels), ``is_dcd(A)``, the sum graph and its crossings
    are computed once and passed to the checkers' private report functions.

    The bipartite-split and intersection-number reports appear only when
    the sum graph has at most ``_ORACLE_EDGE_LIMIT`` edges.  Both counters
    are O(m log m), so the gate no longer saves time: it keeps the ``check``
    JSON of larger instances unchanged until the output can record a
    skipped report with its reason.
    """
    profile = representation_profile(A, B)
    k, l = len(A), len(B)
    s = len(profile.counts)
    pre = is_dcd(A)
    reports = [
        _sumset_lower_report(k, l, s, pre),
        _doubling_report(k, l, s, k >= 2 and pre and satisfies_doubling(A)),
        # the whole sumset carries all |A||B| pairs, a top sum the most
        _heavy_subset_report(k, l, s, s, k * l, pre),
        _heavy_subset_report(k, l, s, 1, profile.max_multiplicity(), pre),
    ]
    if k >= 2:
        m = consecutive_difference_multiplicity(A)
        reports.append(_multiplicity_report(k, l, s, m))
        graph = build_sum_graph(A, B)
        crossings = count_crossings_fast(graph)
        reports.append(_crossing_upper_report(k, l, crossings, pre))
        reports.append(_crossing_lower_report(k, l, s, crossings, pre))
        if not has_parallel_edges(graph):
            reports.append(_degree_weighted_report(graph, crossings))
        if graph.num_edges <= _ORACLE_EDGE_LIMIT:
            even = range(0, graph.num_vertices, 2)
            reports.append(check_bipartite_crossing(graph, even))
            reports.append(check_intersection_lower(graph))
    if k == l:
        reports.append(_energy_report(k, s, energy(profile, 1.5).value, pre))
    # level_sizes[t]: the sums with at least t representations
    level_sizes = np.cumsum(profile.multiplicity_histogram()[::-1])[::-1]
    for t, size in enumerate(level_sizes.tolist()[2:], start=2):
        reports.append(_level_set_report(k, l, s, t, size, pre))
    return sorted(reports, key=lambda r: (r.name, _context_digest(r.context)))


def _context_digest(context: dict) -> str:
    payload = json.dumps(context, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def reports_to_jsonable(reports: list[BoundReport]) -> list[dict]:
    return [r.as_dict() for r in reports]
