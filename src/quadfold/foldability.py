"""Numerical rigid-foldability certification of a quadrilateral blanket.

The check cuts every horizontal inner crease below the top row, which turns
the interior crease graph into a tree: the top row chains the columns
together and each column hangs below its top-row vertex.  Fold angles then
propagate uniquely from a single driving angle (the left crease of the
top-left vertex).  At every cut crease two values arrive independently - one
from the column on its left (theta), one from the column on its right (phi) -
and the pattern folds rigidly exactly when theta and phi coincide along a
whole interval of the driving angle.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

from .config import (DEFAULT_SAMPLES, PROBE_LIMIT, TAU_COMPAT, TAU_EMPTY,
                     TAU_FLAT, check_count)
from .errors import EmptyInterval, OutOfDomain
from .pattern import QuadPattern, branch_chains
from .vertex import (
    BranchId,
    VertexSolution,
    _LimitSearch,
    _drive,
    normalize_angle,
    symmetric_grid,
)

BranchChoice = Union[None, BranchId, Sequence]


@dataclass(frozen=True)
class TreeStructure:
    """Blanket with the inter-column creases below the top row severed."""

    pattern: QuadPattern
    cut_creases: tuple  # (i, j): crease between inner vertices (i,j)-(i,j+1)

    @property
    def n_cuts(self) -> int:
        return len(self.cut_creases)


def build_tree(p: QuadPattern) -> TreeStructure:
    """Select the cut creases.

    The kept creases form a comb - the top row joins the columns and each
    column hangs below its top-row vertex - so they span the inner vertices
    of every pattern (m, n >= 1) without a cycle.
    """
    cuts = tuple((i, j) for i in range(1, p.m) for j in range(p.n - 1))
    return TreeStructure(pattern=p, cut_creases=cuts)


def _branch_grid(p: QuadPattern, choice: BranchChoice):
    if choice is None:
        return p.branch_default
    if isinstance(choice, BranchId):
        return tuple(tuple(choice for _ in range(p.n)) for _ in range(p.m))
    grid = tuple(
        tuple(b if isinstance(b, BranchId) else BranchId.from_token(b)
              for b in row)
        for row in choice
    )
    if len(grid) != p.m or any(len(row) != p.n for row in grid):
        raise ValueError(f"branch choice must be a {p.m}x{p.n} grid")
    return grid


@dataclass(frozen=True)
class Propagation:
    """All folding angles of the tree at one driving angle."""

    driving: float
    solutions: tuple          # m x n VertexSolution
    theta_phi: tuple          # ((i, j), theta, phi) per cut crease

    def max_residual(self) -> float:
        if not self.theta_phi:
            return 0.0
        return max(abs(normalize_angle(t - f)) for _, t, f in self.theta_phi)

    def edge_angle(self, kind: str, a, b) -> float:
        """Fold angle of a grid edge (same addressing as QuadPattern.edges).

        Cut creases report the value propagated from the left column.
        """
        rows = self.solutions
        i, j, k = crease_slot(len(rows), len(rows and rows[0]), kind, a, b)
        return rows[i][j].rho[k]


def check_solved_grid(p: QuadPattern, prop: Propagation, error=ValueError):
    """`error`, naming both shapes, unless `prop` solves p's m x n grid."""
    rows = prop.solutions
    if len(rows) != p.m or any(len(row) != p.n for row in rows):
        cols = "/".join(map(str, sorted({len(row) for row in rows}) or [0]))
        raise error(f"the propagation's grid is {len(rows)}x{cols}; the "
                    f"pattern is {p.m}x{p.n}")


def crease_slot(m: int, n: int, kind: str, a, b) -> tuple:
    """(i, j, k): a crease of an m x n blanket's grid (addressed as in
    QuadPattern.edges, either end first) folds by rho[k] of inner vertex
    (i, j).  A cut crease is the left column's R crease.  Any other
    (kind, a, b), a boundary edge among them, is refused with ValueError."""
    (r1, c1), (r2, c2) = a, b
    if kind == "col" and c1 == c2 and abs(r1 - r2) == 1 and 1 <= c1 <= n:
        r = min(r1, r2)
        if 0 <= r < m:
            return r, c1 - 1, 0                # U crease of (r, c-1)
        if r == m:
            return m - 1, c1 - 1, 2            # bottom stub
    if kind == "row" and r1 == r2 and abs(c1 - c2) == 1 and 1 <= r1 <= m:
        c = min(c1, c2)
        if c == 0:
            return r1 - 1, 0, 1                # left stub
        if 0 < c <= n:
            return r1 - 1, c - 1, 3            # R crease of (r-1, c-1)
    raise ValueError(f"{kind} edge {a}-{b} is not a crease of the {m}x{n} "
                     f"grid")


def _walk(p: QuadPattern, branches, ts) -> tuple:
    """Solve every vertex of the tree at each driving angle of `ts`:
    (sols, refused).  `refused` maps the index in `ts` of each angle a
    vertex refuses to the OutOfDomain naming the first such vertex in the
    walk's order, which is what a walk of that angle alone raises; `sols`
    is an m x n grid of solution lists over the other angles, in order.

    Top row first, then row by row, each vertex is driven once
    (`vertex._drive`) over the incoming angles the walk has not solved yet.
    A blanket stitched from a few units asks the same vertex question many
    times, so each distinct (sector angles, crease, angle, branch) is
    solved once per walk.  Next to those solutions the memo keeps the
    parameters `_drive` inverted at a bisected crease, so an angle whose
    negation was driven earlier in the walk takes the mirrored parameter.

    Below the top row a column whose vertices and branches repeat an
    earlier column's, driven by the same top-row c3 angles, asks exactly
    that column's questions: it takes the earlier column's solution list
    itself, row by row, and keeps sharing it to the end.  Whatever such a
    twin would refuse its earlier column refuses first in the same row, so
    every refusal is the one of the plain walk.
    """
    memo, refused, live = {}, {}, range(len(ts))
    twin = range(p.n)  # column j's rows below the top are twin[j]'s
    # the driving angle folds the top-left vertex's left crease: the walk
    # reads it as the c4 angle of a vertex left of the blanket
    left = [VertexSolution((0.0, 0.0, 0.0, t), None) for t in ts]
    sols = [[None] * p.n for _ in range(p.m)]
    for i in range(p.m):
        if i == 1:
            twin = _twins(p, branches, sols[0])
        for j in range(p.n):
            if twin[j] != j:
                sols[i][j] = sols[i][twin[j]]
                continue
            if i:
                crease, src, k = 1, sols[i - 1][j], 2
            else:
                crease, src, k = 2, sols[0][j - 1] if j else left, 3
            v, branch = p.vertices[i][j], branches[i][j]
            known, inverted = memo.setdefault((v.alpha, crease, branch),
                                              ({}, {}))
            col = sols[i][j] = []
            for s in src:
                sol = known.get(s.rho[k])
                if sol is None:
                    break
                col.append(sol)
            else:
                continue
            angles = [s.rho[k] for s in src]
            new = [a for a in dict.fromkeys(angles) if a not in known]
            bad = {}
            for a, out in zip(new, _drive(v, crease, new, branch,
                                            inverted)):
                if type(out) is tuple:
                    known[a] = VertexSolution(out, branch)
                else:
                    where = "top-row vertex" if i == 0 else "vertex"
                    bad[a] = OutOfDomain(f"{where} ({i},{j}): {out}")
                    bad[a].__cause__ = out
            if bad:  # refused angles leave the walk, here and upstream
                refused.update((at, bad[a]) for at, a in zip(live, angles)
                               if a in bad)
                keep = [a not in bad for a in angles]
                live = list(itertools.compress(live, keep))
                angles = list(itertools.compress(angles, keep))
                kept = {}  # by list: twins go on sharing theirs
                sols = [[kept.setdefault(id(c), c and list(
                             itertools.compress(c, keep))) for c in row]
                        for row in sols]
            sols[i][j] = [known[a] for a in angles]
    return sols, refused


def _twins(p: QuadPattern, branches, top) -> list:
    """For each column j, the first column whose vertices and branches
    below the top row are j's and whose top-row vertex sends down the same
    c3 angles (the walk's solution lists `top`)."""
    cols = list(zip(*p.vertices[1:], *branches[1:]))
    down = [[s.rho[2] for s in sols] for sols in top]
    firsts, twin = [], []
    for j in range(p.n):
        r = next((r for r in firsts
                  if down[r] == down[j] and cols[r] == cols[j]), j)
        if r == j:
            firsts.append(j)
        twin.append(r)
    return twin


def _propagation(tree: TreeStructure, t: float, sols, k: int) -> Propagation:
    """Frame k, driven by t, of a walk's grid of solution lists `sols`."""
    g = tuple(tuple(c[k] for c in row) for row in sols)
    return Propagation(t, g, tuple(((i, j), g[i][j].rho[3], g[i][j + 1].rho[1])
                                   for i, j in tree.cut_creases))


def propagate(tree: TreeStructure, driving: float,
              branch_choice: BranchChoice = None) -> Propagation:
    """Solve every vertex of the tree from the driving angle: the fold
    angle of the top-left vertex's left crease.

    This is the walk (`_walk`) of the one angle, with its refusal: a
    vertex that cannot be driven is named in an `OutOfDomain`.
    """
    p, t = tree.pattern, float(driving)
    sols, refused = _walk(p, _branch_grid(p, branch_choice), (t,))
    if refused:
        raise refused[0]
    return _propagation(tree, t, sols, 0)


def _finite_or_none(x: float):
    """x, or None (JSON null) where x is infinite or NaN."""
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class CompatibilityReport:
    """Certification result over a sampled closed driving interval."""

    interval: tuple
    samples: tuple
    residuals: tuple          # per sample: max |theta - phi| over cuts
    per_cut: tuple            # ((i, j), residual series over the samples)
    max_residual: float
    verdict: bool
    reason: str
    branch_choice: object = field(repr=False, default=None)

    def summary(self) -> str:
        lo, hi = self.interval
        lines = [
            "rigid-foldable: " + ("yes" if self.verdict else "no"),
            f"certified driving interval: [{math.degrees(lo):.6g}, "
            f"{math.degrees(hi):.6g}] deg ({len(self.samples)} samples)",
            f"max |theta - phi| residual: {self.max_residual:.3e} rad",
        ]
        if not self.verdict:
            lines.append(f"reason: {self.reason}")
        for (i, j), series in self.per_cut:
            worst = max(series) if series else 0.0
            lines.append(f"  cut crease ({i},{j})-({i},{j + 1}): {worst:.3e}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """The report as a JSON object; a residual that is not finite (a
        sample whose propagation failed) is written as null."""
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "interval_deg": [math.degrees(x) for x in self.interval],
            "samples_deg": [math.degrees(x) for x in self.samples],
            "residuals": [_finite_or_none(r) for r in self.residuals],
            "max_residual": _finite_or_none(self.max_residual),
            "per_cut": [
                {
                    "cut": list(c),
                    "max_residual": _finite_or_none(
                        max(series) if series else 0.0),
                    "residuals": [_finite_or_none(r) for r in series],
                }
                for c, series in self.per_cut
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)


def _probes(tree, ts, branches) -> list:
    """Each driving angle of `ts` as a driving-limit probe, from one walk:
    the largest |rho| of its fold angles, or None where the walk refuses
    it.  The angle passes (`_passes`) when the walk solves it and no fold
    angle is within `PI_MARGIN` of the fully-flat +-pi.

    Angles at exactly +-pi have an ambiguous sign representation, which
    would flip downstream inversions, so the certified interval stops a
    representational margin short of any crease folding completely flat.
    """
    sols, refused = _walk(tree.pattern, branches, ts)
    distinct = {id(c): c for row in sols for c in row}  # twins share theirs
    tops = iter([max(abs(x) for sol in at for x in sol.rho)
                 for at in zip(*distinct.values())])
    return [None if k in refused else next(tops) for k in range(len(ts))]


def _passes(top) -> bool:
    return top is not None and top <= PROBE_LIMIT


def _guide(good: float, bad: float, tops: dict) -> float:
    """Where the largest |rho| of the fold angles reaches `PROBE_LIMIT`,
    as a driving-limit search's bracket [good, bad] suggests: by regula
    falsi between its ends where the largest |rho| at bad is known (bad
    failed by the margin), otherwise by the secant through good and the
    nearest known point below it; just below bad where that secant does
    not rise.  `tops` holds the largest |rho| (None where refused) of the
    points decided so far, good among them."""
    if tops.get(bad) is not None:
        t0, t1 = good, bad
    else:
        t0, t1 = max((t for t, f in tops.items()
                      if t < good and f is not None), default=good), good
    f0, f1 = tops[t0], tops[t1]
    if f1 <= f0:
        return math.nextafter(bad, 0.0)
    return t0 + (PROBE_LIMIT - f0) * (t1 - t0) / (f1 - f0)


def _driving_limit(tree, branches) -> float:
    """t_max: `vertex.last_valid` with 48 scan steps over the one-angle
    case of `_probes`.  Every point that search evaluates is evaluated and
    every decision it makes is made, in order, but many points share a walk.

    A batch is the path the search would take if each point t passed
    exactly when t <= g, for the guide g (`_guide`) of the search's
    bracket.  One walk (`_probes`) evaluates the whole path, since it gives
    each angle the outcome a walk of that angle alone gives; the search
    then takes the outcomes in order, up to and including the first that
    contradicts its prediction.  So the guide sets how many points share a
    walk and never which side a point takes.

    The first batch is pi and the first two scan steps.  After a batch whose
    predictions all held the next is twice as long; after one that went
    wrong it is one point longer than the run of right predictions.  So a
    walk decides at least one point, and the points wasted past wrong
    predictions never outnumber the points decided: at most twice the
    plain search's evaluations, in at most as many walks, whatever the
    guide says.  A bisecting batch is cut shorter where the guide has
    moved since the last batch: taking that move as its error, the batch
    ends three midpoints after the halvings that narrow the bracket to it.
    """
    search = _LimitSearch(48)
    tops = {0.0: 0.0}  # the flat state
    size, g = 3, None
    while search.point is not None:
        g, last = _guide(search.good, search.bad, tops), g
        n = size
        if search.step is None and last is not None and g != last:
            reach = (search.bad - search.good) / abs(g - last)
            n = min(n, 3 + max(0, int(math.log2(reach))))
        path, ahead = [], copy.copy(search)
        while len(path) < n and ahead.point is not None:
            path.append(ahead.point)
            ahead.decide(ahead.point <= g)
        run = 0
        for t, top in zip(path, _probes(tree, path, branches)):
            tops[t] = top
            holds = _passes(top)
            search.decide(holds)
            if holds != (t <= g):
                size = run + 1
                break
            run += 1
        else:
            size = 2 * run
    return search.good


def certify(p: QuadPattern, branch_choice: BranchChoice = None,
            n_samples: int = DEFAULT_SAMPLES) -> CompatibilityReport:
    """Certify rigid-foldability by sampled tree propagation.

    The driving angle sweeps the symmetric closed interval [-t_max, t_max]
    (endpoints included).  t_max is the result of the plain driving-limit
    search, `vertex.last_valid` with 48 scan steps over the one-angle case
    of `_probes` (the walk succeeds and no fold angle is within `PI_MARGIN`
    of +-pi); a probe can fail below t_max, so t_max is where that search's
    decisions end, and `_driving_limit` replays them from batched walks.
    A t_max of at most `TAU_EMPTY` is refused with EmptyInterval.  The
    verdict is positive only when propagation succeeded at every sample
    and every cut-crease residual stays below `TAU_COMPAT`.

    Reports are memoised on the pattern, by branch grid and `n_samples`:
    the pattern and the report are immutable, so asking again returns the
    same report object.  A refusal is not memoised.  An `n_samples` that
    is not an integer of at least 2 (a bool is not one) is refused with
    ValueError before any propagation runs.
    """
    check_count(n_samples, 2, "n_samples must be >= 2")
    branches = _branch_grid(p, branch_choice)
    key = (branches, n_samples)
    report = p.certified.get(key)
    if report is None:
        report = p.certified[key] = _certify(p, branches, n_samples)
    return report


def _certify(p: QuadPattern, branches, n_samples: int) -> CompatibilityReport:
    tree = build_tree(p)
    t_max = _driving_limit(tree, branches)
    if t_max <= TAU_EMPTY:
        raise EmptyInterval(
            "no driving interval: the tree cannot move away from the "
            "trivial state on these branches"
        )

    grid = symmetric_grid(t_max, n_samples)
    cuts = tree.cut_creases
    sols, refused = _walk(p, branches, grid)
    # twin columns share their solution lists, and so their cuts' series
    keys = [(id(sols[i][j]), id(sols[i][j + 1])) for i, j in cuts]
    series = {}
    for (i, j), key in zip(cuts, keys):
        if key not in series:
            series[key] = [abs(normalize_angle(theta.rho[3] - phi.rho[1]))
                           for theta, phi in zip(sols[i][j], sols[i][j + 1])]
    verdict, reason = not refused, "ok"
    for k in sorted(refused):  # a refused sample's residuals are infinite
        for rs in series.values():
            rs.insert(k, math.inf)
        reason = (f"propagation failed at driving angle {grid[k]!r}: "
                  f"{refused[k]}")
    # the last series (0, inf where refused) shows only without cuts
    residuals = [max(rs) for rs in zip(*series.values(), (
        math.inf if k in refused else 0.0 for k in range(n_samples)))]
    shared = {key: tuple(rs) for key, rs in series.items()}
    finite = [r for r in residuals if math.isfinite(r)]
    max_res = max(finite) if finite else math.inf
    if verdict and max_res >= TAU_COMPAT:
        verdict = False
        reason = (f"cut-crease residual {max_res:.3e} exceeds "
                  f"tolerance {TAU_COMPAT:.1e}")
    return CompatibilityReport(
        interval=(-t_max, t_max),
        samples=tuple(grid),
        residuals=tuple(residuals),
        per_cut=tuple((cut, shared[key]) for cut, key in zip(cuts, keys)),
        max_residual=max_res,
        verdict=verdict,
        reason=reason,
        branch_choice=branches,
    )


def enumerate_branch_choices(p: QuadPattern):
    """All per-column-uniform branch grids built from each column's units.

    Yields the cartesian product of the columns' branch chains (see
    `branch_chains`) as full branch grids, in a fixed order; a pattern
    without a plan yields its default assignment.
    """
    if p.plan is None:
        per_column = [[tuple(p.branch_default[i][j] for i in range(p.m))]
                      for j in range(p.n)]
    else:
        per_column = branch_chains(p.plan)
    for chains in itertools.product(*per_column):
        yield tuple(tuple(chain[i] for chain in chains) for i in range(p.m))


def mv_letter(angle: float) -> str:
    """Positive folding angles are valleys ("V"), negative mountains ("M"),
    magnitudes below `TAU_FLAT` are flat ("F")."""
    if abs(angle) < TAU_FLAT:
        return "F"
    return "V" if angle > 0 else "M"


def mv_assignment(p: QuadPattern, branch_choice: BranchChoice = None,
                  sample_rho: float = None) -> dict:
    """Mountain/valley/flat labels (`mv_letter`) for every crease at one
    driving angle; boundary edges get "B".

    Requires a certified pattern to be meaningful - the caller picks a
    sample angle inside the certified interval.
    """
    if sample_rho is None:
        raise ValueError("mv_assignment needs a sample driving angle")
    prop = propagate(build_tree(p), sample_rho, branch_choice)
    return {
        (a, b): "B" if kind == "boundary"
        else mv_letter(prop.edge_angle(kind, a, b))
        for kind, a, b in p.edges()
    }
