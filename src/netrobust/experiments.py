"""Monte-Carlo sweeps over the graph families, threshold arithmetic, and
the sweep records they produce (binomial confidence intervals); io.py
reads and writes the records."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connectivity import connectivity_at_least, vertex_connectivity
from .generators import (
    RngSeed,
    _er_guard,
    _graph_from_ends,
    _pa_guard,
    _pair_ends,
    gen_geometric,
    gen_preferential,
    pair_uniforms,
    rng_for,
)
from .graph import min_degree
from .robustness import (
    _subset_guard,
    check_subsets_reachable,
    is_r_robust,
    robustness,
)

# Exact robustness is a branch-and-bound search; sweeps refuse larger n.
ER_EXACT_LIMIT = 22

def threshold_p(n: int, r: int) -> float:
    """(ln n + (r-1) ln ln n) / n, the sharp-threshold scale for minimum
    degree r, r-connectivity, and r-robustness alike."""
    if n < 3:
        raise ValueError("n must be at least 3")
    if r < 1:
        raise ValueError("r must be positive")
    return (math.log(n) + (r - 1) * math.log(math.log(n))) / n


def binomial_ci_halfwidth(estimate: float, trials: int) -> float:
    """Normal-approximation 95% halfwidth for a Bernoulli proportion."""
    return 1.96 * math.sqrt(estimate * (1.0 - estimate) / trials)


def half_crossing(points):
    """Interpolated x where a nondecreasing estimate curve crosses 0.5.

    points: (x, estimate, trials) tuples sorted by x. Returns (x_star, se)
    with a delta-method standard error from the two bracketing estimates.
    """
    for (x1, e1, t1), (x2, e2, t2) in zip(points, points[1:]):
        if e1 < 0.5 <= e2:
            d = e2 - e1
            x_star = x1 + (x2 - x1) * (0.5 - e1) / d
            se1 = math.sqrt(e1 * (1 - e1) / t1)
            se2 = math.sqrt(e2 * (1 - e2) / t2)
            d1 = (x2 - x1) * (0.5 - e2) / (d * d)
            d2 = -(x2 - x1) * (0.5 - e1) / (d * d)
            return x_star, math.hypot(d1 * se1, d2 * se2)
    raise ValueError("no 0.5 crossing in the given points")


def _parse_property(name: str):
    if name in ("min_degree_r", "r_connected", "r_robust"):
        return name, None
    if name.startswith("s_property:"):
        digits = name.split(":", 1)[1]
        if not (digits.isascii() and digits.isdigit()) or int(digits) < 1:
            raise ValueError(f"s_property cap must be positive, in ASCII decimal digits: {digits!r}")
        return "s_property", int(digits)
    raise ValueError(f"unknown property {name!r}")


@dataclass(frozen=True)
class SweepSpec:
    family: str
    n_or_l: float
    r: int
    trials: int
    base_seed: RngSeed
    offsets: tuple = (-4.0, -2.0, 0.0, 2.0, 4.0)
    properties: tuple = ("min_degree_r", "r_connected", "r_robust")
    exact_limit: int = ER_EXACT_LIMIT

    def __post_init__(self):
        families = tuple(_FAMILIES)  # a tuple: an unhashable family is refused, not a TypeError
        if self.family not in families:
            raise ValueError(f"family must be one of {families}")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.r < 1:
            raise ValueError("r must be positive")
        if not self.n_or_l > 0:
            raise ValueError("n (or l) must be positive")
        seed = self.base_seed
        if isinstance(seed, int):
            object.__setattr__(self, "base_seed", RngSeed(seed))
        elif not isinstance(seed, RngSeed):
            raise ValueError("base_seed must be an RngSeed or an integer")
        object.__setattr__(self, "offsets", tuple(self.offsets))
        object.__setattr__(self, "properties", tuple(self.properties))
        for prop in self.properties:
            _parse_property(prop)


@dataclass(frozen=True)
class SweepRecord:
    family: str
    n_or_l: object
    r: int
    param: object
    property: str
    estimate: float
    ci_halfwidth: float
    trials: int
    seed_lo: int
    seed_hi: int
    flags: str = ""

    def __post_init__(self):
        if not 0.0 <= self.estimate <= 1.0:
            raise ValueError("estimate must lie in [0, 1]")
        if self.ci_halfwidth < 0:
            raise ValueError("ci_halfwidth must be nonnegative")
        if self.trials < 1:
            raise ValueError("trials must be positive")


def _evaluate(prop: str, g, r: int) -> bool:
    kind, cap = _parse_property(prop)
    if kind == "min_degree_r":
        return min_degree(g) >= r
    if kind == "r_connected":
        return connectivity_at_least(g, r)
    if kind == "r_robust":
        return is_r_robust(g, r, node_limit=None)  # n is held to spec.exact_limit (_guard_sweep)
    return check_subsets_reachable(g, r, cap)


def _record(spec: SweepSpec, n_or_l, param, prop: str, hits: int, flags: str = "") -> SweepRecord:
    """The record of prop holding in hits of spec.trials trials, whose seeds
    are the streams base .. base + trials - 1 of spec.base_seed."""
    e = hits / spec.trials
    lo = spec.base_seed.stream
    return SweepRecord(
        family=spec.family,
        n_or_l=n_or_l,
        r=spec.r,
        param=param,
        property=prop,
        estimate=e,
        ci_halfwidth=binomial_ci_halfwidth(e, spec.trials),
        trials=spec.trials,
        seed_lo=lo,
        seed_hi=lo + spec.trials - 1,
        flags=flags,
    )


def _guard_sweep(spec: SweepSpec, n: int, exact: bool = False) -> None:
    """Raise every size guard a point of n nodes can trip. Each runner calls
    this for every point before it samples a trial, so no guard fires after
    work is done; the degree prefilter and the monotone skip in run_er_sweep
    may never even evaluate the property that would trip it. exact: the
    runner computes robustness whatever the properties. spec.exact_limit is
    the one limit on exact robustness, so the runners lift the node limit."""
    if (exact or "r_robust" in spec.properties) and n > spec.exact_limit:
        raise ValueError(f"exact robustness checks are limited to n <= {spec.exact_limit}")
    for prop in spec.properties:
        kind, cap = _parse_property(prop)
        if kind == "s_property":
            _subset_guard(n, cap)


def run_er_sweep(spec: SweepSpec):
    """Sample G(n, p) at p = threshold + x/n for each offset x, with the
    per-pair uniforms shared across offsets (coupled, so every property is
    monotone in p sample-by-sample). One record per (offset, property), in
    the order of spec.offsets and spec.properties.

    Each trial visits the distinct p values in ascending order and does only
    the work monotonicity leaves undecided:

    - Degrees are counted, and Graphs built, from the ends of the pairs
      present at the highest p. Below minimum degree r every property fails
      (r-robust implies r-connected implies minimum degree r, and a node of
      degree < r is a singleton that is not r-reachable), so no Graph is built.
    - A property that holds at some p holds at every higher p of the same
      trial, so it is counted there without being evaluated, and a Graph is
      built only while some property is still undecided.

    Size guards (exact_limit for r_robust, the subset-enumeration guard for
    s_property) are raised before the first trial is sampled.
    """
    if spec.family != "erdos_renyi":
        raise ValueError("spec family must be erdos_renyi")
    n = int(spec.n_or_l)
    t = threshold_p(n, spec.r)
    _er_guard(n)
    _guard_sweep(spec, n)
    points = []
    for x in spec.offsets:
        raw = t + float(x) / n
        p = min(1.0, max(0.0, raw))
        points.append((float(x), p, p != raw))
    ascending = sorted({p for _, p, _ in points})
    props = tuple(dict.fromkeys(spec.properties))
    counts = {(p, prop): 0 for p in ascending for prop in props}
    for k in range(spec.trials):
        u = pair_uniforms(n, rng_for(spec.base_seed.child(k)))
        # Pairs present at the highest p; every lower p selects among them.
        top = np.flatnonzero(u < max(ascending, default=0.0))
        u_top, (iu_top, ju_top) = u[top], _pair_ends(n, top)
        held = []  # properties that hold at this p, hence at every higher p
        for p in ascending:
            if len(held) < len(props):
                present = u_top < p
                degrees = np.bincount(iu_top[present], minlength=n)
                degrees += np.bincount(ju_top[present], minlength=n)
                if degrees.min() >= spec.r:
                    undecided = [prop for prop in props if prop not in held]
                    g = None
                    if any(prop != "min_degree_r" for prop in undecided):
                        g = _graph_from_ends(n, iu_top[present], ju_top[present])
                    held += [
                        prop
                        for prop in undecided
                        if prop == "min_degree_r" or _evaluate(prop, g, spec.r)
                    ]
            for prop in held:
                counts[p, prop] += 1
    records = []
    for x, p, clamped in points:
        flags = f"x={x!r}" + (";clamped" if clamped else "")
        for prop in spec.properties:
            records.append(_record(spec, n, p, prop, counts[p, prop], flags))
    return records


def run_geometric_sweep(spec: SweepSpec):
    """1-D geometric samples at each (k, radius) point with n = round(k l ln l
    / radius). Beyond the requested properties, always records the
    connectivity = robustness rate and the spread > 3 * radius rate. A
    property listed twice is evaluated once per trial and recorded twice."""
    if spec.family != "geometric1d":
        raise ValueError("spec family must be geometric1d")
    side = float(spec.n_or_l)
    if side <= 1.0:
        raise ValueError("side length must exceed 1")
    points = []
    for k, radius in spec.offsets:
        k = float(k)
        radius = float(radius)
        if k <= 0 or radius <= 0:
            raise ValueError("k and radius must be positive")
        n = round(k * side * math.log(side) / radius)
        if n < 2:
            raise ValueError(f"point (k={k}, radius={radius}) yields n={n} < 2")
        _guard_sweep(spec, n, exact=True)
        points.append((k, radius, n))
    records = []
    for k, radius, n in points:
        extra = ("connectivity_equals_robustness", "spread_exceeds_3rho")
        counts = {prop: 0 for prop in spec.properties + extra}
        for trial in range(spec.trials):
            g, pl = gen_geometric(n, radius, side, 1, spec.base_seed.child(trial))
            if vertex_connectivity(g) == robustness(g, node_limit=None):
                counts["connectivity_equals_robustness"] += 1
            if pl.spread() > 3 * radius:
                counts["spread_exceeds_3rho"] += 1
            for prop in dict.fromkeys(spec.properties):
                if _evaluate(prop, g, spec.r):
                    counts[prop] += 1
        param = f"k={k!r};rho={radius!r}"
        for prop in spec.properties + extra:
            records.append(_record(spec, side, param, prop, counts[prop], f"n={n}"))
    return records


def run_ba_trials(spec: SweepSpec):
    """Preferential-attachment trials at fixed (n, r); expected r_robust rate 1.
    A property listed twice is evaluated once per trial and recorded twice."""
    if spec.family != "preferential":
        raise ValueError("spec family must be preferential")
    n = int(spec.n_or_l)
    _pa_guard(n)
    _guard_sweep(spec, n)
    counts = {prop: 0 for prop in spec.properties}
    for k in range(spec.trials):
        g = gen_preferential(n, spec.r, spec.base_seed.child(k))
        for prop in counts:
            if _evaluate(prop, g, spec.r):
                counts[prop] += 1
    return [_record(spec, n, "", prop, counts[prop]) for prop in spec.properties]


# The one table of sweep families: spec family -> (CLI tag, runner).
_FAMILIES = {
    "erdos_renyi": ("er", run_er_sweep),
    "geometric1d": ("geom", run_geometric_sweep),
    "preferential": ("ba", run_ba_trials),
}


def gnuplot_script(csv_path: str, properties) -> str:
    """A minimal gnuplot script plotting estimate vs. param per property."""
    props = " ".join(properties)
    return "\n".join(
        [
            'set datafile separator ","',
            "set key left top",
            'set xlabel "param"',
            'set ylabel "estimate"',
            "set yrange [-0.05:1.05]",
            f'props = "{props}"',
            "plot for [p in props] "
            f'"{csv_path}" using '
            "(stringcolumn(5) eq p ? column(4) : NaN):6:7 "
            "with yerrorlines title p",
            "pause -1",
        ]
    )
