import io
import math

import pytest

from netrobust import experiments, generators
from netrobust.errors import ResourceGuardError
from netrobust.experiments import (
    ER_EXACT_LIMIT,
    SweepRecord,
    SweepSpec,
    _evaluate,
    binomial_ci_halfwidth,
    gnuplot_script,
    half_crossing,
    run_ba_trials,
    run_er_sweep,
    run_geometric_sweep,
    threshold_p,
)
from netrobust.generators import ER_NODE_LIMIT, PA_NODE_LIMIT, RngSeed, graph_from_pair_mask, pair_uniforms, rng_for
from netrobust.graph import min_degree
from netrobust.io import read_records, write_records
from netrobust.robustness import DEFAULT_NODE_LIMIT, SUBSET_ENUM_LIMIT


def by_prop(records, offset_or_param=None):
    out = {}
    for rec in records:
        key = rec.property if offset_or_param is None else (rec.param, rec.property)
        out[key] = rec
    return out


# --- scalar helpers -----------------------------------------------------------


def test_threshold_values():
    assert threshold_p(1000, 2) == 0.008840400012898202
    assert threshold_p(20, 1) == math.log(20) / 20
    # each extra robustness level adds one ln ln n term
    assert threshold_p(50, 3) - threshold_p(50, 2) == pytest.approx(
        math.log(math.log(50)) / 50
    )
    with pytest.raises(ValueError, match="at least 3"):
        threshold_p(2, 1)


def test_ci_halfwidth():
    assert binomial_ci_halfwidth(0.5, 100) == pytest.approx(0.098)
    assert binomial_ci_halfwidth(0.0, 50) == 0.0
    assert binomial_ci_halfwidth(0.25, 300) == pytest.approx(
        1.96 * math.sqrt(0.25 * 0.75 / 300)
    )


def test_half_crossing_linear_case():
    x, se = half_crossing([(0.0, 0.2, 100), (1.0, 0.8, 100)])
    assert x == pytest.approx(0.5)
    # both endpoints carry se 0.04 and slope sensitivity 0.3/0.36
    point_se = math.sqrt(0.2 * 0.8 / 100)
    assert se == pytest.approx(math.hypot(0.3 / 0.36 * point_se, 0.3 / 0.36 * point_se))


def test_half_crossing_picks_the_bracket():
    pts = [(-2.0, 0.1, 50), (0.0, 0.4, 50), (2.0, 0.9, 50), (4.0, 1.0, 50)]
    x, se = half_crossing(pts)
    assert 0.0 < x < 2.0
    assert x == pytest.approx(0.0 + 2.0 * 0.1 / 0.5)
    assert se > 0


def test_half_crossing_requires_a_crossing():
    with pytest.raises(ValueError, match="no 0.5 crossing"):
        half_crossing([(0.0, 0.6, 10), (1.0, 0.9, 10)])
    with pytest.raises(ValueError, match="no 0.5 crossing"):
        half_crossing([(0.0, 0.1, 10), (1.0, 0.4, 10)])


# --- specs and records ----------------------------------------------------------


def test_spec_validation():
    spec = SweepSpec("erdos_renyi", 10, 2, 5, 7)
    assert spec.base_seed == RngSeed(7)
    with pytest.raises(ValueError, match="family"):
        SweepSpec("watts_strogatz", 10, 2, 5, 7)
    with pytest.raises(ValueError, match="trials"):
        SweepSpec("erdos_renyi", 10, 2, 0, 7)
    with pytest.raises(ValueError, match="unknown property"):
        SweepSpec("erdos_renyi", 10, 2, 5, 7, properties=("clustering",))
    with pytest.raises(ValueError, match="cap must be positive"):
        SweepSpec("erdos_renyi", 10, 2, 5, 7, properties=("s_property:0",))
    SweepSpec("erdos_renyi", 10, 2, 5, 7, properties=("s_property:3",))
    # int() would take these; a cap is ASCII decimal digits only, so that a
    # property name is one word in the gnuplot script's list
    for cap in (" 3", "3 ", "+3", "3_0", "\u0663", "", "x"):
        with pytest.raises(ValueError, match="ASCII decimal digits"):
            SweepSpec("erdos_renyi", 10, 2, 5, 7, properties=(f"s_property:{cap}",))


def test_record_validation():
    with pytest.raises(ValueError, match="estimate"):
        SweepRecord("erdos_renyi", 10, 2, 0.5, "r_robust", 1.5, 0.0, 10, 0, 9)
    with pytest.raises(ValueError, match="trials"):
        SweepRecord("erdos_renyi", 10, 2, 0.5, "r_robust", 0.5, 0.0, 0, 0, 9)


# --- runners ---------------------------------------------------------------------


def test_er_sweep_shape_and_laws():
    spec = SweepSpec("erdos_renyi", 8, 2, 40, RngSeed(5))
    records = run_er_sweep(spec)
    assert len(records) == 5 * 3
    assert all(rec.n_or_l == 8 and rec.trials == 40 for rec in records)
    assert all(rec.seed_lo == 0 and rec.seed_hi == 39 for rec in records)
    cells = {(rec.flags, rec.property): rec.estimate for rec in records}
    params = sorted({rec.param for rec in records})
    flags_by_param = {rec.param: rec.flags for rec in records}
    # per-point implication chain, weakest property on top
    for param in params:
        flags = flags_by_param[param]
        assert (
            cells[flags, "r_robust"]
            <= cells[flags, "r_connected"]
            <= cells[flags, "min_degree_r"]
        )
    # coupled sampling makes every property monotone in p
    for prop in ("min_degree_r", "r_connected", "r_robust"):
        ests = [cells[flags_by_param[param], prop] for param in params]
        assert ests == sorted(ests)


def test_er_sweep_determinism_and_clamping():
    spec = SweepSpec("erdos_renyi", 8, 2, 10, RngSeed(5), offsets=(-8.0, 0.0, 8.0))
    a = run_er_sweep(spec)
    assert a == run_er_sweep(spec)
    low = [r for r in a if r.flags.startswith("x=-8.0")]
    high = [r for r in a if r.flags.startswith("x=8.0")]
    assert all(r.param == 0.0 and r.flags.endswith(";clamped") for r in low)
    assert all(r.param == 1.0 and r.flags.endswith(";clamped") for r in high)
    assert all(r.estimate == 0.0 for r in low)
    assert all(r.estimate == 1.0 for r in high)


def test_er_sweep_guards():
    big = SweepSpec("erdos_renyi", ER_EXACT_LIMIT + 1, 2, 5, 1)
    with pytest.raises(ValueError, match="n <= 22"):
        run_er_sweep(big)
    # dropping the robustness property lifts the restriction
    records = run_er_sweep(
        SweepSpec(
            "erdos_renyi",
            ER_EXACT_LIMIT + 1,
            2,
            3,
            1,
            offsets=(0.0,),
            properties=("min_degree_r", "r_connected"),
        )
    )
    assert len(records) == 2
    with pytest.raises(ValueError, match="must be erdos_renyi"):
        run_er_sweep(SweepSpec("preferential", 10, 2, 5, 1))


def reference_er_sweep(spec):
    """The evaluate-every-offset loop: a Graph per offset per trial, every
    property evaluated on it, offsets in the order given."""
    n = int(spec.n_or_l)
    t = threshold_p(n, spec.r)
    points = []
    for x in spec.offsets:
        raw = t + float(x) / n
        p = min(1.0, max(0.0, raw))
        points.append((float(x), p, p != raw))
    counts = {(i, prop): 0 for i in range(len(points)) for prop in spec.properties}
    for k in range(spec.trials):
        u = pair_uniforms(n, rng_for(spec.base_seed.child(k)))
        for i, (_, p, _) in enumerate(points):
            g = graph_from_pair_mask(n, u < p)
            for prop in spec.properties:
                if _evaluate(prop, g, spec.r):
                    counts[i, prop] += 1
    records = []
    for i, (x, p, clamped) in enumerate(points):
        for prop in spec.properties:
            e = counts[i, prop] / spec.trials
            records.append(
                SweepRecord(
                    spec.family, n, spec.r, p, prop, e, binomial_ci_halfwidth(e, spec.trials),
                    spec.trials, spec.base_seed.stream, spec.base_seed.stream + spec.trials - 1,
                    f"x={x!r}" + (";clamped" if clamped else ""),
                )
            )
    return records


# Unsorted, duplicated and clamped (both ends) offsets.
MIXED_OFFSETS = (2.0, -4.0, 0.0, 2.0, -1000.0, 1.5, 1000.0, -1.0)
ALL_KINDS = ("r_robust", "min_degree_r", "s_property:3", "r_connected")


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize(
    "n, trials, properties",
    [
        (10, 30, ALL_KINDS),
        (12, 15, ALL_KINDS),
        (200, 3, ("min_degree_r", "r_connected")),
    ],
)
def test_er_sweep_matches_the_evaluate_every_offset_loop(n, trials, properties, r):
    spec = SweepSpec(
        "erdos_renyi", n, r, trials, RngSeed(31, n + r), offsets=MIXED_OFFSETS, properties=properties
    )
    assert run_er_sweep(spec) == reference_er_sweep(spec)


def test_er_sweep_builds_and_evaluates_only_undecided_work(monkeypatch):
    builds, evaluations = [], []
    real_build, real_evaluate = experiments._graph_from_ends, experiments._evaluate

    def build(n, iu, ju):
        builds.append(real_build(n, iu, ju))
        return builds[-1]

    def evaluate(prop, g, r):
        evaluations.append((prop, real_evaluate(prop, g, r)))
        return evaluations[-1][1]

    monkeypatch.setattr(experiments, "_graph_from_ends", build)
    monkeypatch.setattr(experiments, "_evaluate", evaluate)
    spec = SweepSpec("erdos_renyi", 12, 2, 20, RngSeed(3), offsets=MIXED_OFFSETS, properties=ALL_KINDS)
    run_er_sweep(spec)
    # no Graph below minimum degree r, and min_degree_r needs none at all
    assert builds and all(min_degree(g) >= 2 for g in builds)
    assert {prop for prop, _ in evaluations} == set(ALL_KINDS) - {"min_degree_r"}
    # once a property holds in a trial it is not evaluated again
    for prop in ("r_robust", "s_property:3", "r_connected"):
        assert sum(ok for q, ok in evaluations if q == prop) <= spec.trials


def test_er_sweep_without_offsets_has_no_records():
    assert run_er_sweep(SweepSpec("erdos_renyi", 10, 2, 3, 1, offsets=())) == []


def _refuse_sampling(monkeypatch, name):
    def no_sampling(*args):
        raise AssertionError("a trial was sampled")

    monkeypatch.setattr(experiments, name, no_sampling)


def test_er_sweep_guards_fire_before_sampling(monkeypatch):
    _refuse_sampling(monkeypatch, "_pairs_below")
    # every offset clamps to p = 0, where no property would be evaluated
    empty = dict(offsets=(-1000.0,), trials=2)
    n = SUBSET_ENUM_LIMIT + 1
    with pytest.raises(ResourceGuardError, match="subset enumeration"):
        run_er_sweep(SweepSpec("erdos_renyi", n, 2, base_seed=1, properties=("s_property:2",), **empty))
    with pytest.raises(ValueError, match="cap must be between"):
        run_er_sweep(SweepSpec("erdos_renyi", 10, 2, base_seed=1, properties=("s_property:10",), **empty))
    n = DEFAULT_NODE_LIMIT + 1
    with pytest.raises(ValueError, match=f"n <= {n - 1}"):
        run_er_sweep(
            SweepSpec("erdos_renyi", n, 2, base_seed=1, properties=("r_robust",), exact_limit=n - 1, **empty)
        )


def test_er_sweep_r1_robustness_needs_no_cut_search_guard():
    n = DEFAULT_NODE_LIMIT + 1
    spec = SweepSpec(
        "erdos_renyi", n, 1, 4, 1, offsets=(-2.0, 3.0), properties=("r_robust",), exact_limit=n
    )
    assert run_er_sweep(spec) == reference_er_sweep(spec)


# Every ER sweep the tests run, criterion 07's and the CLI's included.
TESTED_ER_SPECS = [
    SweepSpec("erdos_renyi", 20, 2, 500, RngSeed(20260814)),
    SweepSpec("erdos_renyi", 1000, 2, 500, RngSeed(20260815), properties=("min_degree_r", "r_connected")),
    SweepSpec("erdos_renyi", 8, 2, 40, RngSeed(5)),
    SweepSpec("erdos_renyi", 8, 2, 10, RngSeed(5), offsets=(-8.0, 0.0, 8.0)),
    SweepSpec("erdos_renyi", 8, 2, 10, 4, offsets=(-2.0, 0.0, 2.0)),
    SweepSpec("erdos_renyi", 6, 1, 2, 0),
    SweepSpec("erdos_renyi", ER_EXACT_LIMIT + 1, 2, 3, 1, offsets=(0.0,), properties=("min_degree_r", "r_connected")),
    SweepSpec("erdos_renyi", 12, 2, 20, RngSeed(3), offsets=MIXED_OFFSETS, properties=ALL_KINDS),
    SweepSpec("erdos_renyi", DEFAULT_NODE_LIMIT + 1, 1, 4, 1, offsets=(-2.0, 3.0), properties=("r_robust",),
              exact_limit=DEFAULT_NODE_LIMIT + 1),
    *(
        SweepSpec("erdos_renyi", n, r, trials, RngSeed(31, n + r), offsets=MIXED_OFFSETS, properties=properties)
        for n, trials, properties in [(10, 30, ALL_KINDS), (12, 15, ALL_KINDS), (200, 3, ("min_degree_r", "r_connected"))]
        for r in (1, 2, 3)
    ),
]


def test_er_sweep_records_do_not_depend_on_the_draw_split(monkeypatch):
    # the helper thread draws the second half of each trial's stream when the
    # split is on; the records must be those of a one-thread draw
    monkeypatch.setattr(generators, "_usable_cpus", lambda: 2)
    records = {}
    for split_pairs in (0, ER_NODE_LIMIT**2):
        monkeypatch.setattr(generators, "_SPLIT_PAIRS", split_pairs)
        records[split_pairs] = [run_er_sweep(spec) for spec in TESTED_ER_SPECS]
    assert records[0] == records[ER_NODE_LIMIT**2]


def test_geometric_sweep():
    spec = SweepSpec(
        "geometric1d", 6.0, 2, 25, RngSeed(9), offsets=((4.0, 6.5), (4.0, 3.0))
    )
    records = run_geometric_sweep(spec)
    # three requested properties plus the two always-on structure rates
    assert len(records) == 2 * 5
    assert {rec.property for rec in records} >= {
        "connectivity_equals_robustness",
        "spread_exceeds_3rho",
    }
    first = [rec for rec in records if rec.param == "k=4.0;rho=6.5"]
    assert first and all(rec.flags == "n=7" for rec in first)
    assert all(0.0 <= rec.estimate <= 1.0 for rec in records)
    assert records == run_geometric_sweep(spec)


def test_geometric_sweep_validation():
    with pytest.raises(ValueError, match="side length"):
        run_geometric_sweep(SweepSpec("geometric1d", 1.0, 2, 5, 1, offsets=((1.0, 1.0),)))
    with pytest.raises(ValueError, match="yields n="):
        run_geometric_sweep(SweepSpec("geometric1d", 2.0, 2, 5, 1, offsets=((0.5, 4.0),)))
    with pytest.raises(ValueError, match="n <= 22"):
        run_geometric_sweep(SweepSpec("geometric1d", 20.0, 2, 5, 1, offsets=((4.0, 1.0),)))


def test_ba_trials():
    spec = SweepSpec("preferential", 12, 2, 15, RngSeed(3))
    records = run_ba_trials(spec)
    assert len(records) == 3
    assert {rec.property: rec.estimate for rec in records}["r_robust"] == 1.0
    assert all(rec.param == "" for rec in records)


def _count_evaluations(monkeypatch):
    evaluations = []
    real_evaluate = experiments._evaluate

    def evaluate(prop, g, r):
        evaluations.append(prop)
        return real_evaluate(prop, g, r)

    monkeypatch.setattr(experiments, "_evaluate", evaluate)
    return evaluations


def test_ba_trials_evaluate_a_repeated_property_once(monkeypatch):
    evaluations = _count_evaluations(monkeypatch)
    props = ("r_robust", "min_degree_r", "r_robust")
    records = run_ba_trials(SweepSpec("preferential", 12, 2, 6, RngSeed(3), properties=props))
    assert [rec.property for rec in records] == list(props)
    assert evaluations.count("r_robust") == 6 and evaluations.count("min_degree_r") == 6
    single = run_ba_trials(SweepSpec("preferential", 12, 2, 6, RngSeed(3), properties=("r_robust",)))
    assert records[0] == records[2] == single[0]
    assert records[0].estimate == 1.0


def test_ba_trials_raise_the_node_guard_before_the_first_trial(monkeypatch):
    sampled = []
    monkeypatch.setattr(experiments, "gen_preferential", lambda *args: sampled.append(args))
    # r_robust would also trip exact_limit, an input error, so the guard comes first
    spec = SweepSpec("preferential", PA_NODE_LIMIT + 1, 2, 3, RngSeed(3), properties=("r_robust", "min_degree_r"))
    with pytest.raises(ResourceGuardError, match=f"n={PA_NODE_LIMIT + 1} exceeds the guard PA_NODE_LIMIT"):
        run_ba_trials(spec)
    assert not sampled


def test_geometric_sweep_evaluates_a_repeated_property_once(monkeypatch):
    evaluations = _count_evaluations(monkeypatch)
    point = ((4.0, 3.0),)
    props = ("r_connected", "r_connected")
    records = run_geometric_sweep(SweepSpec("geometric1d", 6.0, 2, 8, RngSeed(9), offsets=point, properties=props))
    assert evaluations == ["r_connected"] * 8
    single = run_geometric_sweep(
        SweepSpec("geometric1d", 6.0, 2, 8, RngSeed(9), offsets=point, properties=props[:1])
    )
    assert records[:2] == [single[0], single[0]] and records[2:] == single[1:]
    assert 0.0 < records[0].estimate < 1.0


def test_geometric_sweep_guards_fire_before_sampling(monkeypatch):
    _refuse_sampling(monkeypatch, "gen_geometric")
    # the points have n = 7 and n = 28; only the second trips a guard
    points = dict(offsets=((1.0, 0.2), (4.0, 0.2)), trials=50)
    with pytest.raises(ValueError, match="n <= 22"):
        run_geometric_sweep(SweepSpec("geometric1d", 2.0, 2, base_seed=1, properties=("r_robust",), **points))
    # robustness is always recorded, so exact_limit binds even without r_robust
    with pytest.raises(ValueError, match="n <= 27"):
        run_geometric_sweep(SweepSpec("geometric1d", 2.0, 1, base_seed=1, properties=(), exact_limit=27, **points))
    with pytest.raises(ValueError, match="cap must be between"):
        run_geometric_sweep(SweepSpec("geometric1d", 2.0, 2, base_seed=1, properties=("s_property:10",), **points))


def test_ba_trials_guards_fire_before_sampling(monkeypatch):
    _refuse_sampling(monkeypatch, "gen_preferential")
    with pytest.raises(ValueError, match="cap must be between"):
        run_ba_trials(SweepSpec("preferential", 20, 2, 3, 1, properties=("r_robust", "s_property:30")))
    with pytest.raises(ValueError, match="n <= 22"):
        run_ba_trials(SweepSpec("preferential", 23, 2, 3, 1, properties=("r_robust",)))
    n = DEFAULT_NODE_LIMIT + 1
    with pytest.raises(ValueError, match=f"n <= {n - 1}"):
        run_ba_trials(SweepSpec("preferential", n, 2, 3, 1, properties=("r_robust",), exact_limit=n - 1))
    with pytest.raises(ResourceGuardError, match="subset enumeration"):
        run_ba_trials(SweepSpec("preferential", SUBSET_ENUM_LIMIT + 1, 2, 3, 1, properties=("s_property:2",)))


def test_ba_trials_exact_limit_is_the_only_limit():
    # exact_limit alone bounds a sweep; certified bounds decide these graphs
    spec = SweepSpec("preferential", 200, 3, 20, 1, properties=("r_robust",), exact_limit=200)
    assert [rec.estimate for rec in run_ba_trials(spec)] == [1.0]


# --- persistence ------------------------------------------------------------------


def sample_records():
    return [
        SweepRecord("erdos_renyi", 20, 2, 0.1497866136776995, "r_robust", 0.25, 0.08, 100, 0, 99, "x=-2.0"),
        SweepRecord("geometric1d", 6.0, 2, "k=4.0;rho=6.5", "r_connected", 1.0, 0.0, 50, 5, 54, "n=7"),
        SweepRecord("preferential", 12, 3, "", "min_degree_r", 0.5, 0.098, 10, 0, 9),
    ]


@pytest.mark.parametrize("format", ["csv", "structured"])
def test_records_round_trip(tmp_path, format):
    path = tmp_path / f"records.{format}"
    write_records(sample_records(), path, format=format)
    assert read_records(path, format=format) == sample_records()


def test_write_records_accepts_file_objects():
    buf = io.StringIO()
    write_records(sample_records(), buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == (
        "family,n_or_l,r,param,property,estimate,ci_halfwidth,trials,seed_lo,seed_hi,flags"
    )
    # full-precision float survives the trip through text
    assert "0.1497866136776995" in text


def test_records_io_errors(tmp_path):
    with pytest.raises(ValueError, match="format"):
        write_records(sample_records(), tmp_path / "x.csv", format="xml")
    with pytest.raises(OSError, match="cannot write records"):
        write_records(sample_records(), tmp_path / "missing" / "x.csv")
    with pytest.raises(OSError, match="cannot read records"):
        read_records(tmp_path / "absent.csv")


def test_gnuplot_script_mentions_everything():
    script = gnuplot_script("out.csv", ("min_degree_r", "r_robust"))
    assert '"out.csv"' in script
    assert "min_degree_r r_robust" in script
    assert "stringcolumn(5)" in script
    assert "yerrorlines" in script
