"""Site evaluation and greedy selection tests.

The engineered suite below has one standing pedestrian per cell, spaced
100 m apart, with detection gates zeroed so a site's coverage is purely
range and field of view.  That makes singleton and fused scores exactly
predictable, and an exhaustive oracle re-simulates every subset with the
loop that confirms while it goes (`oracles.live_run`) rather than the
replay path used in production.  On drawn suites, scores and picks must
equal those of placement scoring every subset by replay
(`oracles.replayed_placement`), which production replaces with one
bisection per scenario.
"""

import itertools
import logging
import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vrusim import placement
from vrusim.aeb import AebPolicy, simulate_run
from vrusim.config import load_config
from vrusim.geometry import Vec2
from vrusim.harness import cell_spec
from vrusim.metrics import natural_key
from vrusim.placement import (
    PlacementResult,
    candidate_sites_from_units,
    evaluate_sites,
    greedy_select,
)
from vrusim.scenario import (
    ActorTrack,
    ScenarioKind,
    ScenarioOverrides,
    ScenarioSpec,
    VruTrack,
    allowed_speeds_kmh,
    build_scenario,
)
from vrusim.sensing import DetectionModel, default_layout, default_vut_sensor, first_confirmed_time

from oracles import live_run, replayed_placement
from sites import rsu

POLICY = AebPolicy()
OPEN_GATES = DetectionModel(min_width_px=0.0, min_height_px=0.0)


def ped_cell(lane_y: float) -> ScenarioSpec:
    vut = ActorTrack(4.5, 1.8, 10.0, (Vec2(-60, lane_y), Vec2(200, lane_y)))
    ped = VruTrack(0.5, 0.5, 0.0, (Vec2(0, lane_y), Vec2(0, lane_y + 1)), height=1.8)
    return ScenarioSpec(
        kind=ScenarioKind.CPNC50,
        vut_track=vut,
        vru_track=ped,
        occluders=(),
        sim_duration=8.0,
        frame_rate=10.0,
    )


SUITE = (ped_cell(0.0), ped_cell(100.0), ped_cell(200.0))

NORTH = math.pi / 2
SITES = candidate_sites_from_units((
    # one dedicated watcher per cell, 15 m south of its pedestrian
    rsu("s0", 0.0, -15.0, 5.0, NORTH, math.radians(-15), max_range=40.0),
    rsu("s1", 0.0, 85.0, 5.0, NORTH, math.radians(-15), max_range=40.0),
    rsu("s2", 0.0, 185.0, 5.0, NORTH, math.radians(-15), max_range=40.0),
    # wide-angle midpoint site covering the first two cells at once;
    # placed off the walking line so neither pedestrian sits at exactly
    # 180 degrees, the one bearing a 359 degree fov excludes
    rsu(
        "s3", 2.0, 50.0, 5.0, NORTH, math.radians(-15),
        hfov=math.radians(359.0), max_range=90.0,
    ),
))


def live_performance(subset):
    """Closed-loop re-evaluation of a subset by the loop that confirms while
    it goes, independent of the replay path."""
    units = tuple(s.to_unit() for s in SITES if s.site_id in subset)
    avoided = 0
    acc_sum = 0.0
    for spec in SUITE:
        if live_run(spec, units, OPEN_GATES, POLICY, subset).avoided:
            avoided += 1
        watch = simulate_run(spec, units, OPEN_GATES, POLICY)
        frames_seen = {ev.frame for evs in watch.events_by_sensor.values() for ev in evs}
        acc_sum += len(frames_seen) / spec.n_frames
    return avoided / len(SUITE), acc_sum / len(SUITE)


def exhaustive_best(budget):
    ids = sorted((s.site_id for s in SITES), key=natural_key)
    best = None
    for r in range(1, budget + 1):
        for combo in itertools.combinations(ids, r):
            perf = live_performance(combo)
            if best is None or perf > best:
                best = perf
    return best


# ---------------------------------------------------------------- validation


def test_candidate_validation():
    with pytest.raises(ValueError):
        rsu("", 0, 0, 5, 0, 0)
    with pytest.raises(ValueError):
        rsu("x", 0, 0, 0.0, 0, 0)
    with pytest.raises(ValueError):
        evaluate_sites((), SUITE, POLICY, OPEN_GATES)
    with pytest.raises(ValueError):
        evaluate_sites(SITES, (), POLICY, OPEN_GATES)
    with pytest.raises(ValueError, match="unique"):
        evaluate_sites((SITES[0], SITES[0]), SUITE, POLICY, OPEN_GATES)
    with pytest.raises(ValueError):
        greedy_select(SITES, 0, SUITE, POLICY, OPEN_GATES)
    with pytest.raises(ValueError):
        PlacementResult(("a",), (0.1, 0.2), 1.0, 1.0)


def test_sites_from_layout_units():
    layout = default_layout()
    sites = candidate_sites_from_units(layout)
    assert len(sites) == 12
    assert sites[0].site_id == "rsu0"
    assert sites[0].to_unit().pose.z == 7.0
    unit = sites[3].to_unit()
    assert unit.mount == "rsu"
    assert unit == layout[3]

    with pytest.raises(ValueError, match="rsu-mounted"):
        candidate_sites_from_units((default_vut_sensor(),))
    with pytest.raises(ValueError, match="at least one"):
        candidate_sites_from_units(())


# ----------------------------------------------------------- designed suite


def test_singleton_scores_match_designed_coverage():
    scores = {s.site_id: s for s in evaluate_sites(SITES, SUITE, POLICY, OPEN_GATES)}
    for sid in ("s0", "s1", "s2"):
        assert scores[sid].avoidance == pytest.approx(1 / 3)
        assert scores[sid].accuracy > 0.2
    assert scores["s3"].avoidance == pytest.approx(2 / 3)
    assert scores["s3"].accuracy > scores["s0"].accuracy


def test_greedy_matches_exhaustive_search():
    for budget in (1, 2, 3):
        result = greedy_select(SITES, budget, SUITE, POLICY, OPEN_GATES)
        assert len(result.selected_site_ids) == budget
        assert (result.avoidance_rate, result.accuracy) == pytest.approx(
            exhaustive_best(budget)
        )


def test_greedy_selection_order_and_tie_break():
    result = greedy_select(SITES, 3, SUITE, POLICY, OPEN_GATES)
    # widest site first, the uncovered cell's watcher second, id tie third
    assert result.selected_site_ids == ("s3", "s2", "s0")
    assert result.marginal_gains[0] == pytest.approx(2 / 3)
    assert result.marginal_gains[1] == pytest.approx(1 / 3)
    assert result.marginal_gains[2] == pytest.approx(0.0)
    assert result.avoidance_rate == pytest.approx(1.0)


def test_gains_non_negative_and_budget_monotone():
    rates = []
    for budget in (1, 2, 3, 4):
        result = greedy_select(SITES, budget, SUITE, POLICY, OPEN_GATES)
        assert all(g >= -1e-12 for g in result.marginal_gains)
        rates.append(result.avoidance_rate)
    assert rates == sorted(rates)


def test_overbudget_selects_all_and_warns(caplog):
    with caplog.at_level(logging.WARNING, logger="vrusim.placement"):
        result = greedy_select(SITES, 9, SUITE, POLICY, OPEN_GATES)
    assert sorted(result.selected_site_ids) == ["s0", "s1", "s2", "s3"]
    assert any("budget" in rec.message for rec in caplog.records)


# ------------------------------------------------------ one observation


def fresh(suite=SUITE, sites=SITES, policy=POLICY, model=OPEN_GATES):
    """Equal copies of the given objects, none of them the object itself."""
    return (
        tuple(replace(spec) for spec in suite),
        tuple(replace(site) for site in sites),
        replace(policy),
        replace(model),
    )


def count_runs(monkeypatch):
    """Wrap `placement.simulate_run`: the observation passes it makes, and
    each replay's (spec, trigger) key in call order."""
    runs = {"passes": 0, "replays": []}

    def counted(spec, units, model, policy, **kwargs):
        if kwargs.get("sense", True):
            runs["passes"] += 1
        else:
            runs["replays"].append((id(spec), kwargs["trigger_override"]))
        return simulate_run(spec, units, model, policy, **kwargs)

    monkeypatch.setattr(placement, "simulate_run", counted)
    return runs


def score_and_pick(suite, sites, policy, model, budget=3):
    """What `vrusim placement` computes: the singles, then the greedy pick."""
    return (
        evaluate_sites(sites, suite, policy, model),
        greedy_select(sites, budget, suite, policy, model),
    )


def test_scoring_and_selection_share_one_observation(monkeypatch):
    suite, sites, policy, model = fresh()
    runs = count_runs(monkeypatch)
    score_and_pick(suite, sites, policy, model)
    assert runs["passes"] == len(suite)
    assert len(runs["replays"]) == len(set(runs["replays"]))


def test_shared_observation_scores_as_fresh_objects_do():
    objects = fresh()
    shared = score_and_pick(*objects)
    assert score_and_pick(*objects) == shared
    assert score_and_pick(*fresh()) == shared


@pytest.mark.parametrize("changed", ["suite", "sites", "policy", "model"])
def test_a_different_object_observes_afresh(monkeypatch, changed):
    suite, sites, policy, model = fresh()
    evaluate_sites(sites, suite, policy, model)
    args = dict(suite=suite, sites=sites, policy=policy, model=model)
    # an equal copy of one spec, one site, the policy or the model
    args[changed] = {
        "suite": suite[:-1] + (replace(suite[-1]),),
        "sites": (replace(sites[0]),) + sites[1:],
        "policy": replace(policy),
        "model": replace(model),
    }[changed]
    runs = count_runs(monkeypatch)
    scores = evaluate_sites(args["sites"], args["suite"], args["policy"], args["model"])
    assert runs["passes"] == len(suite)
    assert scores == evaluate_sites(sites, suite, policy, model)


def test_bad_calls_raise_when_the_memo_would_hit(monkeypatch):
    suite, sites, policy, model = fresh()
    evaluate_sites(sites, suite, policy, model)
    # every lookup now hits, whatever it is given
    monkeypatch.setattr(placement, "_same_objects", lambda held, key: True)
    runs = count_runs(monkeypatch)
    evaluate_sites(sites[:1], suite[:1], policy, model)
    assert runs == {"passes": 0, "replays": []}
    with pytest.raises(ValueError, match="unique"):
        evaluate_sites((sites[0], sites[0]), suite, policy, model)
    with pytest.raises(ValueError, match="unique"):
        greedy_select((sites[0], sites[0]), 1, suite, policy, model)
    with pytest.raises(ValueError, match="scenario"):
        evaluate_sites(sites, (), policy, model)
    with pytest.raises(ValueError, match="candidate"):
        greedy_select((), 1, suite, policy, model)
    # the suite steps 5 ms at 10 Hz
    with pytest.raises(ValueError, match="dt="):
        evaluate_sites(sites, suite, policy, model, dt=0.01)
    with pytest.raises(ValueError, match="dt="):
        greedy_select(sites, 1, suite, policy, model, dt=0.01)


# ------------------------------------------------------------- real scene


def test_crossing_scene_separates_good_and_blind_sites():
    suite = tuple(build_scenario(ScenarioKind.CBNA, v) for v in (40.0, 60.0))
    good, blind, clone = candidate_sites_from_units((
        rsu("corner", 12.0, -12.0, 7.0, math.radians(135.0), math.radians(-15.0)),
        rsu("wrongway", -14.0, 2.0, 7.0, math.radians(180.0), math.radians(-15.0)),
        rsu("corner2", 12.0, -12.0, 7.0, math.radians(135.0), math.radians(-15.0)),
    ))
    scores = {
        s.site_id: s
        for s in evaluate_sites((good, blind, clone), suite, POLICY, DetectionModel())
    }
    assert scores["corner"].avoidance == 1.0
    assert scores["corner"].accuracy > 0.0
    assert scores["wrongway"].avoidance == 0.0
    assert scores["wrongway"].accuracy == 0.0
    # same pose, same numbers
    assert scores["corner2"].avoidance == scores["corner"].avoidance
    assert scores["corner2"].accuracy == scores["corner"].accuracy

    picked = greedy_select((good, blind), 1, suite, POLICY, DetectionModel())
    assert picked.selected_site_ids == ("corner",)


# ------------------------------------------------------ bisected triggers


def never_touched(overrides=ScenarioOverrides()):
    """CPNC-50 at 40 km/h with the pedestrian's path 50 m down the road:
    no run, braked or not, touches it."""
    spec = build_scenario(ScenarioKind.CPNC50, 40.0, overrides)
    path = tuple(Vec2(p.x + 50.0, p.y) for p in spec.vru_track.path)
    return replace(spec, vru_track=replace(spec.vru_track, path=path))


def test_a_cell_never_touched_avoids_for_every_subset(monkeypatch):
    # two built-in units that never confirm there, and one like rsu0 moved
    # 50 m along the road, which does
    watcher = rsu("watcher", 38.0, -12.0, 7.0, math.radians(45.0), math.radians(-15.0))
    sites = candidate_sites_from_units(default_layout()[:2] + (watcher,))
    suite = (never_touched(),)
    runs = count_runs(monkeypatch)
    scores, picked = score_and_pick(suite, sites, POLICY, DetectionModel(), budget=2)
    assert [s.avoidance for s in scores] == [1.0, 1.0, 1.0]
    assert scores[0].accuracy == 0.0
    assert scores[-1].accuracy > 0.0
    # the empty set greedy starts from avoids too, so no pick gains
    assert picked.marginal_gains == (0.0, 0.0)
    assert picked.avoidance_rate == 1.0
    # only the watcher's trigger is replayed; a subset that never confirms
    # takes the unbraked pass's own outcome
    assert len(runs["replays"]) == 1
    assert all(trigger is not None for _, trigger in runs["replays"])


@st.composite
def placement_cases(draw):
    """A drawn scenario cell and the never-touched cell, both at a drawn
    frame rate; a drawn braking policy; 2 to 6 roadside units around the
    drawn cell's conflict zone, the second of them around the other cell's
    in about half the cases, each with its own latency and aim."""
    kind = draw(st.sampled_from(tuple(ScenarioKind)))
    overrides = ScenarioOverrides(frame_rate=draw(st.sampled_from((10.0, 25.0, 30.0))))
    suite = (
        build_scenario(kind, draw(st.sampled_from(allowed_speeds_kmh(kind))), overrides),
        never_touched(overrides),
    )
    policy = AebPolicy(
        deceleration=draw(st.floats(3.0, 10.0)),
        latency=draw(st.floats(0.0, 0.5)),
        confirm_frames=draw(st.integers(1, 4)),
    )
    units = []
    for i in range(draw(st.integers(2, 6))):
        centre = draw(st.sampled_from((0.0, 50.0))) if i == 1 else 0.0
        bearing, reach = draw(st.floats(-math.pi, math.pi)), draw(st.floats(5.0, 30.0))
        dx, dy = reach * math.cos(bearing), reach * math.sin(bearing)
        aim = math.atan2(-dy, -dx) + draw(st.floats(-0.6, 0.6))
        unit = rsu(f"u{i}", centre + dx, dy, draw(st.floats(3.0, 8.0)), aim, draw(st.floats(-0.5, 0.0)))
        units.append(replace(unit, latency=draw(st.floats(0.0, 0.2))))
    budget = draw(st.integers(1, len(units)))
    return suite, candidate_sites_from_units(units), policy, budget


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(placement_cases())
def test_bisected_scores_and_picks_equal_those_of_replays(case):
    suite, sites, policy, budget = case
    model = DetectionModel()
    assert score_and_pick(suite, sites, policy, model, budget) == replayed_placement(
        sites, budget, suite, policy, model
    )


def test_default_suite_work_is_pinned(monkeypatch):
    # what `vrusim placement --budget 3` over the 12 built-in units makes:
    # one pass per cell and, per cell, one bisection over its m distinct
    # site triggers, at most ceil(log2(m + 1)) replays
    config = load_config()
    suite = tuple(cell_spec(config.overrides, *cell) for cell in config.cells())
    units = default_layout()
    runs = count_runs(monkeypatch)
    score_and_pick(suite, candidate_sites_from_units(units), config.policy, config.model)
    assert runs["passes"] == len(suite) == 26
    assert len(runs["replays"]) == 69
    per_cell = Counter(cell for cell, _ in runs["replays"])
    for spec in suite:
        events = simulate_run(spec, units, config.model, config.policy).events_by_sensor
        triggers = {first_confirmed_time(events, config.policy.confirm_frames, (u.sensor_id,)) for u in units}
        m = len(triggers - {None})
        assert per_cell[id(spec)] <= math.ceil(math.log2(m + 1)), spec.kind
