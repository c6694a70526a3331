"""Site evaluation and greedy selection tests.

The engineered suite below has one standing pedestrian per cell, spaced
100 m apart, with detection gates zeroed so a site's coverage is purely
range and field of view.  That makes singleton and fused scores exactly
predictable, and an exhaustive oracle re-simulates every subset with the
loop that confirms while it goes (`oracles.live_run`) rather than the
replay path used in production.
"""

import itertools
import logging
import math

import pytest

from vrusim.aeb import AebPolicy, simulate_run
from vrusim.geometry import Vec2
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
    ScenarioSpec,
    VruTrack,
    build_scenario,
)
from vrusim.sensing import DetectionModel, default_layout, default_vut_sensor

from oracles import live_run
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
        nominal_collision_time=5.75,
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
