"""Choose roadside sensor sites under a budget.

Candidate mounting positions are scored by running the full scenario suite:
one sensing pass per scenario records what every candidate would see, and
a subset's trigger in a scenario is its sites' earliest confirmation in
that pass.  A run forced later than one that collides collides too (the
premise `aeb.last_possible_brake_time` rests on), so each scenario finds
its latest avoiding site trigger with one bisection over its sites' own
triggers, and a subset avoids there when its trigger is no later.
Scoring (`evaluate_sites`) and then selecting (`greedy_select`) from the
very same objects, as ``vrusim placement`` does, observes and bisects
each scenario once.  Selection is greedy on marginal
avoidance gain with detection accuracy as tie-breaker; with at most a
handful of candidates this provably matches exhaustive search only on the
suites the tests pin, and no stronger claim is made.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .aeb import AebPolicy, simulate_run
from .metrics import accuracy, natural_key
from .scenario import ScenarioSpec, kinematics_grid
from .sensing import DetectionModel, SensorUnit, first_confirmed_time

__all__ = [
    "CandidateSite",
    "SiteScore",
    "PlacementResult",
    "candidate_sites_from_units",
    "evaluate_sites",
    "greedy_select",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CandidateSite:
    """A roadside unit that could be installed, named by its sensor id."""

    unit: SensorUnit

    def __post_init__(self) -> None:
        if self.unit.mount != "rsu":
            raise ValueError(f"candidate {self.unit.sensor_id!r} must be rsu-mounted")

    @property
    def site_id(self) -> str:
        return self.unit.sensor_id

    def to_unit(self) -> SensorUnit:
        return self.unit


def candidate_sites_from_units(units: Iterable[SensorUnit]) -> tuple[CandidateSite, ...]:
    """Candidates from a sensor layout (e.g. a parsed layout file)."""
    sites = tuple(CandidateSite(u) for u in units)
    if not sites:
        raise ValueError("need at least one candidate site")
    return sites


@dataclass(frozen=True)
class SiteScore:
    site_id: str
    avoidance: float
    accuracy: float


@dataclass(frozen=True)
class PlacementResult:
    selected_site_ids: tuple[str, ...]
    marginal_gains: tuple[float, ...]
    avoidance_rate: float
    accuracy: float

    def __post_init__(self) -> None:
        if len(self.marginal_gains) != len(self.selected_site_ids):
            raise ValueError("one marginal gain per selected site required")


@dataclass(frozen=True)
class _ObservedCell:
    """One scenario's sensing pass, as far as placement reads it."""

    spec: ScenarioSpec
    events: Mapping
    # the pass is unbraked, so this is the outcome of a subset that never confirms
    unbraked_avoids: bool
    # each site's own first confirmation, None if it never confirms
    triggers: Mapping[str, float | None]
    # the latest site trigger whose forced run avoids; -inf if none does
    latest: float

    def avoids(self, subset: Sequence[str]) -> bool:
        own = [t for t in (self.triggers[site_id] for site_id in subset) if t is not None]
        return min(own) <= self.latest if own else self.unbraked_avoids


def _observe_cell(
    spec: ScenarioSpec,
    units: tuple[SensorUnit, ...],
    policy: AebPolicy,
    model: DetectionModel,
) -> _ObservedCell:
    """Sense the scenario once, then bisect its sites' distinct triggers for
    the first whose forced run collides, as `last_possible_brake_time`
    bisects frames: a subset's trigger, the least of its sites' own, is
    one of them."""
    observation = simulate_run(spec, units, model, policy, sense=True)
    events = observation.events_by_sensor
    triggers = {
        u.sensor_id: first_confirmed_time(events, policy.confirm_frames, (u.sensor_id,))
        for u in units
    }
    ordered = sorted({t for t in triggers.values() if t is not None})

    def collides(trigger: float) -> bool:
        trace = simulate_run(spec, (), model, policy, trigger_override=trigger, sense=False)
        return not trace.outcome.avoided

    first = bisect_left(ordered, True, key=collides)
    latest = ordered[first - 1] if first else -math.inf
    return _ObservedCell(spec, events, observation.outcome.avoided, triggers, latest)


def _performance(cells: tuple[_ObservedCell, ...], subset: Sequence[str]) -> tuple[float, float]:
    """A subset's (avoidance, accuracy) over the observed cells, scored by compares."""
    avoided = 0
    acc_sum = 0.0
    for cell in cells:
        if cell.avoids(subset):
            avoided += 1
        acc_sum += accuracy(cell.events, cell.spec.n_frames, subset)
    return avoided / len(cells), acc_sum / len(cells)


# The last observation and the objects it was made from. `vrusim placement`
# scores the singles and then selects from the very same objects, so the
# second call reuses the first's passes and bisections. The key is object
# identity, not value: equal objects built afresh observe afresh, so what a
# call costs never depends on what an earlier caller happened to build. The
# entry holds its objects, so no id in the key can be reused while it lives.
_last_observed: tuple[tuple, tuple[_ObservedCell, ...]] | None = None


def _same_objects(a: tuple, b: tuple) -> bool:
    """Whether two keys hold the very same objects, position by position."""
    return all(
        len(x) == len(y) and all(p is q for p, q in zip(x, y)) for x, y in zip(a, b)
    )


def _observe(
    suite: Sequence[ScenarioSpec],
    sites: Sequence[CandidateSite],
    policy: AebPolicy,
    model: DetectionModel,
    dt: float | None,
) -> tuple[_ObservedCell, ...]:
    """One observed cell per scenario of the suite."""
    if not sites:
        raise ValueError("need at least one candidate site")
    if not suite:
        raise ValueError("need at least one scenario")
    if dt is not None and any(kinematics_grid(spec.frame_rate)[0] != dt for spec in suite):
        raise ValueError(f"dt={dt!r} is not the kinematics step of every suite spec")
    ids = [s.site_id for s in sites]
    if len(set(ids)) != len(ids):
        raise ValueError("candidate site ids must be unique")
    global _last_observed
    specs = tuple(suite)
    key = (specs, tuple(sites), (policy, model))
    if _last_observed is not None and _same_objects(_last_observed[0], key):
        return _last_observed[1]
    units = tuple(s.to_unit() for s in sites)
    observed = tuple(_observe_cell(spec, units, policy, model) for spec in specs)
    _last_observed = (key, observed)
    return observed


def evaluate_sites(
    candidates: Sequence[CandidateSite],
    suite: Sequence[ScenarioSpec],
    policy: AebPolicy,
    model: DetectionModel,
    dt: float | None = None,
) -> tuple[SiteScore, ...]:
    """Score every candidate alone over the whole suite. Each run steps on
    its spec's own grid; a `dt` other than that step raises ValueError."""
    observed = _observe(suite, candidates, policy, model, dt)
    scores = []
    for site in candidates:
        avoidance_rate, acc = _performance(observed, (site.site_id,))
        scores.append(SiteScore(site.site_id, avoidance_rate, acc))
    return tuple(scores)


def greedy_select(
    candidates: Sequence[CandidateSite],
    budget: int,
    suite: Sequence[ScenarioSpec],
    policy: AebPolicy,
    model: DetectionModel,
    dt: float | None = None,
) -> PlacementResult:
    """Pick up to ``budget`` sites, one at a time, by re-simulated gain.

    Each round adds the site whose fused subset gives the best (avoidance,
    accuracy) pair; ties fall to the lower site id. `dt` is checked as
    `evaluate_sites` checks it.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    observed = _observe(suite, candidates, policy, model, dt)
    if budget > len(candidates):
        log.warning(
            "budget %d exceeds %d candidate(s); selecting all", budget, len(candidates)
        )
        budget = len(candidates)

    remaining = sorted((s.site_id for s in candidates), key=natural_key)
    selected: list[str] = []
    gains: list[float] = []
    current = _performance(observed, ())
    while remaining and len(selected) < budget:
        best_id, best_perf = None, None
        for site_id in remaining:
            perf = _performance(observed, tuple(selected) + (site_id,))
            if best_perf is None or perf > best_perf:
                best_id, best_perf = site_id, perf
        selected.append(best_id)
        remaining.remove(best_id)
        gains.append(best_perf[0] - current[0])
        current = best_perf

    return PlacementResult(
        selected_site_ids=tuple(selected),
        marginal_gains=tuple(gains),
        avoidance_rate=current[0],
        accuracy=current[1],
    )
