"""Scenario oracles shared by the tests.

They rebuild, from the actor tracks alone, what the closed-loop run
computes on its own path: what a sensing frame sees at one instant, and
the first frame at which the unbraked footprints touch.
"""

from vrusim.geometry import obb_overlap
from vrusim.scenario import ScenarioSpec, WorldState


def world_at(spec: ScenarioSpec, t: float) -> WorldState:
    """What a sensing frame at time t sees with braking disabled."""
    vut_pose, _ = spec.vut_track.state_at(t)
    vru_pose, _ = spec.vru_track.state_at(t)
    return WorldState(t, vut_pose, spec.vru_track.silhouette(vru_pose), spec.occluders)


def nominal_collision_check(spec: ScenarioSpec) -> float | None:
    """Time of first footprint overlap with braking disabled, on the frame grid."""
    n_frames = int(round(spec.sim_duration * spec.frame_rate)) + 1
    for i in range(n_frames):
        t = i / spec.frame_rate
        vut_pose, _ = spec.vut_track.state_at(t)
        vru_pose, _ = spec.vru_track.state_at(t)
        if obb_overlap(spec.vut_track.footprint(vut_pose), spec.vru_track.footprint(vru_pose)):
            return t
    return None
