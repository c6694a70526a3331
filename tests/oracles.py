"""Scenario oracles shared by the tests.

They rebuild, from the actor tracks alone, what the closed-loop run
computes on its own path: the whole world at one instant, and the first
frame at which the unbraked footprints touch.
"""

from vrusim.geometry import obb_overlap
from vrusim.scenario import ActorState, ActorTrack, ScenarioSpec, WorldState


def _actor_state(track: ActorTrack, t: float) -> ActorState:
    pose, speed = track.state_at(t)
    return ActorState(pose, speed, track.footprint(pose), track.silhouette(pose))


def world_at(spec: ScenarioSpec, t: float) -> WorldState:
    """Both actors at time t with braking disabled."""
    return WorldState(
        time=t,
        vut=_actor_state(spec.vut_track, t),
        vru=_actor_state(spec.vru_track, t),
        occluders=spec.occluders,
    )


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
