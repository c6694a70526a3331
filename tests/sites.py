"""Candidate roadside sites for the placement tests, built as sensor units."""

from vrusim.geometry import MountPose
from vrusim.sensing import DEFAULT_HFOV_RAD, DEFAULT_RANGE_M, DEFAULT_VFOV_RAD, SensorUnit


def rsu(
    sensor_id, x, y, z, yaw, pitch,
    hfov=DEFAULT_HFOV_RAD, vfov=DEFAULT_VFOV_RAD, max_range=DEFAULT_RANGE_M,
):
    """A roadside unit with the default 25 ms latency; it senses at the
    scenario frame rate, like every unit."""
    return SensorUnit(sensor_id, "rsu", MountPose(x, y, z, yaw, pitch), hfov, vfov, max_range)
