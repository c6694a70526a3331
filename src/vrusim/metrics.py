"""Aggregate detection and safety results into report-ready numbers.

Everything here is pure arithmetic over finished runs: per-frame detection
accuracy, redundancy (mean detections per frame), and the per-sensor
detection heatmap with the brake deadline marked.  The VRU exists from
frame 0 in every scenario, so frame counts are taken over the whole run.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .sensing import EventMap, streams_of

__all__ = [
    "accuracy",
    "mean_detections_per_frame",
    "HeatmapMatrix",
    "heatmap_from_frames",
    "sensor_row_order",
    "natural_key",
]


_GRID_TOLERANCE = 1e-9


def accuracy(events_by_sensor: EventMap, total_frames: int, subset: Sequence[str]) -> float:
    """Fraction of frames in which at least one sensor of the subset detected."""
    if total_frames < 1:
        raise ValueError("total_frames must be at least 1")
    detected: set[int] = set()
    for stream in streams_of(events_by_sensor, subset):
        detected.update(ev.frame for ev in stream)
    return len(detected) / total_frames


def mean_detections_per_frame(events_by_sensor: EventMap, total_frames: int, subset: Sequence[str]) -> float:
    """Average count of qualifying detections per frame across the subset."""
    if total_frames < 1:
        raise ValueError("total_frames must be at least 1")
    total = sum(len(stream) for stream in streams_of(events_by_sensor, subset))
    return total / total_frames


def natural_key(sensor_id: str) -> tuple:
    parts = re.split(r"(\d+)", sensor_id)
    return tuple(int(p) if p.isdigit() else p for p in parts)


def sensor_row_order(sensor_ids: Iterable[str]) -> tuple[str, ...]:
    """Vehicle sensor first, roadside units after in natural id order."""
    ids = list(sensor_ids)
    head = [s for s in ids if s == "vut"]
    tail = sorted((s for s in ids if s != "vut"), key=natural_key)
    return tuple(head + tail)


@dataclass(frozen=True)
class HeatmapMatrix:
    """Per-sensor, per-frame detection grid for one run.

    ``cells[r][c]`` is True when sensor ``sensor_ids[r]`` emitted a
    qualifying detection at frame ``c``.  ``deadline_col`` is the frame
    column of the last trigger that would still have avoided the collision,
    or None when no trigger helps.
    """

    sensor_ids: tuple[str, ...]
    cells: tuple[tuple[bool, ...], ...]
    frame_rate: float
    deadline_col: int | None

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.sensor_ids):
            raise ValueError("one cell row per sensor required")
        widths = {len(row) for row in self.cells}
        if len(widths) > 1:
            raise ValueError("ragged heatmap rows")

    @property
    def n_frames(self) -> int:
        return len(self.cells[0]) if self.cells else 0

    def to_csv(self) -> str:
        # as many decimals as the frame period needs, at least one and at
        # most six, so no two frame labels print alike
        period = 1.0 / self.frame_rate
        decimals = 1
        while decimals < 6 and abs(round(period, decimals) - period) > _GRID_TOLERANCE:
            decimals += 1
        times = [f"{c / self.frame_rate:.{decimals}f}" for c in range(self.n_frames)]
        lines = ["sensor," + ",".join(times)]
        for sensor_id, row in zip(self.sensor_ids, self.cells):
            lines.append(sensor_id + "," + ",".join("1" if v else "0" for v in row))
        return "\n".join(lines) + "\n"

    def to_ppm(self) -> bytes:
        """Binary portable pixmap, two by two pixels a cell: green detected,
        white not, red deadline column."""
        scale = 2
        green, white, red = b"\x22\xaa\x44", b"\xff\xff\xff", b"\xcc\x22\x22"
        width = self.n_frames * scale
        height = len(self.sensor_ids) * scale
        body = bytearray()
        for row in self.cells:
            line = bytearray()
            for col, val in enumerate(row):
                if col == self.deadline_col:
                    px = red
                else:
                    px = green if val else white
                line += px * scale
            body += bytes(line) * scale
        return b"P6\n%d %d\n255\n" % (width, height) + bytes(body)


def heatmap_from_frames(
    detection_frames: Mapping[str, Iterable[int]],
    n_frames: int,
    frame_rate: float,
    last_possible_brake_time: float | None,
) -> HeatmapMatrix:
    """Build the grid from per-sensor detected-frame indices."""
    order = sensor_row_order(detection_frames.keys())
    cells = []
    for sensor_id in order:
        row = [False] * n_frames
        for frame in detection_frames[sensor_id]:
            row[frame] = True
        cells.append(tuple(row))
    deadline_col = None
    if last_possible_brake_time is not None:
        # a deadline on the frame grid is j / frame_rate, whose product with
        # the rate can fall just short of j (251 / 25 * 25 < 251); the
        # tolerance puts it back on its frame, far below a frame's width
        deadline_col = math.floor(last_possible_brake_time * frame_rate + _GRID_TOLERANCE)
    return HeatmapMatrix(
        sensor_ids=order,
        cells=tuple(cells),
        frame_rate=frame_rate,
        deadline_col=deadline_col,
    )
