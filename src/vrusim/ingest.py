"""Score external detector logs against ground truth and feed the pipeline.

A detector run on recorded footage produces pixel boxes per frame and
sensor.  This module parses those logs plus the matching ground truth,
applies box-IoU matching, and turns true positives into the same
DetectionEvent stream the simulated sensors emit, so confirmation and
braking analysis run unchanged on real detections.

Matching is greedy by descending IoU over each (frame, sensor) cell: the
highest-IoU eligible pair is matched first, each detection and each ground
truth box at most once, ties broken by the lower detection index and then
the lower ground-truth index.  A pair is eligible only when the class
labels agree.  The threshold is strict: the IoU must exceed it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

from .geometry import AxisBox2, iou_axis_box
from .sensing import DetectionEvent

__all__ = [
    "ExternalDetection",
    "GroundTruthRecord",
    "MatchCounts",
    "MatchResult",
    "MatchedPair",
    "parse_detection_log",
    "parse_ground_truth",
    "match_detections",
    "DETECTION_LOG_HEADER",
    "GROUND_TRUTH_HEADER",
    "VRU_LABELS",
]

DETECTION_LOG_HEADER = "frame,sensor_id,label,x_min,y_min,x_max,y_max,confidence"
GROUND_TRUTH_HEADER = "frame,sensor_id,target_id,label,x_min,y_min,x_max,y_max"

# classes whose confirmed detections participate in emergency braking;
# everything else is scored but never reaches the safety pipeline
VRU_LABELS = frozenset({"pedestrian", "cyclist"})


@dataclass(frozen=True)
class ExternalDetection:
    frame: int
    sensor_id: str
    label: str
    box: AxisBox2
    confidence: float

    def __post_init__(self) -> None:
        if self.frame < 0:
            raise ValueError("frame index must be non-negative")
        if not self.sensor_id or not self.label:
            raise ValueError("sensor_id and label must be non-empty")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must lie in [0, 1]")


@dataclass(frozen=True)
class GroundTruthRecord:
    frame: int
    sensor_id: str
    target_id: str
    label: str
    box: AxisBox2

    def __post_init__(self) -> None:
        if self.frame < 0:
            raise ValueError("frame index must be non-negative")
        if not self.sensor_id or not self.target_id or not self.label:
            raise ValueError("sensor_id, target_id and label must be non-empty")


def _read_rows(path: str | os.PathLike, header: str, kind: str, corners_at: int):
    """(where, frame, fields, corners) per row: eight fields, an integer frame first and
    the box's four numbers from `corners_at` on, which `AxisBox2` checks in the caller."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{kind}: byte {exc.start} is not UTF-8 ({exc.reason})") from None
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{kind} line {lineno}"
        if not header_seen:
            if line != header:
                raise ValueError(f"{where}: expected header {header!r}")
            header_seen = True
            continue
        fields = [p.strip() for p in line.split(",")]
        if len(fields) != 8:
            raise ValueError(f"{where}: expected 8 comma-separated fields, got {len(fields)}")
        try:
            frame = int(fields[0])
        except ValueError:
            raise ValueError(f"{where}: frame must be an integer") from None
        try:
            corners = [float(p) for p in fields[corners_at : corners_at + 4]]
        except ValueError:
            raise ValueError(f"{where}: box coordinates must be numbers") from None
        yield where, frame, fields, corners
    # a file with no rows (or nothing at all) is a valid empty log


def parse_detection_log(path: str | os.PathLike) -> list[ExternalDetection]:
    records = []
    for where, frame, fields, corners in _read_rows(path, DETECTION_LOG_HEADER, "detection log", 3):
        try:
            confidence = float(fields[7])
        except ValueError:
            raise ValueError(f"{where}: confidence must be a number") from None
        try:
            records.append(ExternalDetection(frame, fields[1], fields[2], AxisBox2(*corners), confidence))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return records


def parse_ground_truth(path: str | os.PathLike) -> list[GroundTruthRecord]:
    records = []
    for where, frame, fields, corners in _read_rows(path, GROUND_TRUTH_HEADER, "ground truth", 4):
        try:
            records.append(GroundTruthRecord(frame, fields[1], fields[2], fields[3], AxisBox2(*corners)))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return records


@dataclass(frozen=True)
class MatchCounts:
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class MatchedPair:
    frame: int
    sensor_id: str
    detection_index: int
    ground_truth_index: int
    iou: float


@dataclass(frozen=True)
class MatchResult:
    """Matching outcome: per-cell counts, matched pairs, and safety events.

    ``counts`` is keyed by (frame, sensor_id).  Indices in ``pairs`` point
    into the input sequences.  ``events[target_id][sensor_id]`` is the
    frame-ordered stream of one VRU target's true positives by one sensor,
    so ``events[target_id]`` is the per-sensor stream map the confirmation
    rule consumes.
    """

    counts: Mapping[tuple[int, str], MatchCounts]
    pairs: tuple[MatchedPair, ...]
    events: Mapping[str, Mapping[str, list[DetectionEvent]]]


def match_detections(
    detections: Sequence[ExternalDetection],
    ground_truth: Sequence[GroundTruthRecord],
    iou_threshold: float = 0.5,
    *,
    frame_rate: float,
    latency: float,
) -> MatchResult:
    """Greedy IoU matching of detections to ground truth, per frame and sensor.

    True positives on VRU-class targets become DetectionEvents available
    `latency` seconds after their frame, at the scenario's `frame_rate`,
    ready for the confirmation rule. A cell whose ground truth boxes one
    target twice is a ValueError.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError("iou_threshold must lie in [0, 1]")
    if not (0 < frame_rate < math.inf and 0 <= latency < math.inf):
        raise ValueError("frame_rate must be positive and latency non-negative, both finite")

    cells: dict[tuple[int, str], tuple[list[int], list[int]]] = {}
    for i, det in enumerate(detections):
        cells.setdefault((det.frame, det.sensor_id), ([], []))[0].append(i)
    boxed: set[tuple[int, str, str]] = set()
    for j, gt in enumerate(ground_truth):
        if (gt.frame, gt.sensor_id, gt.target_id) in boxed:
            raise ValueError(
                f"ground truth boxes target {gt.target_id!r} twice in frame {gt.frame} of sensor {gt.sensor_id!r}"
            )
        boxed.add((gt.frame, gt.sensor_id, gt.target_id))
        cells.setdefault((gt.frame, gt.sensor_id), ([], []))[1].append(j)

    counts: dict[tuple[int, str], MatchCounts] = {}
    pairs: list[MatchedPair] = []
    events: dict[str, dict[str, list[DetectionEvent]]] = {}

    for key in sorted(cells):
        det_ids, gt_ids = cells[key]
        frame, sensor_id = key
        candidates = []
        for i in det_ids:
            for j in gt_ids:
                if detections[i].label != ground_truth[j].label:
                    continue
                iou = iou_axis_box(detections[i].box, ground_truth[j].box)
                if iou > iou_threshold:
                    candidates.append((-iou, i, j))
        candidates.sort()
        used_det: set[int] = set()
        used_gt: set[int] = set()
        for neg_iou, i, j in candidates:
            if i in used_det or j in used_gt:
                continue
            used_det.add(i)
            used_gt.add(j)
            pairs.append(MatchedPair(frame, sensor_id, i, j, -neg_iou))
            gt = ground_truth[j]
            if gt.label in VRU_LABELS:
                stream = events.setdefault(gt.target_id, {}).setdefault(sensor_id, [])
                stream.append(DetectionEvent(frame, frame / frame_rate + latency))
        counts[key] = MatchCounts(
            tp=len(used_gt),
            fp=len(det_ids) - len(used_det),
            fn=len(gt_ids) - len(used_gt),
        )

    return MatchResult(counts=counts, pairs=tuple(pairs), events=events)
