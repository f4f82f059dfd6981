"""The benchmark's three workloads: inputs, timed iterations, output checks.

Every workload drives ringsense only through ``ringsense.cli.main(argv)``,
the documented JSONL/CSV formats, ``synthesize_frame``, ``estimate_pose``
and ``run_episode``. Calls that run inside the timed window go through the
module attribute (``cli.main``, ``pnp.estimate_pose``, ...) so that the
tracer's patched wrappers see them.

A workload is a closed loop in one process: the next frame or command is
issued only when the previous one has returned.
"""

from __future__ import annotations

import csv
import hashlib
import json
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from ringsense import cli, contact, pnp, simulator
from ringsense.errors import RingSenseError
from ringsense.geometry import RigidTransform, default_camera, delta_from_poses
from ringsense.layout import default_layout
from ringsense.sensitivity import DetectionParams, pose_floor

SAMPLES_PER_AXIS = 170
SIGMA_PX = 0.25
REPLAY_OCCLUSION = 0.3
CONTACT_DEBOUNCE = 3
CONTACT_REFERENCE_FRAMES = 5
CONTACT_PRESET_COUNT = 10
CONTACT_REPEATS = 4  # 10 presets x 4 repeats pull about 1100 frames per pass
# The threshold is crossed this far into each approach.
CONTACT_CROSSING_FRACTION = 2.0 / 3.0

# Correctness gate. Pose errors are judged against the paper's detection
# floor for the default DetectionParams: the multiples put each limit at
# about twice the worst RMS error measured on seeds 1-10 (0.0047 mm of
# 0.0135 mm, 0.00091 rad of 0.0136 rad). R^2 is judged against acceptance
# criterion 3.
POSE_ERR_TRANS_FLOOR_MULTIPLE = 0.7
POSE_ERR_ROT_FLOOR_MULTIPLE = 0.15
CALIB_R2_MIN = 0.95

_DEFORMATION_COLUMNS = ("dlx", "dly", "dlz", "dthx", "dthy", "dthz")


@dataclass
class Iteration:
    """One pass of a workload's timed window.

    ``gaps`` holds the (start, end) perf_counter times of each frame's
    latency: from one frame request to the next. It is None for a batch
    command, which delivers every frame's pose when it returns at ``t1``.
    """

    t0: float
    t1: float
    frames: int
    failed: int
    digest: str
    gaps: list[tuple[float, float]] | None = None


def frame_failed(converged, status) -> bool:
    """A frame fails without a pose, when not converged, or when a status
    other than ``ok`` is reported."""
    return not converged or status not in (None, "ok")


def _sha256(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def _load_jsonl(path: Path) -> list[dict]:
    with path.open("r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_deformations(path: Path) -> np.ndarray:
    with path.open("r", encoding="utf-8", newline="") as fh:
        return np.array([[float(row[k]) for k in _DEFORMATION_COLUMNS]
                         for row in csv.DictReader(fh)])


def _pose_errors(estimated: np.ndarray, truth: np.ndarray) -> dict:
    err = estimated - truth
    return {
        "pose_err_trans_rms_mm": float(np.sqrt(np.mean(err[:, :3] ** 2))),
        "pose_err_rot_rms_rad": float(np.sqrt(np.mean(err[:, 3:] ** 2))),
    }


def _histogram(values) -> dict[str, int]:
    return {str(k): v for k, v in sorted(Counter(values).items())}


def _pose_rows_outcome(path: Path, expected: int) -> tuple[int, list[dict]]:
    """(failed frame count, rows) of a poses JSONL; missing rows fail."""
    rows = _load_jsonl(path)
    failed = sum(frame_failed(r.get("converged", False), r.get("status")) for r in rows)
    return failed + max(0, expected - len(rows)), rows


def _frames_properties(frames_path: Path) -> tuple[list[int], list[int]]:
    """(corners per frame, visible tags per frame) of a correspondences JSONL."""
    corners, tags = [], []
    for row in _load_jsonl(frames_path):
        corners.append(len(row["entries"]))
        tags.append(len({e["tag_id"] for e in row["entries"]}))
    return corners, tags


def _input_properties(reason: str, corners: list[int], tags: list[int],
                      lm_iterations: list[int]) -> dict:
    return {
        "reason": reason,
        "corners_per_frame": {"mean": float(np.mean(corners)), "min": min(corners),
                              "max": max(corners)},
        "visible_tags_histogram": _histogram(tags),
        "lm_iterations_histogram": _histogram(lm_iterations),
    }


class Workload:
    """Base: ``prepare`` makes inputs and warms up, untimed; ``run_once``
    runs one timed pass; ``evaluate`` reads the last pass's outputs."""

    name = ""
    reason = ""

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.frames_per_pass = 0
        self.problems: list[str] = []

    def prepare(self) -> None:
        raise NotImplementedError

    def run_once(self, tracer=None) -> Iteration:
        raise NotImplementedError

    def io_bytes(self) -> tuple[int, int]:
        """(bytes read, bytes written) by the CLI in one pass."""
        return 0, 0

    def evaluate(self) -> dict:
        """Quality metrics, input properties and gate problems."""
        raise NotImplementedError

    def _samples_per_axis(self) -> int:
        return max(10, round(SAMPLES_PER_AXIS * self.scale))

    def _size_args(self) -> list[str]:
        n = self._samples_per_axis()
        return [] if n == SAMPLES_PER_AXIS else ["--samples-per-axis", str(n)]

    def _run_cli(self, argv: list[str], expected: int, poses: Path) -> Iteration:
        t0 = perf_counter()
        rc = cli.main(argv)
        t1 = perf_counter()
        if rc != 0:
            self.problems.append(f"`ringsense {argv[0]}` exited with code {rc}")
            return Iteration(t0, t1, expected, expected, "")
        failed, _ = _pose_rows_outcome(poses, expected)
        return Iteration(t0, t1, expected, failed, _sha256(poses))


class PipelineSweep(Workload):
    name = "pipeline_sweep"
    reason = ("unoccluded frames, 140 corners each, over six single-axis sweeps: "
              "synthesis and the full chain dominate")

    def prepare(self) -> None:
        self.out = self.workdir / "pipeline"
        self.frames_per_pass = 6 * self._samples_per_axis()
        # A fixed seed: at 20 samples per axis some seeds leave an axis out of
        # the held-out split, and the warm-up only has to touch every stage.
        warm = self.workdir / "warm"
        if cli.main(["pipeline", "--seed", "0", "--samples-per-axis", "20",
                     "--out", str(warm), "--quiet"]) != 0:
            self.problems.append("warm-up pipeline failed")

    def run_once(self, tracer=None) -> Iteration:
        argv = ["pipeline", "--seed", str(self.seed), "--out", str(self.out), "--quiet"]
        it = self._run_cli(argv + self._size_args(), self.frames_per_pass,
                           self.out / "poses.jsonl")
        if it.digest:
            it.digest += _sha256(self.out / "calib.json")
        return it

    def io_bytes(self) -> tuple[int, int]:
        return 0, sum(p.stat().st_size for p in self.out.iterdir() if p.is_file())

    def evaluate(self) -> dict:
        truth = _read_deformations(self.out / "sweep.csv")
        estimated = _read_deformations(self.out / "sweep_estimated.csv")
        calib = json.loads((self.out / "calib.json").read_text(encoding="utf-8"))
        r2_min = min(float(m["r2_test"]) for m in calib["models"])
        if r2_min <= CALIB_R2_MIN:
            self.problems.append(f"calib_r2_test_min {r2_min:.5f} <= {CALIB_R2_MIN}")
        _, rows = _pose_rows_outcome(self.out / "poses.jsonl", self.frames_per_pass)
        corners, tags = _frames_properties(self.out / "frames.jsonl")
        return {
            **_pose_errors(estimated, truth),
            "calib_r2_test_min": r2_min,
            "input_properties": _input_properties(
                self.reason, corners, tags, [r["iterations_used"] for r in rows]),
        }


class ReplayOccluded(Workload):
    name = "replay_occluded"
    reason = ("30% per-tag dropout gives ragged corner counts, the case a padded or "
              "grouped batch pays for")

    def prepare(self) -> None:
        inputs = self.workdir / "input"
        # The inputs come from a separate process, so the peak memory of this
        # one covers only the replay.
        subprocess.run(
            [sys.executable, "-m", "ringsense", "simulate", "--seed", str(self.seed),
             "--occlusion", repr(REPLAY_OCCLUSION), "--sigma", repr(SIGMA_PX),
             "--out", str(inputs), "--quiet", *self._size_args()],
            check=True, timeout=170,
        )
        self.frames = inputs / "frames.jsonl"
        self.sweep = inputs / "sweep.csv"
        self.poses = self.workdir / "poses.jsonl"
        self.frames_per_pass = 6 * self._samples_per_axis()
        warm = self.workdir / "warm_frames.jsonl"
        with self.frames.open("r", encoding="utf-8") as src:
            warm.write_text("".join(next(src) for _ in range(20)), encoding="utf-8")
        if cli.main(["estimate", "--frames", str(warm), "--out",
                     str(self.workdir / "warm_poses.jsonl"), "--quiet"]) != 0:
            self.problems.append("warm-up estimate failed")

    def run_once(self, tracer=None) -> Iteration:
        argv = ["estimate", "--frames", str(self.frames), "--out", str(self.poses), "--quiet"]
        return self._run_cli(argv, self.frames_per_pass, self.poses)

    def io_bytes(self) -> tuple[int, int]:
        return self.frames.stat().st_size, self.poses.stat().st_size

    def evaluate(self) -> dict:
        reference = simulator.default_reference_pose()
        _, rows = _pose_rows_outcome(self.poses, self.frames_per_pass)
        estimated = np.array([
            delta_from_poses(reference, RigidTransform.from_dict(r["pose"])).as_array()
            for r in rows
        ])
        corners, tags = _frames_properties(self.frames)
        return {
            **_pose_errors(estimated, _read_deformations(self.sweep)),
            "input_properties": _input_properties(
                self.reason, corners, tags, [r["iterations_used"] for r in rows]),
        }


@dataclass
class Episode:
    """One pre-synthesized approach: reference frames, then an fz ramp."""

    preset: str
    frames: list
    truth: np.ndarray
    crossing: int


class ContactStream(Workload):
    name = "contact_stream"
    reason = ("unoccluded frames estimated one at a time; the fz ramp crosses each "
              "preset threshold 2/3 into the approach")

    def prepare(self) -> None:
        self.camera = default_camera()
        self.reference = simulator.default_reference_pose()
        layout = default_layout()
        compliance = simulator.default_compliance()
        # Force along fz per mm of normal deformation (linear compliance).
        fz_per_mm = 1.0 / compliance.compliance[2, 2]
        repeats = max(1, round(CONTACT_REPEATS * self.scale))
        self.episodes: list[Episode] = []
        for preset, (threshold, total) in contact.OBJECT_PRESETS.items():
            crossing = max(1, round(CONTACT_CROSSING_FRACTION * total))
            # fz(f) = slope * f is below threshold at crossing - 1, above at crossing.
            slope = threshold * fz_per_mm / (crossing - 0.5)
            forces = [0.0] * CONTACT_REFERENCE_FRAMES + [slope * f for f in range(total)]
            for rep in range(repeats):
                frames, truth = [], []
                for i, fz in enumerate(forces):
                    wrench = simulator.Wrench(0.0, 0.0, fz, 0.0, 0.0, 0.0)
                    noise = simulator.NoiseModel(
                        corner_sigma=SIGMA_PX, occlusion_probability=0.0,
                        seed=simulator.derive_seed(self.seed, f"contact/{preset}/{rep}/{i}"))
                    corrs, _ = simulator.synthesize_frame(
                        self.camera, layout, self.reference, wrench, compliance, noise)
                    frames.append(corrs)
                    truth.append(simulator.deform(compliance, wrench).as_array())
                self.episodes.append(Episode(preset, frames, np.array(truth), crossing))
        self.expected_episodes = CONTACT_PRESET_COUNT * repeats
        self._run_episode(self.episodes[0], [], [], None)

    def _run_episode(self, episode: Episode, pulled: list, stamps: list, tracer):
        """Play one episode; append (frame index, estimate or None) per
        pulled frame to ``pulled`` and each frame request time to ``stamps``."""

        def stream():
            for i, corrs in enumerate(episode.frames):
                stamps.append(perf_counter())
                if tracer is not None:
                    tracer.frame += 1
                try:
                    estimate = pnp.estimate_pose(self.camera, corrs)
                except RingSenseError:
                    estimate = None
                pulled.append((i, estimate))
                yield estimate

        config = contact.config_for_object(episode.preset, debounce_frames=CONTACT_DEBOUNCE)
        traj = contact.ApproachTrajectory((0.0,), (1.0,), config.total_frames)
        result = contact.run_episode(traj, config, stream(),
                                     reference_frames=CONTACT_REFERENCE_FRAMES)
        stamps.append(perf_counter())
        return result

    def run_once(self, tracer=None) -> Iteration:
        gaps: list[tuple[float, float]] = []
        self.pulled: list[tuple[Episode, list]] = []
        self.events: list[int | None] = []
        t0 = perf_counter()
        for episode in self.episodes:
            pulled: list = []
            stamps: list[float] = []
            try:
                result = self._run_episode(episode, pulled, stamps, tracer)
            except RingSenseError as exc:
                # An episode without a result leaves the episode count short.
                self.problems.append(f"{episode.preset} episode failed: {exc}")
                continue
            gaps.extend(zip(stamps, stamps[1:]))
            self.pulled.append((episode, pulled))
            self.events.append(None if result.event is None else result.event.frame_index)
        t1 = perf_counter()
        if len(self.events) != self.expected_episodes:
            self.problems.append(
                f"{len(self.events)} contact episodes, expected {self.expected_episodes}")
        frames = self.frames_per_pass = sum(len(p) for _, p in self.pulled)
        failed = sum(est is None or frame_failed(est.converged, getattr(est, "status", None))
                     for _, pulled in self.pulled for _, est in pulled)
        h = hashlib.sha256(repr(self.events).encode())
        for _, pulled in self.pulled:
            for _, est in pulled:
                if est is not None:
                    h.update(est.pose.rotation.tobytes())
                    h.update(est.pose.translation.tobytes())
        return Iteration(t0, t1, frames, failed, h.hexdigest(), gaps)

    def evaluate(self) -> dict:
        estimated, truth, corners, iterations = [], [], [], []
        for episode, pulled in self.pulled:
            for i, est in pulled:
                # The simulator emits whole tags, so corners = 4 x visible tags.
                corners.append(len(episode.frames[i]))
                if est is None:
                    continue
                estimated.append(delta_from_poses(self.reference, est.pose).as_array())
                truth.append(episode.truth[i])
                iterations.append(est.iterations_used)
        lags, early, missed = [], 0, 0
        for (episode, _), event in zip(self.pulled, self.events):
            if event is None:
                missed += 1
            elif event < episode.crossing:
                early += 1
            else:
                lags.append(event - episode.crossing)
        n = len(self.events)
        return {
            **_pose_errors(np.array(estimated), np.array(truth)),
            "contact_lag_frames_mean": float(np.mean(lags)) if lags else None,
            "false_contact_ratio": early / n,
            "missed_contact_ratio": missed / n,
            "input_properties": _input_properties(
                self.reason, corners, [c // 4 for c in corners], iterations),
        }


WORKLOADS = {w.name: w for w in (PipelineSweep, ReplayOccluded, ContactStream)}


def pose_error_limits() -> tuple[float, float]:
    """(translation mm, rotation rad) RMS pose error the gate accepts."""
    floor = pose_floor(DetectionParams()).as_array()
    return POSE_ERR_TRANS_FLOOR_MULTIPLE * floor[0], POSE_ERR_ROT_FLOOR_MULTIPLE * floor[3]
