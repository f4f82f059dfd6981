"""Command-line entry point wiring all stages into reproducible pipelines.

Subcommands: layout, simulate, estimate, calibrate, sensitivity, monitor,
pipeline. All randomness flows from the --seed of simulate, calibrate and
pipeline; per-stage seeds are derived by stable hashing of (seed, stage
name). Commands that write into an output directory leave exactly one
manifest.json there, written last, so it marks a complete run; re-running
with identical arguments reproduces byte-identical numeric outputs.
frames.jsonl rows are formatted from a per-layout template, byte-identical to
json.dumps(row, sort_keys=True).

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import operator
import sys
import time
from collections import Counter
from contextlib import closing
from dataclasses import asdict
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import CalibrationReport, calibrate, split_indices
from .contact import (
    CONTROL_INTERVAL_S,
    OBJECT_PRESETS,
    ApproachTrajectory,
    ContactConfig,
    config_for_object,
    run_episode,
)
from .errors import (
    NumericalFailure,
    RingSenseError,
    ValidationFailure,
    read_integer,
    read_number,
)
from .geometry import (
    EULER_CONVENTION,
    DeformationVector,
    PinholeCamera,
    RigidTransform,
    _pinhole,
    default_camera,
    delta_from_poses,
)
from .layout import TagLayout, default_layout
# estimate_pose is not called here; the benchmark's tracer patches it in every
# importing module, and benchmarks/tests checks that through this one.
from .pnp import (  # noqa: F401
    CHUNK_FRAMES,
    CorrespondenceSet,
    PoseEstimate,
    estimate_pose,
    estimate_poses,
)
from .sensitivity import DetectionParams, analyze
from .simulator import (
    ComplianceModel,
    NoiseModel,
    Wrench,
    axis_magnitudes,
    default_compliance,
    default_reference_pose,
    derive_seed,
    sweep_dataset,
    synthesize_frame,
)

SWEEP_HEADER = [
    "axis", "magnitude",
    "fx", "fy", "fz", "tx", "ty", "tz",
    "dlx", "dly", "dlz", "dthx", "dthy", "dthz",
]


def _info(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _dump_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_jsonl(fh, rows) -> None:
    for row in rows:
        fh.write(json.dumps(row, sort_keys=True) + "\n")


# What a decoder, a parser or a ``from_dict`` raises on a malformed input file.
# UnicodeDecodeError and json.JSONDecodeError are ValueErrors; nesting too deep
# for json raises RecursionError, and a CSV field over the csv module's size
# limit raises csv.Error.
_MALFORMED = (LookupError, TypeError, ValueError, AttributeError, OverflowError,
              RecursionError, csv.Error, ValidationFailure)


def _malformed(path: Path | str, lineno: int | None, what: str,
               exc: Exception) -> ValidationFailure:
    """The one-line error for ``exc``, raised reading a ``what`` from ``path``;
    it names the file and, for a line-based file, the line ``lineno``."""
    if isinstance(exc, UnicodeDecodeError):
        detail = f"byte 0x{exc.object[exc.start]:02x} is not UTF-8"
    elif isinstance(exc, (json.JSONDecodeError, RecursionError)):
        detail = f"invalid JSON: {exc}"
    else:
        detail = f"bad {what}: {f'missing field {exc}' if isinstance(exc, KeyError) else exc}"
    return ValidationFailure(f"{path}{'' if lineno is None else f' line {lineno}'}: {detail}")


def _load_json(path: Path, parse, what: str):
    """``parse`` of a JSON file decoded as strict UTF-8."""
    try:
        return parse(json.loads(path.read_bytes().decode("utf-8")))
    except _MALFORMED as exc:
        raise _malformed(path, None, what, exc) from exc


def _load_jsonl(path: Path, parse, what: str) -> list:
    """``parse`` of each non-blank line of a JSONL file, each line decoded as
    strict UTF-8."""
    rows = []
    # A frames line runs to about 12 KB; with the default 8 KiB buffer,
    # readline joins two reads for most lines.
    with path.open("rb", buffering=1 << 16) as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    rows.append(parse(json.loads(line)))
            except _MALFORMED as exc:
                raise _malformed(path, lineno, what, exc) from exc
    return rows


def _write_manifest(out_dir: Path, args, camera: PinholeCamera, layout: TagLayout,
                    reference: RigidTransform, given: dict[str, str], **config) -> None:
    """The manifest.json of a sweep command: its config holds the sweep
    settings of ``args`` and the scene, then the command's own ``config``;
    it digests each input file ``given`` (by kind)."""
    _dump_json(out_dir / "manifest.json", {
        "command": args.command,
        "config": {
            "samples_per_axis": args.samples_per_axis, "sigma": args.sigma, "span": args.span,
            "camera": camera.to_dict(), "layout_tags": len(layout),
            "reference_pose": reference.to_dict(), **config,
        },
        "seed": args.seed,
        "tool_version": __version__,
        "input_digests": {what: hashlib.sha256(Path(path).read_bytes()).hexdigest()
                          for what, path in given.items()},
    })


def _load_config(path: str | None, default, parse, what: str):
    """``parse`` of the JSON ``what`` file at ``path``, or ``default()`` without one."""
    return default() if path is None else _load_json(Path(path), parse, what)


def _check_plate_projects(given: dict[str, str], camera: PinholeCamera, layout: TagLayout,
                          reference: RigidTransform, compliance: ComplianceModel) -> None:
    """Observe the plate at rest once, without noise, when a camera or layout
    file is ``given`` (by kind): a value such a file accepts (an fx or a tag
    x of 1e308) can still make the projection non-finite, or put a corner
    outside the image, and the error names the file."""
    if given:
        try:
            synthesize_frame(camera, layout, reference, Wrench(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                             compliance, NoiseModel(corner_sigma=0.0))
        except ValidationFailure as exc:
            raise _malformed(" and ".join(given.values()), None, " and ".join(given),
                             exc) from exc


def _frame_lines(numbered_frames):
    """The frames.jsonl line of each (number, frame) pair, byte for byte ``json.dumps(row,
    sort_keys=True)`` (json writes ints and finite floats as repr). The text fixed by ids,
    corners and reference points is a %-template, rebuilt only when those arrays are not
    the previous frame's: consecutive sets of one table share them (see ``CorrespondenceSet``)."""
    key = template = None
    for i, corrs in numbered_frames:
        table = (corrs.tag_ids, corrs.corner_idx, corrs.ref)
        if key is None or not all(map(operator.is_, table, key)):
            key = table
            entries = (f'{{"corner": {c}, "img_px": [%r, %r], "ref_mm": [{x!r}, {y!r}, {z!r}], '
                       f'"tag_id": {t}}}' for t, c, (x, y, z) in zip(
                           corrs.tag_ids.tolist(), corrs.corner_idx.tolist(), corrs.ref.tolist()))
            template = '{"entries": [' + ", ".join(entries) + '], "frame": %d, "timestamp_s": %r}\n'
        yield template % (*corrs.img.ravel().tolist(), i, i * CONTROL_INTERVAL_S)


def _checked(values: list, name: str, read, types: set) -> list:
    """``values``, each held to ``read`` (``read_number`` or ``read_integer``).
    One set of element types per list keeps the per-value call off the
    common path: ``types`` are the types that need no call."""
    if not set(map(type, values)) <= types:
        for v in values:
            read(v, name)
    return values


def _coordinates(entries, key: str, width: int) -> np.ndarray:
    """The ``key`` lists of ``entries`` as an (n, width) array; each list
    must hold ``width`` JSON numbers (a boolean or a numeric string is not
    one)."""
    rows = [e[key] for e in entries]
    if not set(map(len, rows)) <= {width}:
        raise ValidationFailure(f"{key} must hold {width} numbers")
    flat = _checked(list(chain.from_iterable(rows)), key, read_number, {float, int})
    # reshape gives an empty frame its (0, width) shape.
    return np.array(flat, dtype=np.float64).reshape(len(rows), width)


def _corrs_from_row(row: dict) -> CorrespondenceSet:
    entries = row["entries"]
    return CorrespondenceSet(
        tag_ids=_checked([e["tag_id"] for e in entries], "tag_id", read_integer, {int}),
        corner_idx=_checked([e["corner"] for e in entries], "corner", read_integer, {int}),
        ref=_coordinates(entries, "ref_mm", 3),
        img=_coordinates(entries, "img_px", 2),
    )


def _sweep_csv(fh):
    """A csv writer on ``fh`` that has written the sweep CSV header."""
    writer = csv.writer(fh)
    writer.writerow(SWEEP_HEADER)
    return writer


def _write_sweep_rows(writer, axes, magnitudes, wrenches: np.ndarray,
                      deltas: np.ndarray) -> None:
    """One row per sample: axis, magnitude, then its rows of ``wrenches`` and ``deltas``."""
    for axis, magnitude, wrench, delta in zip(axes, magnitudes, wrenches.tolist(),
                                              deltas.tolist()):
        writer.writerow([axis, repr(magnitude)] + [repr(v) for v in wrench + delta])


def _read_sweep_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(deformations, wrenches) of a sweep CSV as two (n, 6) arrays, each line
    decoded as strict UTF-8 and each row checked by the value types as it is
    read: the first bad row in file order names its physical line."""
    rows = []
    with path.open("rb") as fh:
        reader = csv.DictReader(raw.decode("utf-8") for raw in fh)
        try:
            missing = set(SWEEP_HEADER) - set(reader.fieldnames or [])
            if not missing:
                for row in reader:
                    values = [float(row[k]) for k in SWEEP_HEADER[2:]]
                    Wrench.from_array(values[:6])
                    DeformationVector.from_array(values[6:])
                    rows.append(values)
        except _MALFORMED as exc:
            # The csv reader counts each line it receives before parsing it
            # (DictReader.line_num lags on an error); a line that fails to
            # decode never reaches it.
            lineno = reader.reader.line_num + isinstance(exc, UnicodeDecodeError)
            raise _malformed(path, lineno, "sweep row", exc) from exc
    if missing:
        raise _malformed(path, None, "sweep CSV", ValueError(f"missing columns {sorted(missing)}"))
    values = np.array(rows, dtype=np.float64).reshape(len(rows), 12)
    return values[:, 6:], values[:, :6]


# ---------------------------------------------------------------- layout

def _cmd_layout(args) -> int:
    layout = default_layout(
        tag_size=args.tag_size,
        border=args.border,
        grid_pitch=args.grid_pitch,
        ring_radius=args.ring_radius,
        ring_spread=args.ring_spread,
    )
    payload = layout.to_dict()
    if args.out is None:
        json.dump(payload, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    else:
        _dump_json(Path(args.out), payload)
        _info(args, f"wrote {len(layout)} tags to {args.out}")
    return 0


# -------------------------------------------------------------- simulate

def _sweep_plan(compliance, noise_sigma, occlusion, seed, axes, samples_per_axis: int,
                span: float):
    """The noise model and the (axis, magnitudes) of each sweep of a run: every
    setting is checked before a frame is drawn or an output allocated."""
    noise = NoiseModel(corner_sigma=noise_sigma, occlusion_probability=occlusion,
                       seed=derive_seed(seed, "simulate"))
    return noise, [(axis, axis_magnitudes(compliance, axis, samples_per_axis, span))
                   for axis in axes]


def _write_sweep(sweep_csv, frames_fh, first: int, axis: int, magnitudes: np.ndarray,
                 wrenches: np.ndarray, deformations: np.ndarray,
                 frames: list[CorrespondenceSet]) -> None:
    """Append one sweep to sweep.csv and frames.jsonl; its frames are numbered from ``first``."""
    _write_sweep_rows(sweep_csv, repeat(axis), magnitudes.tolist(), wrenches, deformations)
    frames_fh.writelines(_frame_lines(enumerate(frames, first)))


def _unstaged(_stage: str, fn, *fn_args):
    return fn(*fn_args)


def _simulated_frames(out_dir: Path, plan, camera, layout, reference, compliance, noise,
                      run=_unstaged):
    """Draw the sweep of each (axis, magnitudes) of ``plan`` in turn, append it to
    sweep.csv and frames.jsonl in ``out_dir``, then yield its frames in run order,
    each as (axis, magnitude, wrench, frame). One sweep is held at a time.
    ``run(stage, fn, *args)`` makes each call: drawing a sweep is stage
    'simulate', writing it 'write'."""
    with (out_dir / "sweep.csv").open("w", encoding="utf-8", newline="") as sweep_fh, \
            (out_dir / "frames.jsonl").open("w", encoding="utf-8") as frames_fh:
        sweep_csv = _sweep_csv(sweep_fh)
        first = 0
        for axis, magnitudes in plan:
            wrenches, deformations, frames = run("simulate", sweep_dataset, axis, magnitudes,
                                                 camera, layout, reference, compliance, noise)
            run("write", _write_sweep, sweep_csv, frames_fh, first, axis, magnitudes,
                wrenches, deformations, frames)
            yield from zip(repeat(axis), magnitudes.tolist(), wrenches, frames)
            first += len(frames)
            # Not held while the next sweep is drawn.
            del wrenches, deformations, frames


def _cmd_simulate(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    camera = _load_config(args.camera, default_camera, PinholeCamera.from_dict, "camera")
    layout = _load_config(args.layout, default_layout, TagLayout.from_dict, "layout")
    compliance = default_compliance()
    reference = default_reference_pose()
    given = {what: path for what, path in (("camera", args.camera), ("layout", args.layout))
             if path is not None}
    _check_plate_projects(given, camera, layout, reference, compliance)
    axes = range(6) if args.axis == "all" else [int(args.axis)]

    noise, plan = _sweep_plan(compliance, args.sigma, args.occlusion, args.seed, axes,
                              args.samples_per_axis, args.span)
    count = sum(1 for _ in _simulated_frames(out_dir, plan, camera, layout, reference,
                                             compliance, noise))
    _write_manifest(out_dir, args, camera, layout, reference, given,
                    axis=args.axis, occlusion=args.occlusion)
    _info(args, f"wrote {count} frames to {out_dir}")
    return 0


# -------------------------------------------------------------- estimate

def _solver_tally(estimates: list[PoseEstimate]) -> Counter:
    """The counts ``_solver_summary`` reports; the tallies of a run's pieces add up."""
    return Counter(frames=len(estimates), not_converged=sum(not e.converged for e in estimates),
                   iterations=sum(e.iterations_used for e in estimates))


def _solver_summary(tally: Counter) -> str:
    iterations = tally["iterations"] / max(tally["frames"], 1)
    return f"{tally['not_converged']} not converged, {iterations:.2f} LM iterations per frame"


def _r2_summary(report: CalibrationReport) -> str:
    return "r2_test per axis: " + ", ".join(f"{m.axis}:{m.r2_test:.5f}" for m in report.models)


def _cmd_estimate(args) -> int:
    camera = _load_config(args.camera, default_camera, PinholeCamera.from_dict, "camera")
    frames = _load_jsonl(Path(args.frames), lambda row: (
        read_integer(row["frame"], "frame"), _corrs_from_row(row)), "frame row")
    # A value the camera file accepts (an fx of 1e308) can still overflow the
    # projection; the first frame at rest shows it, and the error names the file.
    if args.camera is not None and frames and not np.isfinite(
            _pinhole(camera, default_reference_pose().apply(frames[0][1].ref))).all():
        raise _malformed(args.camera, None, "camera", ValueError(
            "the first frame projects to non-finite pixels at the reference pose"))
    estimates = estimate_poses(camera, [corrs for _, corrs in frames],
                               allow_single_tag=args.allow_single_tag)
    with Path(args.out).open("w", encoding="utf-8") as fh:
        _write_jsonl(fh, ({"frame": frame, **estimate.to_dict()}
                          for (frame, _), estimate in zip(frames, estimates)))
    _info(args, f"estimated {len(estimates)} poses to {args.out}; "
                f"{_solver_summary(_solver_tally(estimates))}")
    return 0


# ------------------------------------------------------------- calibrate

def _write_scatter_csv(path: Path, x: np.ndarray, y: np.ndarray,
                       report: CalibrationReport) -> None:
    train_idx, _ = split_indices(y, report.split_fraction, report.split_seed)
    train_set = set(train_idx.tolist())
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["wrench_axis", "sample", "actual", "predicted", "subset"])
        for axis in range(6):
            predicted = report.models[axis].predict(x)
            for i, (actual, value) in enumerate(zip(y[:, axis].tolist(), predicted.tolist())):
                writer.writerow([axis, i, repr(actual), repr(value),
                                 "train" if i in train_set else "test"])


def _cmd_calibrate(args) -> int:
    x, y = _read_sweep_csv(Path(args.data))
    report = calibrate(x, y, split_fraction=args.split, seed=args.seed)
    _dump_json(Path(args.out), report.to_dict())
    if args.scatter_csv:
        _write_scatter_csv(Path(args.scatter_csv), x, y, report)
    _info(args, _r2_summary(report))
    return 0


# ------------------------------------------------------------ sensitivity

def _sensitivity_payload(params: DetectionParams, report: CalibrationReport) -> dict:
    pose_floor, wrench_floor = analyze(params, report)
    return {
        "delta_l_min_mm": pose_floor.dl_x,
        "delta_theta_min_rad": pose_floor.dtheta_x,
        "pose_floor": pose_floor.as_array().tolist(),
        "euler_convention": EULER_CONVENTION,
        "wrench_floor": wrench_floor.as_array().tolist(),
        "units": {"force": "mN", "torque": "mN*m (= N*mm)"},
        "params": params.to_dict(),
    }


def _cmd_sensitivity(args) -> int:
    params = _load_config(args.params, DetectionParams, DetectionParams.from_dict,
                          "detection params")
    # A report that gives no wrench floor is as bad a file as a malformed one.
    payload = _load_json(Path(args.calib), lambda data: _sensitivity_payload(
        params, CalibrationReport.from_dict(data)), "calibration report")
    _dump_json(Path(args.out), payload)
    _info(args, f"wrote sensitivity analysis to {args.out}")
    return 0


# ---------------------------------------------------------------- monitor

def _joints(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValidationFailure(f"{flag} must be comma-separated numbers, got {text!r}") from exc


def _cmd_monitor(args) -> int:
    # The preset is validated first, then fills whichever of --threshold and --frames is unset.
    preset = (None if args.object is None
              else config_for_object(args.object, debounce_frames=args.debounce))
    if preset is None and (args.threshold is None or args.frames_count is None):
        raise ValidationFailure("provide --object or both --threshold and --frames")
    config = ContactConfig(
        threshold_mm=preset.threshold_mm if args.threshold is None else args.threshold,
        total_frames=preset.total_frames if args.frames_count is None else args.frames_count,
        debounce_frames=args.debounce,
    )

    poses = _load_jsonl(Path(args.poses), PoseEstimate.from_dict, "pose row")
    traj = ApproachTrajectory(start_joints=_joints(args.start_joints, "--start-joints"),
                              target_joints=_joints(args.target_joints, "--target-joints"),
                              total_frames=config.total_frames)
    # The flags are checked above: what fails here is the poses file.
    try:
        result = run_episode(traj, config, iter(poses))
    except ValidationFailure as exc:
        raise _malformed(args.poses, None, "pose stream", exc) from exc
    payload = {"object": args.object,
               "config": {**asdict(config), "control_interval_s": CONTROL_INTERVAL_S},
               **asdict(result)}
    _dump_json(Path(args.out), payload)
    if result.event is not None:
        _info(args, f"contact at frame {result.event.frame_index}")
    else:
        _info(args, "no contact")
    return 0


# ---------------------------------------------------------------- pipeline

def _stage(took: dict[str, float], name: str, fn, *fn_args, **fn_kwargs):
    """``fn``'s result; its wall time in seconds adds to ``took[name]``, and a
    RingSenseError names the stage."""
    start = time.perf_counter()
    try:
        return fn(*fn_args, **fn_kwargs)
    except RingSenseError as exc:
        raise type(exc)(f"stage '{name}': {exc}") from exc
    finally:
        took[name] = took.get(name, 0.0) + time.perf_counter() - start


def _cmd_pipeline(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    camera = default_camera()
    layout = default_layout()
    compliance = default_compliance()
    reference = default_reference_pose()

    took: dict[str, float] = {}
    stage = functools.partial(_stage, took)

    noise, plan = stage("simulate", _sweep_plan, compliance, args.sigma, 0.0, args.seed,
                        range(6), args.samples_per_axis, args.span)
    count = sum(len(magnitudes) for _, magnitudes in plan)
    wrenches, deltas = np.empty((count, 6)), np.empty((count, 6))
    tally = Counter()
    # Chunks of CHUNK_FRAMES frames counted over the whole run, so a chunk may
    # span two sweeps: full chunks are faster than chunks restarted at each
    # sweep, which would end every sweep with a short one.
    with closing(_simulated_frames(out_dir, plan, camera, layout, reference, compliance,
                                   noise, stage)) as frames, \
            (out_dir / "poses.jsonl").open("w", encoding="utf-8") as poses_fh, \
            (out_dir / "sweep_estimated.csv").open("w", encoding="utf-8", newline="") as est_fh:
        estimated_csv = _sweep_csv(est_fh)
        for chunk in iter(lambda: list(islice(frames, CHUNK_FRAMES)), []):
            axes, magnitudes, chunk_wrenches, chunk_frames = zip(*chunk)
            estimates = stage("estimate", estimate_poses, camera, chunk_frames)
            rows = slice(tally["frames"], tally["frames"] + len(chunk))
            _write_jsonl(poses_fh, ({"frame": i, **e.to_dict()}
                                    for i, e in enumerate(estimates, rows.start)))
            wrenches[rows] = chunk_wrenches
            deltas[rows] = [delta_from_poses(reference, e.pose).as_array() for e in estimates]
            _write_sweep_rows(estimated_csv, axes, magnitudes, wrenches[rows], deltas[rows])
            tally.update(_solver_tally(estimates))
    _info(args, f"simulated {tally['frames']} frames in {took['simulate']:.3g} s")
    _info(args, f"wrote sweep.csv and frames.jsonl in {took['write']:.3g} s")
    _info(args, f"estimated {tally['frames']} poses in {took.get('estimate', 0.0):.3g} s; "
                f"{_solver_summary(tally)}")

    report = stage("calibrate", calibrate, deltas, wrenches, split_fraction=args.split,
                   seed=derive_seed(args.seed, "calibrate") % 2**32)
    _dump_json(out_dir / "calib.json", report.to_dict())
    _info(args, f"calibrated in {took['calibrate']:.3g} s; {_r2_summary(report)}")

    payload = stage("sensitivity", _sensitivity_payload, DetectionParams(), report)
    _dump_json(out_dir / "sensitivity.json", payload)
    _info(args, f"analyzed sensitivity in {took['sensitivity']:.3g} s")

    _write_manifest(out_dir, args, camera, layout, reference, {}, split=args.split)
    _info(args, f"wrote pipeline outputs to {out_dir}")
    return 0


# ------------------------------------------------------------------ main

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValidationFailure (exit 1),
    not SystemExit(2); its subparsers are built from this class too."""

    def error(self, message: str):
        raise ValidationFailure(message)


def _add_common(parser, out_required: bool = True, seed: bool = False) -> None:
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument("--out", required=out_required, help="output path")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ringsense",
        description="Fiducial-based tactile sensing math on synthetic data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_layout = sub.add_parser("layout", help="emit a tag layout file")
    layout_sub = p_layout.add_subparsers(dest="layout_command", required=True)
    p_emit = layout_sub.add_parser("emit", help="write the (parametrized) default layout")
    p_emit.add_argument("--tag-size", type=float, default=2.0)
    p_emit.add_argument("--border", type=float, default=0.2)
    p_emit.add_argument("--grid-pitch", type=float, default=2.6)
    p_emit.add_argument("--ring-radius", type=float, default=8.0)
    p_emit.add_argument("--ring-spread", type=float, default=1.0)
    _add_common(p_emit, out_required=False)
    p_emit.set_defaults(handler=_cmd_layout)

    p_sim = sub.add_parser("simulate", help="synthesize a single-axis sweep dataset")
    p_sim.add_argument("--axis", default="all", choices=["all", "0", "1", "2", "3", "4", "5"])
    p_sim.add_argument("--samples-per-axis", type=int, default=170)
    p_sim.add_argument("--sigma", type=float, default=0.25, help="corner noise std (px)")
    p_sim.add_argument("--occlusion", type=float, default=0.0,
                       help="per-tag dropout probability")
    p_sim.add_argument("--span", type=float, default=0.8,
                       help="fraction of the deformation limit to sweep")
    p_sim.add_argument("--camera", default=None, help="camera intrinsics JSON")
    p_sim.add_argument("--layout", default=None, help="layout JSON")
    _add_common(p_sim, seed=True)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate plate poses from correspondences")
    p_est.add_argument("--camera", default=None, help="camera intrinsics JSON")
    p_est.add_argument("--frames", required=True, help="correspondences JSONL")
    p_est.add_argument("--allow-single-tag", action="store_true",
                       help="accept degraded 1-tag (4-corner) frames")
    _add_common(p_est)
    p_est.set_defaults(handler=_cmd_estimate)

    p_cal = sub.add_parser("calibrate", help="fit the linear pose-to-wrench map")
    p_cal.add_argument("--data", required=True, help="sweep CSV")
    p_cal.add_argument("--split", type=float, default=0.8)
    p_cal.add_argument("--scatter-csv", default=None,
                       help="also write per-sample truth/prediction rows")
    _add_common(p_cal, seed=True)
    p_cal.set_defaults(handler=_cmd_calibrate)

    p_sens = sub.add_parser("sensitivity", help="minimum detectable pose and wrench")
    p_sens.add_argument("--params", default=None, help="detection params JSON")
    p_sens.add_argument("--calib", required=True, help="calibration report JSON")
    _add_common(p_sens)
    p_sens.set_defaults(handler=_cmd_sensitivity)

    p_mon = sub.add_parser("monitor", help="run contact detection over a pose stream")
    p_mon.add_argument("--object", default=None,
                       help=f"preset name ({', '.join(OBJECT_PRESETS)})")
    p_mon.add_argument("--threshold", type=float, default=None, help="override threshold (mm)")
    p_mon.add_argument("--frames", dest="frames_count", type=int, default=None,
                       help="override total approach frames")
    p_mon.add_argument("--debounce", type=int, default=1)
    p_mon.add_argument("--poses", required=True, help="poses JSONL")
    p_mon.add_argument("--start-joints", default="0.0")
    p_mon.add_argument("--target-joints", default="1.0")
    _add_common(p_mon)
    p_mon.set_defaults(handler=_cmd_monitor)

    p_pipe = sub.add_parser("pipeline", help="simulate, estimate, calibrate, sensitivity")
    p_pipe.add_argument("--samples-per-axis", type=int, default=170)
    p_pipe.add_argument("--sigma", type=float, default=0.25)
    p_pipe.add_argument("--span", type=float, default=0.8)
    p_pipe.add_argument("--split", type=float, default=0.8)
    _add_common(p_pipe, seed=True)
    p_pipe.set_defaults(handler=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Non-finite values end in the finiteness checks' one-line errors;
        # numpy's floating-point warnings would only add lines to stderr.
        with np.errstate(all="ignore"):
            return args.handler(args)
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
