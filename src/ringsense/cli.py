"""Command-line entry point wiring all stages into reproducible pipelines.

Subcommands: layout, simulate, estimate, calibrate, sensitivity, monitor,
pipeline. All randomness flows from a single --seed; per-stage seeds are
derived by stable hashing of (seed, stage name). Commands that write into
an output directory leave exactly one manifest.json there; re-running with
identical arguments reproduces byte-identical numeric outputs. frames.jsonl
rows are formatted from a per-layout template, byte-identical to
json.dumps(row, sort_keys=True).

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import asdict
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    CalibrationConfig,
    CalibrationReport,
    calibrate,
    split_indices,
)
from .contact import (
    CONTROL_INTERVAL_S,
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
    PinholeCamera,
    default_camera,
    delta_from_poses,
)
from .layout import TagLayout, default_layout
# estimate_pose is not called here; the benchmark's tracer patches it in every
# importing module, and benchmarks/tests checks that through this one.
from .pnp import CorrespondenceSet, PoseEstimate, estimate_pose, estimate_poses  # noqa: F401
from .sensitivity import DetectionParams, analyze
from .simulator import (
    NoiseModel,
    axis_magnitudes,
    default_compliance,
    default_reference_pose,
    derive_seed,
    sweep_dataset,
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


def _dump_jsonl(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


# What a decoder, a parser or a ``from_dict`` raises on a malformed input file.
# UnicodeDecodeError and json.JSONDecodeError are ValueErrors; nesting too deep
# for json raises RecursionError, and a CSV field over the csv module's size
# limit raises csv.Error.
_MALFORMED = (LookupError, TypeError, ValueError, AttributeError, OverflowError,
              RecursionError, csv.Error, ValidationFailure)


def _malformed(path: Path, lineno: int | None, what: str, exc: Exception) -> ValidationFailure:
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


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, seed: int,
                    input_digests: dict[str, str]) -> None:
    _dump_json(out_dir / "manifest.json", {
        "command": command,
        "config": config,
        "seed": seed,
        "tool_version": __version__,
        "input_digests": input_digests,
    })


def _load_camera(path: str | None) -> PinholeCamera:
    if path is None:
        return default_camera()
    return _load_json(Path(path), PinholeCamera.from_dict, "camera")


def _load_layout(path: str | None) -> TagLayout:
    if path is None:
        return default_layout()
    return _load_json(Path(path), TagLayout.from_dict, "layout")


def _frame_lines(numbered_frames):
    """The frames.jsonl line of each (number, frame) pair, byte for byte ``json.dumps(row,
    sort_keys=True)`` (json writes ints and finite floats as repr). The text fixed by ids,
    corners and reference points is a %-template, rebuilt only when those bytes change."""
    key = template = None
    for i, corrs in numbered_frames:
        frame_key = (corrs.tag_ids.tobytes(), corrs.corner_idx.tobytes(), corrs.ref.tobytes())
        if frame_key != key:
            key = frame_key
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
        tag_ids=np.array(_checked([e["tag_id"] for e in entries], "tag_id",
                                  read_integer, {int}), dtype=np.int64),
        corner_idx=np.array(_checked([e["corner"] for e in entries], "corner",
                                     read_integer, {int}), dtype=np.int64),
        ref=_coordinates(entries, "ref_mm", 3),
        img=_coordinates(entries, "img_px", 2),
    )


def _write_sweep_csv(path: Path, axes, magnitudes, wrenches: np.ndarray,
                     deltas: np.ndarray) -> None:
    """One row per sample: axis, magnitude, then its rows of ``wrenches`` and ``deltas``."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        for axis, magnitude, wrench, delta in zip(axes, magnitudes, wrenches.tolist(),
                                                  deltas.tolist()):
            writer.writerow([axis, repr(magnitude)] + [repr(v) for v in wrench + delta])


def _read_sweep_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(deformations, wrenches) of a sweep CSV as two (n, 6) arrays, each line
    decoded as strict UTF-8; a bad row names its physical line."""
    lines, rows = [], []
    with path.open("rb") as fh:
        reader = csv.DictReader(raw.decode("utf-8") for raw in fh)
        try:
            missing = set(SWEEP_HEADER) - set(reader.fieldnames or [])
            if not missing:
                for row in reader:
                    rows.append([float(row[k]) for k in SWEEP_HEADER[2:]])
                    lines.append(reader.line_num)
        except _MALFORMED as exc:
            # The csv reader counts each line it receives before parsing it
            # (DictReader.line_num lags on an error); a line that fails to
            # decode never reaches it.
            lineno = reader.reader.line_num + isinstance(exc, UnicodeDecodeError)
            raise _malformed(path, lineno, "sweep row", exc) from exc
    if missing:
        raise _malformed(path, None, "sweep CSV", ValueError(f"missing columns {sorted(missing)}"))
    values = np.array(rows, dtype=np.float64).reshape(len(rows), 12)
    for bad, reason in (
        (~np.isfinite(values).all(axis=1), "values must be finite"),
        ((np.abs(values[:, 9:]) >= np.pi / 2).any(axis=1), "rotations must satisfy |angle| < pi/2"),
    ):
        if bad.any():
            raise _malformed(path, lines[np.argmax(bad)], "sweep row", ValueError(reason))
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

def _run_sweeps(camera, layout, reference, compliance, noise_sigma, occlusion, seed,
                axes: list[int], samples_per_axis: int, span: float):
    """One sweep per axis of ``axes``, concatenated: the axis and magnitude of
    each frame as two lists, the wrenches and deformations as two (n, 6)
    arrays, and the n frames."""
    noise = NoiseModel(corner_sigma=noise_sigma, occlusion_probability=occlusion,
                       seed=derive_seed(seed, "simulate"))
    frame_axes, magnitudes, wrenches, deformations, frames = [], [], [], [], []
    for axis in axes:
        axis_mags = axis_magnitudes(compliance, axis, samples_per_axis, span)
        w, d, f = sweep_dataset(axis, axis_mags, camera, layout, reference, compliance, noise,
                                stream_offset=axis * samples_per_axis)
        frame_axes += [axis] * len(f)
        magnitudes += axis_mags.tolist()
        wrenches.append(w)
        deformations.append(d)
        frames += f
    return frame_axes, magnitudes, np.concatenate(wrenches), np.concatenate(deformations), frames


def _write_simulation(out_dir: Path, axes, magnitudes, wrenches: np.ndarray,
                      deformations: np.ndarray, frames: list[CorrespondenceSet]) -> None:
    """Write sweep.csv and frames.jsonl, one row per frame."""
    _write_sweep_csv(out_dir / "sweep.csv", axes, magnitudes, wrenches, deformations)
    with (out_dir / "frames.jsonl").open("w", encoding="utf-8") as fh:
        fh.writelines(_frame_lines(enumerate(frames)))


def _cmd_simulate(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    camera = _load_camera(args.camera)
    layout = _load_layout(args.layout)
    compliance = default_compliance()
    reference = default_reference_pose()
    axes = list(range(6)) if args.axis == "all" else [int(args.axis)]

    sweep = _run_sweeps(camera, layout, reference, compliance, args.sigma,
                        args.occlusion, args.seed, axes, args.samples_per_axis, args.span)
    _write_simulation(out_dir, *sweep)
    config = {
        "axis": args.axis, "samples_per_axis": args.samples_per_axis,
        "sigma": args.sigma, "occlusion": args.occlusion, "span": args.span,
        "camera": camera.to_dict(), "layout_tags": len(layout),
        "reference_pose": reference.to_dict(),
    }
    digests = {name: _digest(Path(path))
               for name, path in (("camera", args.camera), ("layout", args.layout))
               if path is not None}
    _write_manifest(out_dir, "simulate", config, args.seed, digests)
    _info(args, f"wrote {len(sweep[-1])} frames to {out_dir}")
    return 0


# -------------------------------------------------------------- estimate

def _solver_summary(estimates: list[PoseEstimate]) -> str:
    not_converged = sum(not e.converged for e in estimates)
    iterations = sum(e.iterations_used for e in estimates) / max(len(estimates), 1)
    return f"{not_converged} not converged, {iterations:.2f} LM iterations per frame"


def _cmd_estimate(args) -> int:
    camera = _load_camera(args.camera)
    frames = _load_jsonl(Path(args.frames), lambda row: (
        read_integer(row["frame"], "frame"), _corrs_from_row(row)), "frame row")
    estimates = estimate_poses(camera, [corrs for _, corrs in frames],
                               allow_single_tag=args.allow_single_tag)
    _dump_jsonl(Path(args.out), ({"frame": frame, **estimate.to_dict()}
                                 for (frame, _), estimate in zip(frames, estimates)))
    _info(args, f"estimated {len(estimates)} poses to {args.out}; {_solver_summary(estimates)}")
    return 0


# ------------------------------------------------------------- calibrate

def _write_scatter_csv(path: Path, x: np.ndarray, y: np.ndarray,
                       report: CalibrationReport) -> None:
    train_idx, _ = split_indices(len(x), report.split_fraction, report.split_seed)
    train_set = set(train_idx.tolist())
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["wrench_axis", "sample", "input_value", "actual", "predicted", "subset"])
        for axis in range(6):
            model = report.model_for_axis(axis)
            inputs = x[:, model.input_component]
            for i, (value, actual, predicted) in enumerate(zip(
                    inputs.tolist(), y[:, axis].tolist(), model.predict(inputs).tolist())):
                writer.writerow([axis, i, repr(value), repr(actual), repr(predicted),
                                 "train" if i in train_set else "test"])


def _cmd_calibrate(args) -> int:
    x, y = _read_sweep_csv(Path(args.data))
    report = calibrate(x, y, CalibrationConfig(
        degree=args.degree, split_fraction=args.split, seed=args.seed,
    ))
    _dump_json(Path(args.out), report.to_dict())
    if args.scatter_csv:
        _write_scatter_csv(Path(args.scatter_csv), x, y, report)
    _info(args, "r2_test per axis: " + ", ".join(
        f"{m.axis}:{m.r2_test:.5f}" for m in report.models))
    return 0


# ------------------------------------------------------------ sensitivity

def _sensitivity_payload(params: DetectionParams, report: CalibrationReport) -> dict:
    result = analyze(params, report)
    return {
        "delta_l_min_mm": result.delta_l_min,
        "delta_theta_min_rad": result.delta_theta_min,
        "pose_floor": result.pose_floor.as_array().tolist(),
        "euler_convention": EULER_CONVENTION,
        "wrench_floor": result.wrench_floor.as_array().tolist(),
        "units": {"force": "mN", "torque": "mN*m (= N*mm)"},
        "params": params.to_dict(),
    }


def _cmd_sensitivity(args) -> int:
    params = (DetectionParams() if args.params is None
              else _load_json(Path(args.params), DetectionParams.from_dict, "detection params"))
    report = _load_json(Path(args.calib), CalibrationReport.from_dict, "calibration report")
    _dump_json(Path(args.out), _sensitivity_payload(params, report))
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
    result = run_episode(traj, config, iter(poses))
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

def _stage(name: str, fn, *fn_args, **fn_kwargs):
    """``fn``'s result and wall time in seconds; a RingSenseError names the stage."""
    start = time.perf_counter()
    try:
        return fn(*fn_args, **fn_kwargs), time.perf_counter() - start
    except RingSenseError as exc:
        raise type(exc)(f"stage '{name}': {exc}") from exc


def _cmd_pipeline(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    camera = default_camera()
    layout = default_layout()
    compliance = default_compliance()
    reference = default_reference_pose()

    (axes, magnitudes, wrenches, deformations, frames), took = _stage(
        "simulate", _run_sweeps, camera, layout, reference, compliance,
        args.sigma, 0.0, args.seed, list(range(6)), args.samples_per_axis, args.span)
    _info(args, f"simulated {len(frames)} frames in {took:.3g} s")
    _, took = _stage("write", _write_simulation, out_dir, axes, magnitudes, wrenches,
                     deformations, frames)
    _info(args, f"wrote sweep.csv and frames.jsonl in {took:.3g} s")

    estimates, took = _stage("estimate", estimate_poses, camera, frames)
    _dump_jsonl(out_dir / "poses.jsonl",
                ({"frame": i, **e.to_dict()} for i, e in enumerate(estimates)))
    deltas = np.array([delta_from_poses(reference, e.pose).as_array()
                       for e in estimates]).reshape(-1, 6)
    _write_sweep_csv(out_dir / "sweep_estimated.csv", axes, magnitudes, wrenches, deltas)
    _info(args, f"estimated {len(estimates)} poses in {took:.3g} s; {_solver_summary(estimates)}")

    report, took = _stage("calibrate", calibrate, deltas, wrenches, CalibrationConfig(
        degree=1, split_fraction=args.split,
        seed=derive_seed(args.seed, "calibrate") % 2**32,
    ))
    _dump_json(out_dir / "calib.json", report.to_dict())
    _info(args, f"calibrated in {took:.3g} s; r2_test per axis: " + ", ".join(
        f"{m.axis}:{m.r2_test:.5f}" for m in report.models))

    payload, took = _stage("sensitivity", _sensitivity_payload, DetectionParams(), report)
    _dump_json(out_dir / "sensitivity.json", payload)
    _info(args, f"analyzed sensitivity in {took:.3g} s")

    config = {
        "samples_per_axis": args.samples_per_axis, "sigma": args.sigma,
        "span": args.span, "degree": 1, "split": args.split,
        "camera": camera.to_dict(), "layout_tags": len(layout),
        "reference_pose": reference.to_dict(),
    }
    _write_manifest(out_dir, "pipeline", config, args.seed, {})
    _info(args, f"wrote pipeline outputs to {out_dir}")
    return 0


# ------------------------------------------------------------------ main

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValidationFailure (exit 1),
    not SystemExit(2); its subparsers are built from this class too."""

    def error(self, message: str):
        raise ValidationFailure(message)


def _add_common(parser, out_required: bool = True) -> None:
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
    _add_common(p_sim)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate plate poses from correspondences")
    p_est.add_argument("--camera", default=None, help="camera intrinsics JSON")
    p_est.add_argument("--frames", required=True, help="correspondences JSONL")
    p_est.add_argument("--allow-single-tag", action="store_true",
                       help="accept degraded 1-tag (4-corner) frames")
    _add_common(p_est)
    p_est.set_defaults(handler=_cmd_estimate)

    p_cal = sub.add_parser("calibrate", help="fit per-axis pose-to-wrench models")
    p_cal.add_argument("--data", required=True, help="sweep CSV")
    p_cal.add_argument("--degree", type=int, default=1, choices=[1, 3])
    p_cal.add_argument("--split", type=float, default=0.8)
    p_cal.add_argument("--scatter-csv", default=None,
                       help="also write per-sample truth/prediction rows")
    _add_common(p_cal)
    p_cal.set_defaults(handler=_cmd_calibrate)

    p_sens = sub.add_parser("sensitivity", help="minimum detectable pose and wrench")
    p_sens.add_argument("--params", default=None, help="detection params JSON")
    p_sens.add_argument("--calib", required=True, help="calibration report JSON")
    _add_common(p_sens)
    p_sens.set_defaults(handler=_cmd_sensitivity)

    p_mon = sub.add_parser("monitor", help="run contact detection over a pose stream")
    p_mon.add_argument("--object", default=None,
                       help="preset name (chip, eggshell, cone, cookie, balloon, "
                            "pencil, paper, paper_cup, grape, seaweed)")
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
    _add_common(p_pipe)
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
