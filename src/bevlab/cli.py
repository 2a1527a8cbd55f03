"""Command-line front door with three commands: `run` the pipeline on
synthetic scenes, `viz` a feature map, and `verify` the implementation.

`run --out DIR` writes the same files in every mode: per scene i
scene_i.json, bev_camera_i.bfk, bev_fuse_i.bfk and heatmaps_i.bfk (also
for `learnable` queries, which do not select from them), then
detections.json (the final decoder layer's boxes and class scores),
summary.json (per scene; a scene with boxes adds ray_smear, heatmap_loss)
and trace.json, each scene's wall time in seconds per stage (vt, fuse,
select, decoder; the first scene's include the process's cold start; vt
excludes building the parameter-free vanilla sampling, a scene input).
Every JSON file is compact, with sorted keys and a closing newline; json
writes non-finite floats as NaN, Infinity and -Infinity.

Given (config, seed), every file but trace.json is byte-identical across
reruns. It is also byte-identical under one and two OpenBLAS threads, as
measured at DEFAULTS in every VT mode and with `standard` attention:
attention works in tiles whose products give the same bits under either
(`autodiff._TILE_BYTES`).

Exit codes: 0 success, 1 verification failures, 2 invalid config or input
file, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import bfk
from .decoder import gaussian_focal_loss
from .geometry import BevGrid
from .pipeline import PipelineConfig, forward, init_params
from .query_select import DEFAULT_GROUPS, GroupSpec, gaussian_target
from .scene_sim import (SceneConfig, make_scene, ray_smear_metric,
                        scene_to_json)


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "seed": 0,
    "threads": 1,
    "model": {
        "channels": 32,
        "n_heights": 4,
        "n_points": 16,
        "n_layers": 6,
        "n_heads": 8,
        "queries_per_group": 150,
        "groups": [list(g) for g in DEFAULT_GROUPS],
        "vt_mode": "asap",
        "query_init": "mixed_groupwise",
        "attention_mode": "geometry_aware",
    },
    "grid": {
        "x_range": [-54.0, 54.0],
        "y_range": [-54.0, 54.0],
        "z_range": [-5.0, 3.0],
        "cells": [180, 180],
    },
    "scene": {
        "n_scenes": 1,
        "seed": 0,
        "n_boxes": 5,
        "noise_std": 0.0,
        "image_size": [128, 128],
        "strides": [4, 8],
        "n_cameras": 6,
        "cam_height": 1.8,
        "fov_deg": 70.0,
        "classes": None,
        "fixed_dims": None,
    },
}


# JSON types a value may take, by the type of its default (a bool is not
# an int here); values whose default is a string or null are checked later
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               list: ((list,), "a list")}


def _check_type(name, default, value):
    allowed, kind = _JSON_TYPES.get(type(default), (None, None))
    if allowed and (isinstance(value, bool) or not isinstance(value, allowed)):
        raise ConfigError(f"'{name}' must be {kind}, got {value!r}")


def _merge_section(name, defaults, given):
    if not isinstance(given, dict):
        raise ConfigError(f"section '{name}' must be an object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in '{name}': {sorted(unknown)}")
    out = dict(defaults)
    out.update(given)
    for key, value in given.items():
        _check_type(f"{name}.{key}", defaults[key], value)
    return out


def validate_config(doc):
    """Strict-schema validation: unknown keys are rejected at every level."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(doc) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    cfg = {}
    for key, default in DEFAULTS.items():
        if isinstance(default, dict):
            cfg[key] = _merge_section(key, default, doc.get(key, {}))
        else:
            cfg[key] = doc.get(key, default)
            _check_type(key, default, cfg[key])

    if cfg["threads"] != 1:
        # kept in the schema only for the benchmark's provenance
        raise ConfigError("threads must be 1: bevlab runs on one thread")
    s = cfg["scene"]
    if cfg["seed"] < 0 or s["seed"] < 0:
        raise ConfigError("seeds must be >= 0")
    if s["n_scenes"] < 1:
        raise ConfigError("scene.n_scenes must be >= 1")
    return cfg


def build_configs(cfg):
    """PipelineConfig and SceneConfig from a validated config document;
    the configs themselves check the modes and the model's shape."""
    g = cfg["grid"]
    m = cfg["model"]
    s = cfg["scene"]
    try:
        grid = BevGrid(tuple(g["x_range"]), tuple(g["y_range"]),
                       tuple(g["z_range"]), tuple(g["cells"]))
        groups = GroupSpec(tuple(tuple(x) for x in m["groups"]),
                           m["queries_per_group"])
        pipeline = PipelineConfig(
            grid=grid, channels=m["channels"], n_heights=m["n_heights"],
            strides=tuple(s["strides"]), groups=groups, n_points=m["n_points"],
            n_layers=m["n_layers"], n_heads=m["n_heads"], vt_mode=m["vt_mode"],
            query_init=m["query_init"], attention_mode=m["attention_mode"])
        scene_cfg = SceneConfig(
            grid=grid, channels=m["channels"], n_boxes=s["n_boxes"],
            noise_std=s["noise_std"], image_size=tuple(s["image_size"]),
            strides=tuple(s["strides"]), n_cameras=s["n_cameras"],
            cam_height=s["cam_height"], fov_deg=s["fov_deg"],
            classes=tuple(s["classes"]) if s["classes"] is not None else
            SceneConfig.__dataclass_fields__["classes"].default,
            fixed_dims=(tuple(s["fixed_dims"]) if s["fixed_dims"] is not None
                        else None))
        if max(scene_cfg.classes) >= groups.n_classes:
            raise ValueError(
                f"scene class {max(scene_cfg.classes)} has no query group: "
                f"the groups cover classes 0..{groups.n_classes - 1}")
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    return pipeline, scene_cfg


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    return validate_config(doc)


def _json_dump(path, obj):
    """Write obj as compact JSON with sorted keys and a closing newline, in
    one write. `json.dumps` encodes in C; `json.dump` would stream the
    document through json's pure-Python encoder, several times slower."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# commands


def _make_scenes(cfg, scene_cfg, n_scenes):
    """The config's first n_scenes scenes; boxes that cannot all be placed
    are a config error, found only by trying, since placement is random."""
    try:
        return [make_scene(scene_cfg, seed=cfg["scene"]["seed"] + i)
                for i in range(n_scenes)]
    except RuntimeError as exc:
        raise ConfigError(str(exc)) from exc


def _make_out_dir(out_dir):
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory: {exc}") from exc


def cmd_run(config_path, out_dir):
    cfg = load_config(config_path)
    pipeline_cfg, scene_cfg = build_configs(cfg)
    scenes = _make_scenes(cfg, scene_cfg, cfg["scene"]["n_scenes"])
    _make_out_dir(out_dir)

    params = init_params(pipeline_cfg, seed=cfg["seed"])

    detections = []
    summary_scenes = []
    trace_scenes = []
    for i, scene in enumerate(scenes):
        _json_dump(os.path.join(out_dir, f"scene_{i}.json"),
                   scene_to_json(scene))
        det, diag, extras = forward(pipeline_cfg, params, scene)
        detections.append(det)
        trace_scenes.append({"scene": i, "stage_s": extras["stage_times"]})

        bfk.save(os.path.join(out_dir, f"bev_camera_{i}.bfk"),
                 extras["bev_camera"])
        bfk.save(os.path.join(out_dir, f"bev_fuse_{i}.bfk"), extras["bev_fuse"])
        bfk.save(os.path.join(out_dir, f"heatmaps_{i}.bfk"), extras["heatmaps"])

        entry = {
            "scene": i,
            "n_boxes": len(scene.boxes),
            "validity_fraction_mean": float(diag.validity_fraction.mean()),
        }
        if scene.boxes:
            entry["ray_smear"] = ray_smear_metric(extras["bev_camera"], scene,
                                                  pipeline_cfg.grid)
            targets = gaussian_target(scene.boxes, pipeline_cfg.grid,
                                      pipeline_cfg.groups.n_classes)
            entry["heatmap_loss"] = float(
                gaussian_focal_loss(extras["heatmaps"], targets))
        summary_scenes.append(entry)

    _json_dump(os.path.join(out_dir, "detections.json"),
               [{"layers": det.to_json_dict(pipeline_cfg.grid), "scene": i}
                for i, det in enumerate(detections)])
    _json_dump(os.path.join(out_dir, "summary.json"), {
        "n_scenes": cfg["scene"]["n_scenes"],
        "n_queries": pipeline_cfg.groups.n_queries,
        "n_groups": pipeline_cfg.groups.n_groups,
        "queries_per_group": pipeline_cfg.groups.queries_per_group,
        "vt_mode": pipeline_cfg.vt_mode,
        "query_init": pipeline_cfg.query_init,
        "attention_mode": pipeline_cfg.attention_mode,
        "scenes": summary_scenes,
    })
    _json_dump(os.path.join(out_dir, "trace.json"), {"scenes": trace_scenes})
    return 0


def cmd_viz(tensor_path, out_path, channel=None, points=None):
    try:
        arr = bfk.load(tensor_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load tensor: {exc}") from exc
    if arr.ndim != 3:
        raise ConfigError(f"viz needs a rank-3 tensor, got rank {arr.ndim}")
    if arr.size == 0:
        raise ConfigError(f"viz needs a tensor with values, got extents "
                          f"{list(arr.shape)}")
    if channel is not None:
        if not (0 <= channel < arr.shape[0]):
            raise ConfigError(f"channel {channel} out of range")
        img = arr[channel]
    else:
        # default: per-cell channel norm
        img = np.sqrt(np.sum(arr ** 2, axis=0))
    if not np.isfinite(img).all():
        raise ConfigError("viz renders finite values only; the tensor "
                          "holds NaN or inf")

    lo, hi = float(img.min()), float(img.max())
    if hi == lo:
        pix = np.full(img.shape, 128, dtype=np.uint8)
    else:
        pix = np.round((img - lo) / (hi - lo) * 255.0).astype(np.uint8)

    if points is not None:
        try:
            with open(points) as fh:
                pts = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read points file: {exc}") from exc
        # json gives exact ints and floats; a bool is no coordinate
        if not (isinstance(pts, list) and all(
                isinstance(p, list) and len(p) == 2 and all(
                    type(v) is int or type(v) is float and math.isfinite(v)
                    for v in p) for p in pts)):
            raise ConfigError("points must be a list of finite [x, y] pairs")
        H, W = pix.shape
        for x, y in pts:
            xi, yi = int(round(x)), int(round(y))
            if 0 <= xi < W and 0 <= yi < H:
                pix[yi, xi] = 255

    try:
        fh = open(out_path, "wb")
    except OSError as exc:
        raise ConfigError(f"cannot write image: {exc}") from exc
    with fh:
        fh.write(b"P5\n%d %d\n255\n" % (pix.shape[1], pix.shape[0]))
        fh.write(pix.tobytes())
    return 0


def cmd_verify(suite="all", seed=0):
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    from .verify import run_suites

    results = run_suites(suite, seed=seed)
    width = max(len(name) for name, _, _ in results)
    failures = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name.ljust(width)}  {detail}")
        failures += not ok
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="bevlab",
        description="BEV view-transform and detection lab on synthetic scenes")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the pipeline, write detections "
                         "and trace.json")
    run.add_argument("config")
    run.add_argument("--out", required=True)

    viz = sub.add_parser("viz", help="render a BFK1 tensor to a PGM image")
    viz.add_argument("tensor")
    viz.add_argument("--out", required=True)
    viz.add_argument("--channel", type=int, default=None,
                     help="render one channel (default: the channel norm)")
    viz.add_argument("--points", default=None,
                     help="JSON [[x, y], ...] drawn as white pixels")

    ver = sub.add_parser("verify", help="run the verification suites")
    ver.add_argument("--suite", choices=("all", "grad", "oracle", "props"),
                     default="all")
    ver.add_argument("--seed", type=int, default=0)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out)
        if args.command == "viz":
            return cmd_viz(args.tensor, args.out, channel=args.channel,
                           points=args.points)
        if args.command == "verify":
            return cmd_verify(args.suite, seed=args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
