"""Per-layer tracing of bevlab from outside the program.

Timing wrappers replace the module (and class) attributes through which
``cli``, ``pipeline``, ``view_transform`` and ``decoder`` reach each layer,
and are restored when the run ends. A wrapper does nothing but call through
unless a traced unit is in progress. In a traced unit every wrapped call
records a span (name, start, end, parent); spans stay in memory until the
run ends, when each unit's self times are summed per layer. A layer's self
time is its span's duration minus the durations of its child spans, so the
self times of a unit add up to the unit's wall time.

Tracing assumes bevlab calls its layers from one thread (``threads: 1``,
the default).
"""

from __future__ import annotations

import functools
import os
import statistics
import time
import tracemalloc

import numpy as np

from bevlab import autodiff, bfk, cli, decoder, pipeline, view_transform

# span name -> per-layer metric of its self time (seconds per unit)
SPAN_METRICS = {
    "cli.main": "cli.main.self.s",
    "cli.cmd_run": "cli.cmd_run.self.s",
    "pipeline.init_params": "pipeline.init_params.s",
    "scene_sim.make_scene": "scene_sim.make_scene.s",
    "pipeline.forward": "pipeline.forward.s",
    "scene_sim.rasterize_lidar_bev": "scene_sim.rasterize_lidar_bev.s",
    "scene_sim.render_camera_features": "scene_sim.render_camera_features.s",
    "view_transform.adaptive_sample": "view_transform.adaptive_sample.s",
    "geometry.project_heights": "geometry.project_heights.s",
    "autodiff.bilinear_gather.vt": "autodiff.bilinear_gather.vt.s",
    "view_transform.adaptive_project": "view_transform.adaptive_project.s",
    "view_transform.fuse_bev": "view_transform.fuse_bev.s",
    "query_select.predict_heatmaps": "query_select.predict_heatmaps.s",
    "query_select.topk_keypoints": "query_select.topk_keypoints.s",
    "decoder.run_decoder": "decoder.run_decoder.s",
    "decoder.decoder_layer": "decoder.decoder_layer.s",
    "decoder.self_attention": "decoder.self_attention.s",
    "decoder.corner_sample": "decoder.corner_sample.s",
    "autodiff.bilinear_gather.decoder": "autodiff.bilinear_gather.decoder.s",
    "decoder.gaussian_focal_loss": "decoder.gaussian_focal_loss.s",
    "query_select.gaussian_target": "query_select.gaussian_target.s",
    "scene_sim.ray_smear_metric": "scene_sim.ray_smear_metric.s",
    "pipeline.to_json_dict": "pipeline.to_json_dict.s",
    "bfk.save": "bfk.save.s",
    "pipeline.fit_generators": "pipeline.fit_generators.self.s",
    "autodiff.backward": "autodiff.backward.s",
    "autodiff.sgd_step": "autodiff.sgd_step.s",
}

# spans whose peak of memory allocated inside them is kept: tracemalloc
# runs only within these (it slows every allocation), and none of them
# nests inside another
MEM_SPANS = {
    "view_transform.adaptive_sample": "mem.adaptive_sample.peak_mb",
    "decoder.run_decoder": "mem.run_decoder.peak_mb",
    "autodiff.backward": "mem.backward.peak_mb",
}

# counter -> (unit, how one unit's values combine)
COUNTERS = {
    "autodiff.bilinear_gather.vt.lookups": ("count", sum),
    "autodiff.bilinear_gather.decoder.lookups": ("count", sum),
    "view_transform.valid_sample_frac": ("ratio", statistics.fmean),
    "decoder.cross_attn.scores_bytes": ("bytes", max),
    "bfk.save.bytes": ("bytes", sum),
    "cli.output_bytes": ("bytes", sum),
    **{metric: ("MB", max) for metric in MEM_SPANS.values()},
}

FIT_FORWARD = "pipeline.fit.forward.s"

# (metric, unit) of everything summarize() reports
METRICS = ([(m, "s") for m in SPAN_METRICS.values()] + [(FIT_FORWARD, "s")]
           + [(m, unit) for m, (unit, _) in COUNTERS.items()])

# the self times of a traced unit must add up to its wall time within this
SELF_TIME_SLACK_S = 1e-3


class Tracer:
    """Spans and counters of the traced units of one run."""

    def __init__(self):
        self.units = []  # per traced unit: {"spans": [...], "counts": {...}}
        self.active = False
        self._stack = []

    def begin_unit(self, root):
        self.units.append({"spans": [], "counts": {}, "wall": None})
        self.active = True
        self.open(root)

    def end_unit(self, wall):
        """Close the unit's root span (and any span an exception left
        open); wall is the unit's time as the harness measured it."""
        while self._stack:
            self.close(self._stack[-1])
        self.active = False
        self.units[-1]["wall"] = wall

    def open(self, name):
        spans = self.units[-1]["spans"]
        parent = self._stack[-1] if self._stack else None
        spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(spans) - 1)
        return len(spans) - 1

    def close(self, index):
        self.units[-1]["spans"][index][2] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def inside(self, name):
        spans = self.units[-1]["spans"]
        return any(spans[i][0] == name for i in self._stack)

    def count(self, name, value):
        self.units[-1]["counts"].setdefault(name, []).append(float(value))


def _wrap(tracer, fn, name, after=None):
    mem_metric = MEM_SPANS.get(name) if isinstance(name, str) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = name(tracer) if callable(name) else name
        index = tracer.open(span)
        if mem_metric:
            tracemalloc.start()
        try:
            out = fn(*args, **kwargs)
        finally:
            if mem_metric:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                tracer.count(mem_metric, peak / 2**20)
            tracer.close(index)
        if after is not None:
            after(tracer, args, kwargs, out)
        return out

    return wrapper


def _gather_span(tracer):
    # gathers outside the decoder belong to the view transform
    if tracer.inside("decoder.run_decoder"):
        return "autodiff.bilinear_gather.decoder"
    return "autodiff.bilinear_gather.vt"


def _count_lookups(tracer, args, kwargs, out):
    tracer.count(_gather_span(tracer) + ".lookups",
                 np.size(autodiff.val(args[1])))


def _count_valid_frac(tracer, args, kwargs, out):
    tracer.count("view_transform.valid_sample_frac",
                 out.validity_fraction.mean())


def _count_scores_bytes(tracer, args, kwargs, out):
    """Size of one layer's dense cross-attention scores tensor, float64."""
    if kwargs.get("mode", "geometry_aware") == "standard":
        n_queries = np.shape(autodiff.val(args[0]))[0]
        _, H, W = np.shape(autodiff.val(args[2]))
        tracer.count("decoder.cross_attn.scores_bytes",
                     args[3].n_heads * n_queries * H * W * 8)


def _count_bfk_bytes(tracer, args, kwargs, out):
    tracer.count("bfk.save.bytes", os.path.getsize(args[0]))


# (owner, attribute, span name, after-hook) of every wrapped layer
TARGETS = [
    (cli, "cmd_run", "cli.cmd_run", None),
    (cli, "init_params", "pipeline.init_params", None),
    (cli, "make_scene", "scene_sim.make_scene", None),
    (cli, "forward", "pipeline.forward", None),
    (cli, "ray_smear_metric", "scene_sim.ray_smear_metric", None),
    (cli, "gaussian_target", "query_select.gaussian_target", None),
    (bfk, "save", "bfk.save", _count_bfk_bytes),
    (pipeline.DetectionOutput, "to_json_dict", "pipeline.to_json_dict", None),
    (pipeline, "rasterize_lidar_bev", "scene_sim.rasterize_lidar_bev", None),
    (pipeline, "render_camera_features",
     "scene_sim.render_camera_features", None),
    (pipeline, "adaptive_sample", "view_transform.adaptive_sample",
     _count_valid_frac),
    (pipeline, "adaptive_project", "view_transform.adaptive_project", None),
    (pipeline, "fuse_bev", "view_transform.fuse_bev", None),
    (pipeline, "predict_heatmaps", "query_select.predict_heatmaps", None),
    (pipeline, "topk_keypoints", "query_select.topk_keypoints", None),
    (pipeline, "run_decoder", "decoder.run_decoder", _count_scores_bytes),
    (pipeline, "gaussian_focal_loss", "decoder.gaussian_focal_loss", None),
    (decoder, "gaussian_focal_loss", "decoder.gaussian_focal_loss", None),
    (decoder, "decoder_layer", "decoder.decoder_layer", None),
    (decoder, "self_attention", "decoder.self_attention", None),
    (decoder, "corner_sample", "decoder.corner_sample", None),
    (view_transform, "project_heights", "geometry.project_heights", None),
    (autodiff, "bilinear_gather", _gather_span, _count_lookups),
    (autodiff.Var, "backward", "autodiff.backward", None),
    (autodiff, "sgd_step", "autodiff.sgd_step", None),
]


def patch(owner, attr, make):
    """Replace owner.attr by make(original); returns the undo record."""
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
        owner, attr)
    setattr(owner, attr, make(original))
    return owner, attr, original


def restore(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def install(tracer):
    """Put the timing wrappers in place; returns the undo records."""
    return [patch(owner, attr,
                  lambda fn, n=name, a=after: _wrap(tracer, fn, n, a))
            for owner, attr, name, after in TARGETS]


def _unit_metrics(unit):
    spans = unit["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    metrics = {m: 0.0 for m, _ in METRICS}
    layers = []
    total_self = 0.0
    for (name, start, end, _), inner in zip(spans, child):
        own = end - start - inner
        total_self += own
        if name == "decoder.decoder_layer":
            layers.append(own)
        else:
            metrics[SPAN_METRICS[name]] += own
    if layers:
        metrics["decoder.decoder_layer.s"] = statistics.median(layers)
    root_name, root_start, root_end, _ = spans[0]
    if root_name == "pipeline.fit_generators":
        excluded = sum(end - start for name, start, end, _ in spans
                       if name in ("autodiff.backward", "autodiff.sgd_step"))
        metrics[FIT_FORWARD] = root_end - root_start - excluded
    for name, values in unit["counts"].items():
        metrics[name] = COUNTERS[name][1](values)
    gap = abs(total_self - unit["wall"])
    return metrics, gap


def summarize(tracer):
    """Median over traced units of every per-layer metric, and the largest
    gap between a unit's summed self times and its wall time."""
    per_unit, gaps = [], []
    for unit in tracer.units:
        metrics, gap = _unit_metrics(unit)
        per_unit.append(metrics)
        gaps.append(gap)
    out = {m: statistics.median(u[m] for u in per_unit) for m, _ in METRICS}
    return out, max(gaps)
