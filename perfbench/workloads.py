"""The benchmark's workloads: their configurations, the scene seeds a
workload seed selects, one unit of work each, and the stored references
their outputs are checked against.

Workloads drive bevlab only through its public entry points:
``cli.main(["run", ...])`` for the detection workloads and
``pipeline.fit_generators`` for fitting.
"""

from __future__ import annotations

import copy
import json
import os

import numpy as np

from bevlab import cli
from bevlab.pipeline import fit_generators, init_params
from bevlab.scene_sim import make_scene

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Outputs are float64 end to end. Reordering float64 arithmetic (threads,
# BLAS blocking, a gather that skips invalid samples) moves them by ~1e-12
# relative even through six decoder layers or a few dozen fit steps; any
# change in what is computed moves them by orders of magnitude more.
RTOL = 1e-6
ATOL = 1e-9

# Detection workloads draw their scenes from a fixed pool so that every
# unit can be checked against a stored reference. Each workload seed picks
# its own order, and no scene repeats within a run, so a per-scene cache is
# always bypassed. The pool size caps the units of one run.
SCENE_SEED_BASE = 1000
DETECT_POOL = {"detect": 16, "detect_xattn": 8}

# Fitting: each variant is 4 scenes; the workload seed picks the variant.
FIT_VARIANTS = 4
FIT_SCENES = 4
FIT_MAX_STEPS = 48
FIT_LR = 1e-3

# Tiny configurations for the benchmark's own smoke test.
SMOKE_GRID = {"cells": [16, 16]}
SMOKE_MODEL = {"channels": 8, "queries_per_group": 2, "n_layers": 2,
               "n_points": 4}
SMOKE_SCENE = {"image_size": [32, 32], "n_boxes": 3}
SMOKE_POOL = 4
SMOKE_FIT_STEPS = 6


def _merge(cfg, section, updates):
    cfg[section] = {**cfg[section], **updates}


def detect_config(name, smoke=False):
    """Validated config document of a detection workload (scene seed 0)."""
    cfg = copy.deepcopy(cli.DEFAULTS)
    if name == "detect_xattn":
        # 300 queries keep the dense scores tensor, and the peak, near 3 GB
        _merge(cfg, "model", {"attention_mode": "standard",
                              "queries_per_group": 50})
    elif name != "detect":
        raise ValueError(f"not a detection workload: {name}")
    if smoke:
        _merge(cfg, "grid", SMOKE_GRID)
        _merge(cfg, "model", SMOKE_MODEL)
        _merge(cfg, "scene", SMOKE_SCENE)
    return cli.validate_config(cfg)


def fit_config(smoke=False):
    """Validated config document of the fit workload: a 96x96 grid and
    300 queries keep one step near 1.5 s and the peak near 3 GB."""
    cfg = copy.deepcopy(cli.DEFAULTS)
    _merge(cfg, "grid", {"cells": [96, 96]})
    _merge(cfg, "model", {"queries_per_group": 50})
    if smoke:
        _merge(cfg, "grid", SMOKE_GRID)
        _merge(cfg, "model", SMOKE_MODEL)
        _merge(cfg, "scene", SMOKE_SCENE)
    return cli.validate_config(cfg)


def pool_seeds(name, smoke=False):
    """Every scene seed of a detection workload's pool."""
    size = SMOKE_POOL if smoke else DETECT_POOL[name]
    return [SCENE_SEED_BASE + i for i in range(size)]


def scene_order(name, seed, smoke=False):
    """The workload seed's order over the pool: distinct scenes per unit."""
    pool = pool_seeds(name, smoke)
    order = np.random.default_rng(seed).permutation(len(pool))
    return [pool[i] for i in order]


def fit_variant(seed):
    return seed % FIT_VARIANTS


def fit_scene_seeds(variant):
    return [SCENE_SEED_BASE + FIT_SCENES * variant + j
            for j in range(FIT_SCENES)]


# ---------------------------------------------------------------------------
# one unit of work

BOX_KEYS = ("x", "y", "z", "l", "w", "h", "yaw")


class DetectRunner:
    """Runs one ``bevlab run`` per unit and reads back its final layer."""

    def __init__(self, cfg, workdir):
        self.cfg = cfg
        self.config_path = os.path.join(workdir, "config.json")
        self.out_dir = os.path.join(workdir, "out")
        os.makedirs(workdir, exist_ok=True)

    def prepare(self, scene_seed):
        """Write the unit's config; not part of the timed unit."""
        doc = copy.deepcopy(self.cfg)
        doc["scene"] = {**doc["scene"], "seed": scene_seed}
        with open(self.config_path, "w") as fh:
            json.dump(doc, fh)

    def run(self):
        """The timed unit. Returns the CLI exit code."""
        return cli.main(["run", self.config_path, "--out", self.out_dir])

    def output(self):
        """Final-layer boxes [Nq, 7] and scores [Nq, K] of the last unit."""
        with open(os.path.join(self.out_dir, "detections.json")) as fh:
            doc = json.load(fh)
        final = doc[0]["layers"][-1]
        if not final["final"]:
            raise ValueError("last layer is not marked final")
        preds = final["predictions"]
        boxes = np.array([[p["box"][k] for k in BOX_KEYS] for p in preds])
        scores = np.array([p["scores"] for p in preds])
        return boxes, scores

    def output_bytes(self):
        return sum(e.stat().st_size for e in os.scandir(self.out_dir)
                   if e.is_file())


def fit_inputs(cfg, variant):
    """Pipeline config, initial parameters and scenes of one fit variant."""
    pipeline_cfg, scene_cfg = cli.build_configs(cfg)
    scenes = [make_scene(scene_cfg, seed=s) for s in fit_scene_seeds(variant)]
    params = init_params(pipeline_cfg, seed=cfg["seed"])
    return pipeline_cfg, params, scenes


def run_fit(pipeline_cfg, params, scenes, steps):
    return fit_generators(pipeline_cfg, params, scenes, steps=steps, lr=FIT_LR,
                          batch_size=1)


# ---------------------------------------------------------------------------
# references


def within_tolerance(got, ref):
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    return got.shape == ref.shape and bool(
        np.all(np.abs(got - ref) <= RTOL * np.abs(ref) + ATOL))


def reference_path(name):
    return os.path.join(REFERENCE_DIR, f"{name}.npz")


def load_reference(name):
    with np.load(reference_path(name)) as data:
        return {k: data[k] for k in data.files}


def compute_detect_reference(name, workdir, smoke=False):
    """Final-layer boxes and scores of every pool scene, from plain runs."""
    runner = DetectRunner(detect_config(name, smoke), workdir)
    seeds = pool_seeds(name, smoke)
    boxes, scores = [], []
    for s in seeds:
        runner.prepare(s)
        if runner.run() != 0:
            raise RuntimeError(f"bevlab run failed on scene seed {s}")
        b, c = runner.output()
        boxes.append(b)
        scores.append(c)
    return {"scene_seeds": np.array(seeds), "boxes": np.stack(boxes),
            "scores": np.stack(scores)}


def compute_fit_reference(smoke=False):
    """Total loss per step of every fit variant, from plain fits."""
    cfg = fit_config(smoke)
    steps = SMOKE_FIT_STEPS if smoke else FIT_MAX_STEPS
    totals = []
    for v in range(FIT_VARIANTS):
        result = run_fit(*fit_inputs(cfg, v), steps=steps)
        totals.append([c["total"] for c in result.curve])
    return {"totals": np.array(totals)}


class DetectReference:
    """Final-layer boxes and scores of every pool scene."""

    def __init__(self, data):
        self.seeds = [int(s) for s in data["scene_seeds"]]
        self.boxes = data["boxes"]
        self.scores = data["scores"]

    def matches(self, scene_seed, boxes, scores):
        i = self.seeds.index(scene_seed)
        return (within_tolerance(boxes, self.boxes[i])
                and within_tolerance(scores, self.scores[i]))


class FitReference:
    """Loss curve (total loss per step) of every fit variant."""

    def __init__(self, data):
        self.totals = data["totals"]

    @property
    def max_steps(self):
        return self.totals.shape[1]

    def matches(self, variant, step, total):
        return (step < self.max_steps
                and within_tolerance(total, self.totals[variant, step]))
