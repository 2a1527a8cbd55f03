"""Synthetic scenes with analytically known ground truth.

Stands in for the real sensor backbones: boxes plant unit feature signatures
both in a LiDAR-style BEV raster and as Gaussian splats in camera feature
pyramids, so every downstream stage has an oracle. The last two raster
channels are reserved for the true object height and an occupancy flag,
which is what makes the height generators fittable at desk scale.

All generation is deterministic given (config, seed); the PRNG is numpy's
default_rng (PCG64).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (NEAR_PLANE, BevGrid, CameraModel, FeaturePyramid,
                       is_int, project_to_image)

N_RESERVED_CHANNELS = 2  # -2: true height, -1: occupancy
BOX_MARGIN = 2.0  # boxes keep this far inside the ROI, meters
# largest noise std: adaptive projection multiplies noise by noise, which
# overflows the float32 dumps at 1e19; at 1e6 they stay under 1e14
MAX_NOISE_STD = 1e6

CLASS_NAMES = (
    "car", "truck", "construction_vehicle", "bus", "trailer",
    "barrier", "motorcycle", "bicycle", "pedestrian", "traffic_cone",
)

# typical (length, width, height) in meters per class
CLASS_DIMS = {
    0: (4.6, 1.9, 1.6),
    1: (7.0, 2.5, 2.8),
    2: (6.0, 2.8, 3.0),
    3: (11.0, 2.9, 3.4),
    4: (12.0, 2.9, 3.8),
    5: (2.0, 0.5, 1.0),
    6: (2.1, 0.8, 1.4),
    7: (1.7, 0.6, 1.2),
    8: (0.7, 0.7, 1.7),
    9: (0.4, 0.4, 1.1),
}


@dataclass(frozen=True)
class Box:
    """Oriented ground-truth box: center (x, y, z) m, dims (l, w, h) m, yaw rad."""

    class_id: int
    center: tuple
    dims: tuple
    yaw: float


@dataclass(frozen=True)
class SceneConfig:
    grid: BevGrid
    channels: int = 32
    n_boxes: int = 5
    noise_std: float = 0.0
    image_size: tuple = (128, 128)
    n_cameras: int = 6
    cam_height: float = 1.8
    fov_deg: float = 70.0
    classes: tuple = tuple(range(len(CLASS_NAMES)))
    fixed_dims: tuple = None       # force (l, w, h) for every box when set

    def __post_init__(self):
        if self.channels < N_RESERVED_CHANNELS + 1:
            raise ValueError("need at least 3 channels (2 are reserved)")
        if self.n_boxes < 0:
            raise ValueError("n_boxes must be >= 0")
        if not 0 <= self.noise_std <= MAX_NOISE_STD:
            raise ValueError(f"noise_std must lie in [0, {MAX_NOISE_STD:g}]")
        if not math.isfinite(self.cam_height):
            raise ValueError("cam_height must be finite")
        if self.n_cameras < 1:
            raise ValueError("n_cameras must be >= 1")
        if not 0 < self.fov_deg < 180:
            raise ValueError("fov_deg must lie in (0, 180)")
        if not (len(self.image_size) == 2
                and all(is_int(n) and n > 0 for n in self.image_size)):
            raise ValueError("image_size must be two positive integers")
        # a pixel coordinate is at most camera_ring's focal length
        # (W / 2) / tan(fov / 2) times the farthest grid point's distance from
        # the camera (on the z axis) over the near plane: it must be finite
        tan_half = math.tan(math.radians(self.fov_deg) / 2)
        g = self.grid
        reach = math.hypot(max(map(abs, g.x_range)), max(map(abs, g.y_range)),
                           max(abs(z - self.cam_height) for z in g.z_range))
        if not (tan_half > 0 and math.isfinite(
                self.image_size[0] / 2 / tan_half * reach / NEAR_PLANE)):
            raise ValueError("fov_deg and cam_height overflow the projection")
        if not (self.classes and all(
                is_int(c) and 0 <= c < len(CLASS_NAMES)
                for c in self.classes)):
            raise ValueError("classes must be a non-empty list of class ids "
                             f"in 0..{len(CLASS_NAMES) - 1}")
        if self.fixed_dims is not None and not (
                len(self.fixed_dims) == 3
                and all(d > 0 and math.isfinite(d) for d in self.fixed_dims)):
            raise ValueError("fixed_dims must be three positive numbers (l, w, h)")
        # make_scene centres each box at least BOX_MARGIN + l / 2 from the edges
        longest = max((self.fixed_dims or CLASS_DIMS[c])[0] for c in self.classes)
        room = min(g.x_range[1] - g.x_range[0], g.y_range[1] - g.y_range[0])
        if self.n_boxes and longest > room - 2 * BOX_MARGIN:
            raise ValueError(f"boxes {longest:g} m long do not fit the grid")


@dataclass(frozen=True)
class SceneSpec:
    seed: int
    boxes: tuple            # Box, ...
    cameras: tuple          # CameraModel, ...
    signatures: np.ndarray  # [n_boxes, C] unit vectors, last 2 channels zero
    noise_std: float
    channels: int


def camera_ring(n_cameras, image_size, fov_deg, cam_height):
    """Outward-looking surround rig: n cameras at even yaw spacing, sharing
    one mast position. Camera frame: +x right, +y down, +z forward."""
    W, H = image_size
    fx = (W / 2.0) / math.tan(math.radians(fov_deg) / 2.0)
    fy = fx
    K = np.array([[fx, 0.0, W / 2.0], [0.0, fy, H / 2.0], [0.0, 0.0, 1.0]])
    cams = []
    for k in range(n_cameras):
        phi = 2.0 * math.pi * k / n_cameras
        forward = np.array([math.cos(phi), math.sin(phi), 0.0])
        down = np.array([0.0, 0.0, -1.0])
        right = np.cross(down, forward)
        R = np.stack([right, down, forward])  # rows: camera axes in world
        center = np.array([0.0, 0.0, cam_height])
        t = -R @ center
        cams.append(CameraModel(K, R, t, (W, H)))
    return tuple(cams)


def _bev_corners(box: Box):
    l, w = box.dims[0], box.dims[1]
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    out = []
    for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        dx, dy = sx * l / 2.0, sy * w / 2.0
        out.append((box.center[0] + c * dx - s * dy,
                    box.center[1] + s * dx + c * dy))
    return out


def _rects_disjoint(a: Box, b: Box, margin=0.0):
    """Separating-axis test on the two BEV rectangles, inflated by margin."""
    for ref, other in ((a, b), (b, a)):
        c, s = math.cos(ref.yaw), math.sin(ref.yaw)
        half = (ref.dims[0] / 2.0 + margin, ref.dims[1] / 2.0 + margin)
        for axis, h in zip(((c, s), (-s, c)), half):
            lo, hi = np.inf, -np.inf
            for px, py in _bev_corners(other):
                proj = (px - ref.center[0]) * axis[0] + (py - ref.center[1]) * axis[1]
                lo, hi = min(lo, proj), max(hi, proj)
            if hi < -h or lo > h:
                return True
    return False


def make_scene(config: SceneConfig, seed: int) -> SceneSpec:
    """Place non-overlapping boxes in the ROI and attach cameras/signatures.

    Raises RuntimeError when a box cannot be placed in 1000 attempts.
    """
    rng = np.random.default_rng(seed)
    grid = config.grid
    boxes = []
    for b in range(config.n_boxes):
        cls = config.classes[b % len(config.classes)]
        placed = False
        for _ in range(1000):
            dims = config.fixed_dims or CLASS_DIMS[cls]
            x = rng.uniform(grid.x_range[0] + BOX_MARGIN + dims[0] / 2,
                            grid.x_range[1] - BOX_MARGIN - dims[0] / 2)
            y = rng.uniform(grid.y_range[0] + BOX_MARGIN + dims[0] / 2,
                            grid.y_range[1] - BOX_MARGIN - dims[0] / 2)
            yaw = rng.uniform(-math.pi, math.pi)
            z = dims[2] / 2.0 + rng.uniform(0.0, 0.4)
            cand = Box(cls, (float(x), float(y), float(z)),
                       tuple(float(d) for d in dims), float(yaw))
            if all(_rects_disjoint(cand, other, margin=grid.cell_size_x)
                   for other in boxes):
                boxes.append(cand)
                placed = True
                break
        if not placed:
            raise RuntimeError(
                f"could not place box {b} without overlap in 1000 attempts")

    C = config.channels
    sigs = np.zeros((config.n_boxes, C))
    for i in range(config.n_boxes):
        v = rng.normal(size=C - N_RESERVED_CHANNELS)
        sigs[i, :C - N_RESERVED_CHANNELS] = v / np.linalg.norm(v)

    cams = camera_ring(config.n_cameras, config.image_size,
                       config.fov_deg, config.cam_height)
    return SceneSpec(seed=int(seed), boxes=tuple(boxes), cameras=cams,
                     signatures=sigs, noise_std=float(config.noise_std),
                     channels=C)


def _footprint_mask_one(box: Box, grid: BevGrid):
    """Boolean [H, W] mask of cells whose center lies in the box footprint."""
    X, Y = grid.cell_centers_flat()
    dx = X - box.center[0]
    dy = Y - box.center[1]
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    inside = (np.abs(lx) <= box.dims[0] / 2.0) & (np.abs(ly) <= box.dims[1] / 2.0)
    return inside.reshape(grid.height, grid.width)


def footprint_mask(scene: SceneSpec, grid: BevGrid):
    """Union of all box footprints, [H, W] bool."""
    mask = np.zeros((grid.height, grid.width), dtype=bool)
    for box in scene.boxes:
        mask |= _footprint_mask_one(box, grid)
    return mask


def rasterize_lidar_bev(scene: SceneSpec, grid: BevGrid):
    """LiDAR-backbone stand-in: [C, H, W] map (C = scene.channels), each box's
    signature on its footprint cells, true center height in channel C-2 and
    occupancy in channel C-1, plus seeded Gaussian noise on the others."""
    C = scene.channels
    out = np.zeros((C, grid.height, grid.width))
    for box, sig in zip(scene.boxes, scene.signatures):
        m = _footprint_mask_one(box, grid)
        out[:C - 2, m] += sig[:C - 2, None]
        out[C - 2, m] = box.center[2]
        out[C - 1, m] = 1.0
    if scene.noise_std > 0:
        rng = np.random.default_rng((scene.seed, 0xB51D))
        out[:C - 2] += rng.normal(0.0, scene.noise_std,
                                  size=(C - 2, grid.height, grid.width))
    return out


def render_camera_features(scene: SceneSpec, strides):
    """Image-backbone stand-in: per camera, a pyramid whose levels carry a
    Gaussian splat of each box's signature at the projected box center
    (sigma = 2 px at stride 1, shrunk per level), plus seeded noise."""
    C = scene.channels
    pyramids = []
    for ci, cam in enumerate(scene.cameras):
        W_px, H_px = cam.image_size
        splats = []  # each visible box's projected center, for every level
        for box, sig in zip(scene.boxes, scene.signatures):
            x, y, ok = project_to_image(cam, box.center)
            if ok:
                splats.append((sig, x, y))
        levels = []
        for si, s in enumerate(strides):
            if W_px % s or H_px % s:
                raise ValueError(f"image size {cam.image_size} not divisible by stride {s}")
            Wf, Hf = W_px // s, H_px // s
            fmap = np.zeros((C, Hf, Wf))
            for sig, x, y in splats:
                xf, yf = x / s, y / s
                sigma = 2.0 / s
                r = max(1, int(math.ceil(4.0 * sigma)))
                x0, x1 = max(0, int(xf) - r), min(Wf - 1, int(xf) + r)
                y0, y1 = max(0, int(yf) - r), min(Hf - 1, int(yf) + r)
                if x0 > x1 or y0 > y1:
                    continue
                xs = np.arange(x0, x1 + 1)
                ys = np.arange(y0, y1 + 1)
                gx, gy = np.meshgrid(xs, ys)
                blob = np.exp(-((gx - xf) ** 2 + (gy - yf) ** 2) / (2.0 * sigma ** 2))
                fmap[:, y0:y1 + 1, x0:x1 + 1] += sig[:, None, None] * blob[None]
            if scene.noise_std > 0:
                rng = np.random.default_rng((scene.seed, 0xCA11, ci, si))
                fmap += rng.normal(0.0, scene.noise_std, size=fmap.shape)
            levels.append((s, fmap))
        pyramids.append(FeaturePyramid(tuple(levels)))
    return pyramids


def dilate_mask(mask):
    """8-neighborhood dilation (cells within Chebyshev distance 1)."""
    out = mask.copy()
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    out[1:, 1:] |= mask[:-1, :-1]
    out[1:, :-1] |= mask[:-1, 1:]
    out[:-1, 1:] |= mask[1:, :-1]
    out[:-1, :-1] |= mask[1:, 1:]
    return out


def ray_smear_metric(bev, scene: SceneSpec, grid: BevGrid):
    """Energy concentration of a [C, H, W] map around the true footprints.

    Fraction of the squared feature norm lying within one cell of any box
    footprint; 1.0 means perfectly aligned, small values mean the energy is
    smeared along camera rays. Returns 0 for an all-zero map.
    """
    if not scene.boxes:
        raise ValueError("ray_smear_metric needs a scene with at least one box")
    energy = np.sum(np.asarray(bev) ** 2, axis=0)
    near = dilate_mask(footprint_mask(scene, grid))
    total = float(energy.sum())
    if total == 0.0:
        return 0.0
    return float(energy[near].sum() / total)


# ---------------------------------------------------------------------------
# JSON output


def scene_to_json(scene: SceneSpec):
    return {
        "seed": scene.seed,
        "noise_std": scene.noise_std,
        "channels": scene.channels,
        "boxes": [
            {"class": CLASS_NAMES[b.class_id], "class_id": b.class_id,
             "center": list(b.center), "dims": list(b.dims), "yaw": b.yaw}
            for b in scene.boxes
        ],
        "cameras": [
            {"intrinsics": cam.intrinsics.tolist(),
             "rotation": cam.rotation.tolist(),
             "translation": cam.translation.tolist(),
             "image_size": list(cam.image_size)}
            for cam in scene.cameras
        ],
        "signatures": scene.signatures.tolist(),
    }
