"""bevlab: desk-scale LiDAR-guided BEV view transformation and query-based
3D detection, with a synthetic-scene simulator and verification suites."""

from .geometry import BevGrid, CameraModel, FeaturePyramid
from .pipeline import PipelineConfig, PipelineParams, forward, fit_generators, init_params
from .query_select import GroupSpec
from .scene_sim import Box, SceneConfig, SceneSpec, make_scene
from .tensor import LinearMap
from .view_transform import VtOutput, VtParams

__version__ = "0.1.0"

__all__ = [
    "BevGrid", "CameraModel", "FeaturePyramid", "PipelineConfig",
    "PipelineParams", "forward", "fit_generators", "init_params",
    "GroupSpec", "Box", "SceneConfig", "SceneSpec",
    "make_scene", "LinearMap", "VtOutput", "VtParams", "__version__",
]
