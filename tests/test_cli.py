"""CLI contracts: exit codes, file formats, determinism, verify gating."""

import contextlib
import hashlib
import itertools
import json
import math
import os
import pathlib
import struct
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bevlab
from bevlab import autodiff as ad
from bevlab import bfk, decoder, verify
from bevlab.autodiff import val
from bevlab.cli import (DEFAULTS, _make_scenes, build_configs, load_config,
                        main)
from bevlab.decoder import ATTENTION_MODES
from bevlab.pipeline import QUERY_INIT_MODES, VT_MODES, forward, init_params
from bevlab.scene_sim import MAX_NOISE_STD, ray_smear_metric

TINY = {
    "seed": 0,
    "model": {"channels": 8, "n_heights": 2, "n_points": 4, "n_layers": 2,
              "n_heads": 2, "queries_per_group": 3},
    "grid": {"x_range": [-16, 16], "y_range": [-16, 16], "z_range": [-5, 3],
             "cells": [32, 32]},
    "scene": {"n_scenes": 1, "n_boxes": 3, "image_size": [64, 64],
              "strides": [4, 8], "n_cameras": 4, "fixed_dims": [3.0, 1.5, 1.5]},
}


# every settable key of the config document, as a path of keys
CONFIG_KEYS = [(k,) for k, v in DEFAULTS.items() if not isinstance(v, dict)] + [
    (k, name) for k, v in DEFAULTS.items() if isinstance(v, dict) for name in v]
# any JSON document, numbers kept small enough to run in milliseconds; flat
# lists of scalars, the shape of most list-valued keys, are drawn often
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
                | st.text(max_size=4))
JSON_VALUES = JSON_SCALARS | st.lists(JSON_SCALARS, max_size=4) | st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8)


def assert_error_exit_2(argv, capsys):
    """`main(argv)` exits 2 with an `error:` line and no runtime failure."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error: ") for line in err.splitlines())
    assert "runtime failure" not in err


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


class TestBfk:
    def test_round_trip(self, tmp_path, rng):
        arr = rng.normal(size=(3, 5, 7)).astype(np.float32)
        path = tmp_path / "t.bfk"
        bfk.save(path, arr)
        back = bfk.load(path)
        assert back.shape == (3, 5, 7)
        assert np.allclose(back, arr, atol=1e-7)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.bfk"
        bfk.save(path, np.zeros((2, 3)))
        raw = path.read_bytes()
        assert raw[:4] == b"BFK1"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[8:12], "little") == 2
        assert int.from_bytes(raw[12:16], "little") == 3
        assert len(raw) == 16 + 6 * 4

    def test_finite_value_beyond_float32_rejected(self, tmp_path):
        arr = np.ones((2, 4, 4))
        arr[1, 2, 3] = 1e200
        path = tmp_path / "t.bfk"
        with pytest.raises(ValueError, match="float32 range"):
            bfk.save(path, arr)
        assert not path.exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bfk"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            bfk.load(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "trunc.bfk"
        bfk.save(path, np.zeros((4, 4)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError):
            bfk.load(path)

    def test_header_cut_off_rejected(self, tmp_path):
        # rank 3 promised, only the first extent half present
        path = tmp_path / "cut.bfk"
        path.write_bytes(b"BFK1\x03\x00\x00\x00\x05\x00")
        with pytest.raises(ValueError, match="header"):
            bfk.load(path)

    @settings(max_examples=300, deadline=None)
    @example(bfk.MAGIC + bytes(4) + b"\x00\x00\x81\x7f")  # signaling NaN
    @given(st.one_of(
        st.binary(max_size=48),
        st.binary(max_size=48).map(lambda b: bfk.MAGIC + b),
        st.lists(st.integers(0, 6), max_size=4).flatmap(
            lambda dims: st.binary(max_size=120).map(
                lambda b, d=dims: bfk.MAGIC + len(d).to_bytes(4, "little")
                + b"".join(x.to_bytes(4, "little") for x in d) + b))))
    def test_any_bytes_load_or_raise_value_error(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.bfk")
            with open(path, "wb") as fh:
                fh.write(raw)
            try:
                arr = bfk.load(path)
            except ValueError:
                return
        assert arr.dtype == np.float64
        assert len(raw) >= 8 + 4 * arr.ndim + 4 * arr.size


    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.bfk"
        bfk.save(path, np.ones((1, 4, 4)))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match="payload"):
            bfk.load(path)
        assert main(["viz", str(path), "--out", str(tmp_path / "o.pgm")]) == 2

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.one_of(
        st.binary(max_size=48),
        st.tuples(st.lists(st.integers(0, 3), max_size=3),
                  st.integers(-8, 8)).map(
            lambda t: bfk.MAGIC + len(t[0]).to_bytes(4, "little")
            + b"".join(x.to_bytes(4, "little") for x in t[0])
            + bytes(max(0, 4 * math.prod(t[0]) + t[1])))))
    def test_loaded_bytes_are_exactly_header_and_values(self, raw):
        # header lengths from the extents, payloads a few bytes either side
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.bfk")
            with open(path, "wb") as fh:
                fh.write(raw)
            try:
                arr = bfk.load(path)
            except ValueError:
                return
        assert len(raw) == 8 + 4 * arr.ndim + 4 * arr.size


class TestRun:
    def test_run_success_and_summary(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", tiny_config, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_queries"] == 18
        assert summary["n_groups"] == 6
        assert (out / "detections.json").exists()
        assert (out / "scene_0.json").exists()
        assert (out / "bev_fuse_0.bfk").exists()

    @pytest.mark.parametrize("name, model", [
        ("gaussian_focal_loss", {}),
        ("corner_sample", {"query_init": "heatmap",
                           "attention_mode": "standard"})])
    def test_run_calls_through_the_decoder_module(self, monkeypatch,
                                                  tmp_path, name, model):
        # a wrapper put on the decoder module (a profiler's) sees the calls
        # the run makes outside it: the focal loss of each scene with
        # boxes, and `heatmap` query init's sampling at the keypoints (the
        # only sampling when the decoder attends densely)
        calls = []
        original = getattr(decoder, name)

        def counting(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(decoder, name, counting)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(TINY, model={**TINY["model"],
                                                     **model})))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
        assert calls

    @pytest.mark.parametrize("vt_mode", ["asap", "ap_only"])
    def test_ray_smear_reads_the_sampled_map(self, tmp_path, vt_mode):
        # at initialization the map after adaptive projection is zero off
        # the LiDAR returns, so its smear reads 1 whatever the sampler does
        path = tmp_path / "c.json"
        path.write_text(json.dumps(
            dict(TINY, model={**TINY["model"], "vt_mode": vt_mode})))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        cfg = load_config(str(path))
        pipeline_cfg, scene_cfg = build_configs(cfg)
        scene, = _make_scenes(cfg, scene_cfg, 1)
        _, diag, _ = forward(pipeline_cfg,
                             init_params(pipeline_cfg, seed=cfg["seed"]), scene)
        smear = summary["scenes"][0]["ray_smear"]
        assert smear == ray_smear_metric(val(diag.bev), scene,
                                         pipeline_cfg.grid)
        assert smear < 1.0

    def test_default_config_query_count(self, tmp_path):
        # defaults: 6 groups x 150 queries = 900
        doc = {"grid": {"x_range": [-16, 16], "y_range": [-16, 16],
                        "z_range": [-5, 3], "cells": [32, 32]},
               "model": {"channels": 8, "n_heights": 2, "n_points": 4,
                         "n_layers": 1, "n_heads": 2},
               "scene": {"n_boxes": 2, "image_size": [64, 64],
                         "strides": [4, 8], "n_cameras": 2,
                         "fixed_dims": [3.0, 1.5, 1.5]}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_queries"] == 900

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        pytest.param("[]", id="root-is-a-list"),
        pytest.param("3", id="root-is-a-number"),
        pytest.param('{"model": 3}', id="section-is-a-number"),
    ])
    def test_config_that_is_not_an_object_exit_2(self, tmp_path, capsys,
                                                  text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert_error_exit_2(["run", str(path), "--out", str(tmp_path / "o")],
                            capsys)

    @pytest.mark.parametrize("name", ["missing.json", "dir"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, name):
        (tmp_path / "dir").mkdir()
        assert_error_exit_2(["run", str(tmp_path / name),
                             "--out", str(tmp_path / "o")], capsys)

    def test_unknown_key_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"modell": {}}))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        path.write_text(json.dumps({"model": {"vt_mode": "warp"}}))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        # removed options
        for doc in ({"dtype": "f32"}, {"model": {"pe_dim": 8}},
                    {"bench": {"reps": 5}}):
            path.write_text(json.dumps(doc))
            assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2

    # each case names itself, so deleting one renames no other; the
    # "<section>-update<n>" ids are the names the cases had by position
    @pytest.mark.parametrize("section, update", [
        pytest.param("model", {"n_heads": 0}, id="model-update0"),
        pytest.param("model", {"n_heads": 5}, id="model-update1"),
        pytest.param("model", {"n_heads": -4}, id="model-update2"),
        pytest.param("model", {"n_points": 6}, id="model-update3"),
        pytest.param("model", {"n_layers": 0}, id="model-update4"),
        # 2 m x 1 m cells
        pytest.param("grid", {"cells": [16, 32]}, id="grid-update5"),
        pytest.param("scene", {"n_scenes": "2"}, id="scene-update6"),
        pytest.param("scene", {"n_boxes": "3"}, id="scene-update7"),
        pytest.param("grid", {"cells": "ab"}, id="grid-update8"),
        pytest.param("grid", {"cells": [-4, 4]}, id="grid-update9"),
        pytest.param("grid", {"x_range": [5, -5]}, id="grid-update10"),
        pytest.param("scene", {"image_size": [8]}, id="scene-update11"),
        pytest.param("scene", {"strides": [0]}, id="scene-update12"),
        pytest.param("scene", {"fov_deg": 0}, id="scene-update13"),
        pytest.param("scene", {"n_cameras": 0}, id="scene-update14"),
        pytest.param("model", {"n_heights": 0}, id="model-update15"),
        pytest.param("model", {"query_init": "random"}, id="model-update16"),
        pytest.param("model", {"attention_mode": "dense"},
                     id="model-update17"),
        pytest.param("model", {"groups": []}, id="model-update18"),
        # scene classes 1..9 have no group
        pytest.param("model", {"groups": [[0]]}, id="model-update19"),
        # 1024 cells
        pytest.param("model", {"queries_per_group": 5000},
                     id="model-update20"),
        pytest.param("scene", {"classes": [99]}, id="scene-update21"),
        pytest.param("scene", {"n_boxes": -1}, id="scene-update22"),
        pytest.param("scene", {"strides": [8, 4]}, id="scene-update23"),
        pytest.param("scene", {"strides": []}, id="scene-update24"),
        # strides 4 and 8 do not divide it
        pytest.param("scene", {"image_size": [2, 2]}, id="scene-update25"),
        pytest.param("scene", {"fixed_dims": [1, 1]}, id="scene-update26"),
        pytest.param("scene", {"fixed_dims": [0, 1, 1]}, id="scene-update27"),
        pytest.param("scene", {"classes": []}, id="scene-update28"),
        pytest.param("scene", {"fixed_dims": []}, id="scene-update29"),
        pytest.param("scene", {"n_scenes": 0}, id="scene-update30"),
        pytest.param("scene", {"n_scenes": -1}, id="scene-update31"),
        # not class 1
        pytest.param("scene", {"classes": [True]}, id="scene-update32"),
        pytest.param("grid", {"cells": [8]}, id="grid-update33"),
        pytest.param("scene", {"strides": [4.0]}, id="scene-update34"),
        pytest.param("scene", {"seed": -1}, id="scene-update35"),
        pytest.param("scene", {"noise_std": float("inf")},
                     id="scene-update36"),
        pytest.param("scene", {"cam_height": float("nan")},
                     id="scene-update37"),
        # infinite focal length
        pytest.param("scene", {"fov_deg": 1e-308}, id="scene-update38"),
        pytest.param("scene", {"fixed_dims": [1e308, 1e308, 1e308]},
                     id="scene-update39"),
        # 3 m boxes
        pytest.param("grid", {"x_range": [-3, 3], "y_range": [-3, 3]},
                     id="grid-update40"),
        pytest.param("grid", {"x_range": [-1e308, 1e308],
                              "y_range": [-1e308, 1e308]}, id="grid-update41"),
        # no float holds it
        pytest.param("scene", {"noise_std": 10 ** 400}, id="scene-update42"),
        # placement gives up at box 38
        pytest.param("scene", {"n_boxes": 60}, id="scene-update43"),
        # float32 overflow: the camera BEV dump held 9 infinities
        pytest.param("scene", {"noise_std": 1e19}, id="scene-noise_std-1e19"),
        # finite camera models whose pixel coordinates overflow
        pytest.param("scene", {"cam_height": 1e307},
                     id="scene-cam_height-1e307"),
        pytest.param("scene", {"cam_height": 50, "fov_deg": 1e-303},
                     id="scene-fov_deg-1e-303"),
    ])
    def test_shape_config_exit_2(self, tmp_path, capsys, section, update):
        doc = dict(TINY, **{section: {**TINY[section], **update}})
        self.assert_rejected(doc, tmp_path, capsys)

    # every attention x query-init mode, cycling the VT modes
    @pytest.mark.parametrize("attention_mode, query_init, vt_mode", [
        pytest.param(attention, init, VT_MODES[i % len(VT_MODES)],
                     id=f"{attention}-{init}-{VT_MODES[i % len(VT_MODES)]}")
        for i, (attention, init) in enumerate(
            itertools.product(ATTENTION_MODES, QUERY_INIT_MODES))])
    def test_noise_at_bound_runs_clean(self, tmp_path, attention_mode,
                                       query_init, vt_mode):
        doc = dict(TINY, scene={**TINY["scene"], "noise_std": MAX_NOISE_STD},
                   model={**TINY["model"], "vt_mode": vt_mode,
                          "query_init": query_init,
                          "attention_mode": attention_mode})
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", str(path), "--out", str(out)]) == 0
        for dump in out.glob("*.bfk"):
            assert np.isfinite(bfk.load(dump)).all()
        text = (out / "detections.json").read_text()
        assert "NaN" not in text and "Infinity" not in text

    @pytest.mark.parametrize("update", [
        pytest.param({"seed": "abc"}, id="update0"),
        pytest.param({"seed": 1.5}, id="update1"),
        pytest.param({"threads": "x"}, id="update2"),
        pytest.param({"seed": -3}, id="update3"),
        pytest.param({"threads": 2}, id="update4"),
    ])
    def test_top_level_config_exit_2(self, tmp_path, capsys, update):
        self.assert_rejected(dict(TINY, **update), tmp_path, capsys)

    @staticmethod
    def assert_rejected(doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from(CONFIG_KEYS), JSON_VALUES)
    def test_any_single_key_exit_0_or_2(self, key, value):
        doc = json.loads(json.dumps(TINY))
        *sections, name = key
        node = doc
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            assert main(["run", path, "--out", os.path.join(tmp, "o")]) in (0, 2)

    @pytest.mark.parametrize("command", ["run"])
    def test_threads_flag_rejected(self, tiny_config, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            main([command, tiny_config, "--out", str(tmp_path / "o"),
                  "--threads", "2"])
        assert exc.value.code == 2

    def test_norm_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["viz", str(tmp_path / "t.bfk"), "--out",
                  str(tmp_path / "o.pgm"), "--norm"])
        assert exc.value.code == 2

    def test_bench_command_rejected(self, tiny_config, tmp_path):
        # stage times come from `run`'s trace.json
        with pytest.raises(SystemExit) as exc:
            main(["bench", tiny_config, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_byte_identical_reruns_and_threads(self, tiny_config, tmp_path):
        # the third run sets the schema's only thread count explicitly
        one_thread = tmp_path / "one_thread.json"
        one_thread.write_text(json.dumps(dict(TINY, threads=1)))
        outs = []
        for name, config in (("a", tiny_config), ("b", tiny_config),
                             ("c", str(one_thread))):
            out = tmp_path / name
            assert main(["run", config, "--out", str(out)]) == 0
            outs.append(out)
        # every file but trace.json, whose wall times differ run to run
        names = sorted(p.name for p in outs[0].iterdir())
        assert "trace.json" in names and "bev_camera_0.bfk" in names
        for out in outs[1:]:
            assert sorted(p.name for p in out.iterdir()) == names
            for name in names:
                if name != "trace.json":
                    assert (out / name).read_bytes() == (
                        outs[0] / name).read_bytes(), name

    @pytest.mark.parametrize("budget, digest", [
        (None,
         "9745d7638c32600c8ce7e9e315b1447e6d937ebb0ba22f01eb1ecac7fef824a6"),
        (8 * 16,
         "084069c21dfa013ad0877f2e63595665dcd48d163907ef4b70e2cc297c9b27fb")],
        ids=["within-the-budgets", "past-the-budgets"])
    def test_standard_mode_keeps_its_bits(self, monkeypatch, tmp_path,
                                          budget, digest):
        # detections.json of the tiny config in `standard` mode, as recorded
        # when every layer projected the BEV cells' keys and values itself:
        # its cross-attention within the budgets (the dense softmax) and,
        # with every blocked op under budgets of 16 scores, in tiles. Each
        # forward builds the cells' attention operands once, for all layers
        # (and each self-attention its own)
        cells = TINY["grid"]["cells"][0] * TINY["grid"]["cells"][1]
        built = []
        original = ad.attention_keys

        def counting(x, *args):
            built.append(np.shape(val(x))[0])
            return original(x, *args)

        monkeypatch.setattr(ad, "attention_keys", counting)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(TINY, model={
            **TINY["model"], "attention_mode": "standard"})))
        with (verify.block_bytes(budget) if budget
              else contextlib.nullcontext()):
            assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
        assert built.count(cells) == 1
        assert len(built) == 1 + TINY["model"]["n_layers"]
        assert hashlib.sha256((tmp_path / "o" / "detections.json")
                              .read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("queries_per_block, n_blocks", [
        (None, 1), (9, 2), (6, 3)])
    def test_query_blocks_keep_the_bits(self, monkeypatch, tiny_config,
                                        tmp_path, queries_per_block,
                                        n_blocks):
        # detections.json of the tiny config, as recorded when every layer
        # sampled and mixed its 18 queries at once. Budgets of 9 and 6
        # queries' kernels and samples (896 bytes each at C = 8, N_p = 4)
        # split them into equal blocks, and keep the 2-head
        # self-attention's 5,184 bytes of scores within the budget
        calls = []
        original = decoder.corner_sample

        def counting(bev, points):
            calls.append(np.shape(val(points))[0])
            return original(bev, points)

        monkeypatch.setattr(decoder, "corner_sample", counting)
        with (verify.block_bytes(896 * queries_per_block)
              if queries_per_block else contextlib.nullcontext()):
            assert main(["run", tiny_config, "--out",
                         str(tmp_path / "o")]) == 0
        n_layers = TINY["model"]["n_layers"]
        assert calls == [18 // n_blocks] * (n_blocks * n_layers)
        assert hashlib.sha256((tmp_path / "o" / "detections.json")
                              .read_bytes()).hexdigest() == (
            "1e1813f675efac5a722b407ebc689df9ff1f98fd3b151711113a407c55a499a6")

    def test_trace_holds_each_scenes_stage_times(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(TINY, scene={**TINY["scene"],
                                                     "n_scenes": 3})))
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 0
        text = (out / "trace.json").read_text()
        assert text.endswith("}\n") and "\n" not in text[:-1]
        scenes = json.loads(text)["scenes"]
        assert [entry["scene"] for entry in scenes] == [0, 1, 2]
        for entry in scenes:
            assert set(entry) == {"scene", "stage_s"}
            stages = entry["stage_s"]
            assert set(stages) == {"vt", "fuse", "select", "decoder"}
            assert all(type(t) is float and math.isfinite(t) and t >= 0
                       for t in stages.values())


class TestViz:
    def test_constant_tensor_mid_gray(self, tmp_path):
        path = tmp_path / "t.bfk"
        bfk.save(path, np.full((2, 4, 6), 3.25))
        out = tmp_path / "img.pgm"
        assert main(["viz", str(path), "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert raw.startswith(b"P5\n6 4\n255\n")
        assert set(raw[len(b"P5\n6 4\n255\n"):]) == {128}

    def test_delta_tensor_single_white_pixel(self, tmp_path):
        arr = np.zeros((1, 5, 5))
        arr[0, 2, 3] = 7.0
        path = tmp_path / "t.bfk"
        bfk.save(path, arr)
        out = tmp_path / "img.pgm"
        assert main(["viz", str(path), "--out", str(out)]) == 0
        pix = np.frombuffer(out.read_bytes()[len(b"P5\n5 5\n255\n"):],
                            dtype=np.uint8).reshape(5, 5)
        assert pix[2, 3] == 255
        assert (pix == 255).sum() == 1
        assert pix[0, 0] == 0

    def test_dimensions_match_tensor(self, tmp_path, rng):
        path = tmp_path / "t.bfk"
        bfk.save(path, rng.normal(size=(3, 7, 9)))
        out = tmp_path / "img.pgm"
        assert main(["viz", str(path), "--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"P5\n9 7\n255\n")

    def test_channel_select(self, tmp_path):
        arr = np.zeros((2, 3, 3))
        arr[1, 1, 1] = 1.0
        path = tmp_path / "t.bfk"
        bfk.save(path, arr)
        out = tmp_path / "img.pgm"
        assert main(["viz", str(path), "--out", str(out), "--channel", "0"]) == 0
        pix = np.frombuffer(out.read_bytes()[len(b"P5\n3 3\n255\n"):],
                            dtype=np.uint8)
        assert set(pix) == {128}  # channel 0 is constant zero

    def test_points_overlay(self, tmp_path):
        path = tmp_path / "t.bfk"
        bfk.save(path, np.zeros((1, 8, 8)))
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps([[1, 2], [6.2, 4.8]]))
        out = tmp_path / "img.pgm"
        assert main(["viz", str(path), "--out", str(out),
                     "--points", str(pts)]) == 0
        pix = np.frombuffer(out.read_bytes()[len(b"P5\n8 8\n255\n"):],
                            dtype=np.uint8).reshape(8, 8)
        assert pix[2, 1] == 255 and pix[5, 6] == 255

    @pytest.mark.parametrize("text", [
        "[1, 2]", "[[1]]", '{"a": 1}', '[["a", 2]]', "[[NaN, 0]]",
        "[[1e400, 0]]", "[[1, 2, 3]]", "5", "[[true, 0]]",
    ])
    def test_malformed_points_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "t.bfk"
        bfk.save(path, np.zeros((1, 8, 8)))
        pts = tmp_path / "pts.json"
        pts.write_text(text)
        out = tmp_path / "o.pgm"
        assert main(["viz", str(path), "--out", str(out),
                     "--points", str(pts)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(JSON_VALUES)
    def test_any_points_document_exit_0_or_2(self, value):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.bfk")
            bfk.save(path, np.zeros((1, 4, 4)))
            pts = os.path.join(tmp, "pts.json")
            with open(pts, "w") as fh:
                json.dump(value, fh)
            assert main(["viz", path, "--out", os.path.join(tmp, "o.pgm"),
                         "--points", pts]) in (0, 2)

    def test_bad_file_exit_2(self, tmp_path):
        path = tmp_path / "bad.bfk"
        path.write_bytes(b"garbage")
        assert main(["viz", str(path), "--out", str(tmp_path / "o.pgm")]) == 2

    def test_header_cut_off_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cut.bfk"
        path.write_bytes(b"BFK1\x03\x00\x00\x00\x05\x00")
        assert main(["viz", str(path), "--out", str(tmp_path / "o.pgm")]) == 2
        assert "runtime failure" not in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("channel", [None, 1])
    def test_non_finite_values_exit_2(self, tmp_path, capsys, bad, channel):
        arr = np.ones((2, 4, 4))
        arr[1, 2, 3] = bad
        path = tmp_path / "t.bfk"
        bfk.save(path, arr)
        out = tmp_path / "o.pgm"
        argv = ["viz", str(path), "--out", str(out)]
        if channel is not None:
            argv += ["--channel", str(channel)]
        assert main(argv) == 2
        assert "NaN or inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("channel", ["2", "-1"])
    def test_channel_out_of_range_exit_2(self, tmp_path, capsys, channel):
        path = tmp_path / "t.bfk"
        bfk.save(path, np.ones((2, 4, 4)))
        out = tmp_path / "o.pgm"
        assert_error_exit_2(["viz", str(path), "--out", str(out),
                             "--channel", channel], capsys)

    def test_missing_points_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "t.bfk"
        bfk.save(path, np.ones((1, 4, 4)))
        out = tmp_path / "o.pgm"
        assert_error_exit_2(["viz", str(path), "--out", str(out),
                             "--points", str(tmp_path / "missing.json")],
                            capsys)

    def test_finite_channel_of_non_finite_tensor(self, tmp_path):
        arr = np.ones((2, 4, 4))
        arr[1, 2, 3] = np.nan
        path = tmp_path / "t.bfk"
        bfk.save(path, arr)
        out = tmp_path / "o.pgm"
        assert main(["viz", str(path), "--out", str(out),
                     "--channel", "0"]) == 0
        assert set(out.read_bytes()[len(b"P5\n4 4\n255\n"):]) == {128}

    def test_wrong_rank_exit_2(self, tmp_path):
        path = tmp_path / "t.bfk"
        bfk.save(path, np.zeros((4, 4)))
        assert main(["viz", str(path), "--out", str(tmp_path / "o.pgm")]) == 2

    @pytest.mark.parametrize("shape", [(2, 0, 4), (2, 4, 0), (0, 4, 4)])
    @pytest.mark.parametrize("channel", [None, 0])
    def test_zero_extent_exit_2(self, tmp_path, capsys, shape, channel):
        path = tmp_path / "t.bfk"
        bfk.save(path, np.zeros(shape))
        out = tmp_path / "o.pgm"
        argv = ["viz", str(path), "--out", str(out)]
        if channel is not None:
            argv += ["--channel", str(channel)]
        assert main(argv) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.tuples(*[st.integers(0, 4)] * 3).flatmap(
        lambda shape: st.tuples(st.just(shape), st.lists(
            st.integers(0, 2 ** 32 - 1), min_size=math.prod(shape),
            max_size=math.prod(shape)))))
    def test_any_rank_3_tensor_exit_0_or_2(self, tensor):
        # a well-formed BFK1 file of any extents 0-4, each value any float32
        # bit pattern: NaNs, infinities and subnormals included
        shape, bits = tensor
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.bfk")
            with open(path, "wb") as fh:
                fh.write(bfk.MAGIC + struct.pack("<4I", 3, *shape)
                         + struct.pack(f"<{len(bits)}I", *bits))
            out = os.path.join(tmp, "o.pgm")
            for extra in ([], ["--channel", "0"]):
                assert main(["viz", path, "--out", out] + extra) in (0, 2)


@pytest.mark.parametrize("command, out", [
    pytest.param("run", "file", id="run-out-is-a-file"),
    pytest.param("run", "file/sub", id="run-out-under-a-file"),
    pytest.param("viz", "missing/x.pgm", id="viz-out-in-a-missing-dir"),
    pytest.param("viz", "dir", id="viz-out-is-a-dir"),
])
def test_unusable_out_exit_2(tiny_config, tmp_path, capsys, command, out):
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    tensor = tmp_path / "t.bfk"
    bfk.save(tensor, np.ones((1, 4, 4)))
    source = str(tensor) if command == "viz" else tiny_config
    assert main([command, source, "--out", str(tmp_path / out)]) == 2
    assert "runtime failure" not in capsys.readouterr().err


class TestVerify:
    def test_negative_seed_exit_2(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_optimized_python_exit_2(self):
        # -O strips the asserts that the checks fail through
        src = str(pathlib.Path(bevlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "bevlab.cli", "verify", "--suite",
             "props"], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2
        assert ("verify needs assert statements: run Python without -O or "
                "PYTHONOPTIMIZE") in proc.stderr

    def test_all_suites_pass(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert code == 0 and not failed, "\n".join(failed)
        assert "19/19 checks passed" in out

    def test_injected_bilinear_bug_fails_oracle_suite(self, capsys,
                                                      monkeypatch):
        import bevlab.autodiff as ad

        orig = ad.bilinear_gather
        monkeypatch.setattr(ad, "bilinear_gather",
                            lambda fmap, xs, ys: orig(fmap, ys, xs))
        assert main(["verify", "--suite", "oracle"]) == 1
        assert "FAIL" in capsys.readouterr().out
