"""Regenerate the stored references the benchmark checks outputs against.

    python3 perfbench/make_reference.py [detect] [detect_xattn] [fit]

Run it from the repository root, only when a change is meant to alter
detections or the loss curve; the references pin the outputs of the commit
they were made at.
"""

from __future__ import annotations

import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402

NAMES = ("detect", "detect_xattn", "fit")


def main(argv):
    names = argv or list(NAMES)
    unknown = set(names) - set(NAMES)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2
    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    for name in names:
        workdir = os.path.join(ROOT, ".perfbench_run", f"reference-{name}")
        try:
            if name == "fit":
                data = wl.compute_fit_reference()
            else:
                data = wl.compute_detect_reference(name, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        np.savez_compressed(wl.reference_path(name), **data)
        print(f"{name}: wrote {wl.reference_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
