"""Benchmark of bevlab: the paper's detection pipeline and its fitting loop.

    python3 perfbench/run.py --workload {detect,detect_xattn,fit} --seed N
        --seconds S --trace {0,1} [--smoke]

Run it from the repository root. Each workload runs in its own process as
a closed loop with one client: units run back to back until --seconds have
passed (at least MIN_UNITS, at most what the stored references cover).
Every unit's output is checked against the stored reference. The last line
of standard output is a JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The lines before it give the provenance of the run
and every metric by name and unit.

With --trace 1 the units alternate between plain and traced (see
tracer.py); the plain ones give the tracing overhead and the per-unit
process counters. --smoke runs a tiny configuration against references
computed in the same process, for the benchmark's own test.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("detect", "detect_xattn", "fit")
MIN_UNITS = 3

# (name, unit) of the end-to-end metrics, in BENCHMARK.json's order
END_TO_END = [("setup_s", "s"), ("scenes_per_s", "1/s"),
              ("latency_p50_s", "s"), ("latency_tail_s", "s"),
              ("peak_rss_mb", "MB")]


def _process_age():
    """Seconds since this process started, or 0 where /proc is missing."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


_AGE_AT_T0 = _process_age()


class Run:
    """Times, checks and resource use of the units of one run."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.cap = 0  # most timed units the references cover
        self.plain = []   # (wall s, cpu s, sys s, minor faults)
        self.traced = []  # wall s
        self.attempted = 0
        self.failed = 0
        self.first_start = None

    def record(self, ok, wall=None, traced=False, usage=None):
        """One checked unit; wall is None for the untimed warm-up."""
        self.attempted += 1
        self.failed += not ok
        if wall is None:
            return
        if traced:
            self.traced.append(wall)
        else:
            self.plain.append((wall, *usage))

    @property
    def timed(self):
        return len(self.plain) + len(self.traced)

    def want_more(self):
        if self.timed >= self.cap:
            return False
        if self.timed < MIN_UNITS:
            return True
        walls = [p[0] for p in self.plain] + self.traced
        elapsed = time.perf_counter() - self.first_start
        return elapsed + statistics.median(walls) <= self.seconds

    def next_traced(self, trace):
        """Traced runs alternate plain and traced units, plain first."""
        return bool(trace) and self.timed % 2 == 1


def _usage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_stime, ru.ru_minflt


def _usage_delta(before):
    after = _usage()
    return tuple(a - b for a, b in zip(after, before))


# ---------------------------------------------------------------------------
# workloads


def run_detect(args, run, tracer, workdir):
    import workloads as wl

    cfg = wl.detect_config(args.workload, args.smoke)
    if args.smoke:
        data = wl.compute_detect_reference(
            args.workload, os.path.join(workdir, "reference"), smoke=True)
    else:
        data = wl.load_reference(args.workload)
    reference = wl.DetectReference(data)
    runner = wl.DetectRunner(cfg, workdir)
    seeds = wl.scene_order(args.workload, args.seed, args.smoke)
    run.cap = len(seeds) - 1

    for i, scene_seed in enumerate(seeds):
        if i > 0 and not run.want_more():
            break
        traced = i > 0 and run.next_traced(args.trace)
        runner.prepare(scene_seed)
        before = _usage()
        if traced:
            tracer.begin_unit("cli.main")
        start = time.perf_counter()
        if i == 1:
            run.first_start = start
        code = runner.run()
        wall = time.perf_counter() - start
        if traced:
            tracer.end_unit(wall)
        usage = _usage_delta(before)
        try:
            ok = code == 0 and reference.matches(scene_seed, *runner.output())
        except (OSError, ValueError, LookupError, TypeError):
            ok = False  # missing or malformed detections.json
        if traced:
            tracer.count("cli.output_bytes", runner.output_bytes())
        run.record(ok, None if i == 0 else wall, traced, usage)
    return {"config": cfg, "scene_seeds": seeds[:run.attempted]}


class _StopFit(Exception):
    """Raised from the step-boundary hook to end a time-bounded fit."""


def run_fit(args, run, tracer, workdir):
    import tracer as tr
    import workloads as wl
    from bevlab import autodiff as ad

    cfg = wl.fit_config(args.smoke)
    variant = wl.fit_variant(args.seed)
    reference = wl.FitReference(wl.compute_fit_reference(smoke=True)
                                if args.smoke else wl.load_reference("fit"))
    pipeline_cfg, params, scenes = wl.fit_inputs(cfg, variant)
    run.cap = reference.max_steps - 1
    losses = []
    state = {"traced": False, "start": None, "before": None}

    def on_backward(backward):
        def hook(self):
            losses.append(float(ad.val(self)))
            return backward(self)
        return hook

    def on_step(sgd_step):
        # a unit is one step, from one return of sgd_step to the next;
        # step 0 (with the per-scene constants) is the warm-up
        def hook(*a, **kw):
            sgd_step(*a, **kw)
            now = time.perf_counter()
            step = run.attempted
            ok = reference.matches(variant, step, losses[step])
            if step == 0:
                run.record(ok)
            else:
                wall = now - state["start"]
                if state["traced"]:
                    tracer.end_unit(wall)
                run.record(ok, wall, state["traced"],
                           _usage_delta(state["before"]))
            if step > 0 and not run.want_more():
                raise _StopFit
            state["traced"] = run.next_traced(args.trace)
            state["before"] = _usage()
            if state["traced"]:
                tracer.begin_unit("pipeline.fit_generators")
            state["start"] = time.perf_counter()
            if step == 0:
                run.first_start = state["start"]
        return hook

    undo = [tr.patch(ad.Var, "backward", on_backward),
            tr.patch(ad, "sgd_step", on_step)]
    try:
        wl.run_fit(pipeline_cfg, params, scenes, steps=reference.max_steps)
    except _StopFit:
        pass
    except Exception:
        # a step that raises (a diverged fit) is a failed unit
        if tracer is not None and tracer.active:
            tracer.end_unit(time.perf_counter() - state["start"])
        run.record(False)
    finally:
        tr.restore(undo)
    return {"config": cfg, "fit": {"variant": variant, "lr": wl.FIT_LR,
                                   "batch_size": 1,
                                   "scene_seeds": wl.fit_scene_seeds(variant)}}


# ---------------------------------------------------------------------------
# results


def _tail(walls):
    """The 90th percentile (linear interpolation) and how many units lie
    beyond it. Runs have 3 to 47 units, too few for a percentile with ten
    samples beyond it, so the tail is fixed at p90 to stay comparable
    between runs of different length."""
    tail = statistics.quantiles(walls, n=10, method="inclusive")[-1]
    return tail, sum(w > tail for w in walls)


def end_to_end(run, setup):
    walls = [p[0] for p in run.plain]
    tail, beyond = _tail(walls)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": setup, "scenes_per_s": len(walls) / sum(walls),
               "latency_p50_s": statistics.median(walls),
               "latency_tail_s": tail, "peak_rss_mb": peak}
    detail = {"unit_s": walls, "latency_tail_pct": 90,
              "latency_tail_beyond": beyond}
    return metrics, detail


def per_layer(run, tracer):
    import tracer as tr

    metrics, gap = tr.summarize(tracer)
    plain = [p[0] for p in run.plain]
    metrics["proc.cpu_s"] = statistics.median(p[1] for p in run.plain)
    metrics["proc.sys_s"] = statistics.median(p[2] for p in run.plain)
    metrics["proc.minflt"] = statistics.median(p[3] for p in run.plain)
    metrics["proc.cpu_util"] = statistics.median(p[1] / p[0]
                                                 for p in run.plain)
    traced_p50 = statistics.median(run.traced)
    metrics["trace.latency_p50_s"] = traced_p50
    metrics["trace.overhead_s"] = traced_p50 - statistics.median(plain)
    return metrics, gap


def per_layer_units():
    """(name, unit) of every per-layer metric, in BENCHMARK.json's order."""
    import tracer as tr

    return tr.METRICS + [("proc.cpu_s", "s"), ("proc.sys_s", "s"),
                         ("proc.minflt", "count"), ("proc.cpu_util", "ratio"),
                         ("trace.latency_p50_s", "s"),
                         ("trace.overhead_s", "s")]


def _git_revision():
    # the ceiling keeps git from reading a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "bevlab", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _openblas():
    """(version, threads in effect) of the OpenBLAS numpy loaded."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return blas.get("version"), threads


def provenance(args, described):
    import numpy as np

    blas_version, blas_threads = _openblas()
    config = described["config"]
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "git_revision": _git_revision(), "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "openblas": blas_version,
        "config_sha256": hashlib.sha256(json.dumps(
            config, sort_keys=True).encode()).hexdigest(),
        "threads": {"config": config["threads"],
                    "openblas_in_effect": blas_threads,
                    **{k: os.environ.get(k) for k in (
                        "BFK_THREADS", "OPENBLAS_NUM_THREADS",
                        "OMP_NUM_THREADS")}},
        "run": {k: v for k, v in described.items() if k != "config"},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration, references computed here")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "bevlab")):
        print(f"error: no bevlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracer as tr

    workdir = os.path.join(ROOT, ".perfbench_run",
                           f"{args.workload}-{os.getpid()}")
    run = Run(args.seconds)
    tracer = tr.Tracer() if args.trace else None
    undo = tr.install(tracer) if tracer else []
    try:
        body = run_fit if args.workload == "fit" else run_detect
        described = body(args, run, tracer, workdir)
    finally:
        tr.restore(undo)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    described["error_rate"] = run.failed / run.attempted
    correct = run.failed == 0
    metrics, units = {}, []
    if args.trace and run.plain and run.traced:
        metrics, gap = per_layer(run, tracer)
        units = per_layer_units()
        described["trace_self_time_gap_s"] = gap
        correct = correct and gap <= tr.SELF_TIME_SLACK_S
    elif not args.trace and run.plain:
        setup = _AGE_AT_T0 + run.first_start - _T0
        metrics, detail = end_to_end(run, setup)
        units = END_TO_END
        described.update(detail)
    correct = correct and bool(units)

    print(json.dumps({"provenance": provenance(args, described)}))
    for name, unit in units:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
