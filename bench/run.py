"""hologen benchmark: one workload per run, closed loop, checked outputs.

Usage, from the root of the repository:

    python3 bench/run.py --workload growth --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0
    python3 bench/run.py --write-manifest

A run imports hologen from ./src, builds the workload's maps from the seed
(timed as set-up), then runs whole rounds of map operations until
--seconds have passed, checking every output. Times are reported at the
reference speed of `yardstick.py`, read next to every timed call, since
the host's own speed drifts by up to 2x. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
of a traced run with --trace 1. `--workload all` runs every workload in
both modes and prints every metric with its unit. `--write-manifest` rewrites
BENCHMARK.json from the definitions below.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import yardstick  # noqa: E402

RUN_SECONDS = 20
SETUP_REPEATS = 9

WORKLOAD_WHY = {
    "growth": "verify_growth_bound and the inequality chain on seven shells, all nine "
              "(dim, p) pairs plus dense p = 2 copies: time goes to the numrange "
              "climbers and polymaps.eval_batch",
    "certify": "criterion-3 round trips with a boundary probe, criterion-8 agreement: "
               "large shell-grid batches in certify, numrange idle",
    "flows": "invariance sweeps, semigroup checks and closed forms: the Python "
             "Dormand-Prince loop with single-row eval_batch calls",
    "suite": "hologen verify-suite --jobs 2 in-process: the user-facing command and "
             "the cli layer with its thread pool",
}

END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("maps_per_s", "1/s", "higher", 0.25),
    ("map_s_p50", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

PER_LAYER = [
    ("numrange.calls", "calls/map", "lower"),
    ("numrange.self_s", "s/map", "lower"),
    ("numrange.rows", "rows/map", "lower"),
    ("numrange.rows_per_eval_call", "rows/call", "higher"),
    ("numrange.shell_sup_ratio_min", "ratio", "higher"),
    ("numrange.shell_sup_ratio_mean", "ratio", "higher"),
    ("numrange.range_radius_ratio_min", "ratio", "higher"),
    ("numrange.range_inf_ratio_min", "ratio", "higher"),
    ("polymaps.eval_batch.calls", "calls/map", "lower"),
    ("polymaps.eval_batch.rows", "rows/map", "lower"),
    ("polymaps.eval_batch.rows_per_call", "rows/call", "higher"),
    ("polymaps.eval_batch.self_s", "s/map", "lower"),
    ("polymaps.homogeneous.self_s", "s/map", "lower"),
    ("spaces.norm_batch.calls", "calls/map", "lower"),
    ("spaces.norm_batch.rows", "rows/map", "lower"),
    ("spaces.norm_batch.self_s", "s/map", "lower"),
    ("spaces.support_batch.calls", "calls/map", "lower"),
    ("spaces.support_batch.rows", "rows/map", "lower"),
    ("spaces.support_batch.self_s", "s/map", "lower"),
    ("spaces.sphere_sample.self_s", "s/map", "lower"),
    ("certify.calls", "calls/map", "lower"),
    ("certify.self_s", "s/map", "lower"),
    ("certify.rows", "rows/map", "lower"),
    ("bounds.calls", "calls/map", "lower"),
    ("bounds.self_s", "s/map", "lower"),
    ("flows.integrate.calls", "calls/map", "lower"),
    ("flows.steps", "steps/map", "lower"),
    ("flows.self_s", "s/map", "lower"),
    ("flows.rows_per_eval_call", "rows/call", "higher"),
    ("cli.self_s", "s/map", "lower"),
    ("run.cpu_s", "s/map", "lower"),
    ("run.cpu_per_wall", "ratio", "lower"),
    ("run.trace_overhead", "ratio", "lower"),
    ("run.speed_ratio", "ratio", "lower"),
]


def import_hologen():
    """Import hologen from ./src only; exit when it is not there.

    Workloads reach hologen through the returned package's modules at call
    time (`hg.bounds.verify_growth_bound`), so the tracer sees every call.
    """
    if not (SRC / "hologen" / "__init__.py").is_file():
        sys.exit(f"bench: no hologen sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hologen
    import hologen.cli  # noqa: F401  (not imported by the package itself)

    if Path(hologen.__file__).resolve().parent != (SRC / "hologen").resolve():
        sys.exit(f"bench: hologen imported from {hologen.__file__}, not from {SRC}")
    return hologen


def import_seconds() -> float:
    """Median time, at the reference speed, of importing hologen in a fresh
    interpreter."""
    code = ("import time; t = time.perf_counter(); import hologen, hologen.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, readings = [], [yardstick.reading()]
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
        readings.append(yardstick.reading())
    return statistics.median(yardstick.scaled(times, readings))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    hg = import_hologen()
    build, make_ops = workloads.WORKLOADS[name]
    builds, readings = [], [yardstick.reading()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = build(hg, seed)
        builds.append(time.perf_counter() - t0)
        readings.append(yardstick.reading())
    build_s = statistics.median(yardstick.scaled(builds, readings))
    import_s = import_seconds()
    setup_s = import_s + build_s
    print(f"bench: setup import={import_s:.4f}s build={build_s:.4f}s", file=sys.stderr)

    tracer = None
    untraced_first = None
    if trace:
        from tracer import Tracer

        first = make_ops(hg, state, 0)[0]
        t0 = time.perf_counter()
        first.run()
        untraced_first = time.perf_counter() - t0
        tracer = Tracer()
        tracer.install()

    errors, quality = [], {}
    attempted = failed = maps = 0
    op_log, first_traced = [], None
    op_maps, op_pos, op_wall = [], [], []  # maps per position; position, seconds per call
    readings = []  # yardstick readings, one before each call and one after the last
    busy = cpu = 0.0
    start = time.perf_counter()
    round_index = 0
    try:
        while round_index == 0 or time.perf_counter() - start < seconds:
            for pos, op in enumerate(make_ops(hg, state, round_index)):
                readings.append(yardstick.reading())
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    result = op.run()
                except Exception as exc:  # a crash is a wrong output; keep measuring
                    result = exc
                dt = time.perf_counter() - t0
                cpu += time.process_time() - c0
                if first_traced is None:
                    first_traced = dt
                busy += dt
                maps += op.maps
                attempted += op.maps
                if round_index == 0:
                    op_maps.append(op.maps)
                op_pos.append(pos)
                op_wall.append(dt)
                op_log.append(f"{op.label}={dt:.3f}")
                if isinstance(result, Exception):
                    outcome = workloads.Outcome([f"{op.label}: {type(result).__name__}: {result}"])
                else:
                    outcome = op.check(result)
                errors.extend(outcome.errors)
                if outcome.failed:
                    failed += op.maps
                for key, values in outcome.quality.items():
                    quality.setdefault(key, []).extend(values)
            round_index += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - start
    readings.append(yardstick.reading())
    speed = statistics.median(readings)
    # each operation's median over the rounds, at the reference speed: a
    # slow spell during one call or one round then moves the figures less
    op_times = [[] for _ in op_maps]
    for pos, dt in zip(op_pos, yardstick.scaled(op_wall, readings)):
        op_times[pos].append(dt)
    typical = [statistics.median(ts) for ts in op_times]

    for line in errors[:20]:
        print(f"bench: check failed: {line}", file=sys.stderr)
    print("bench: op seconds " + " ".join(op_log), file=sys.stderr)
    import numpy

    print(f"bench: nproc={os.cpu_count()} python={sys.version.split()[0]} "
          f"numpy={numpy.__version__} OPENBLAS_NUM_THREADS="
          f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}", file=sys.stderr)
    print(f"bench: {name} seed={seed} rounds={round_index} maps={maps} busy={busy:.3f}s "
          f"wall={wall:.3f}s failed={failed} wall_maps_per_s={maps / busy:.4f} "
          f"speed_ratio={speed:.4f}", file=sys.stderr)

    if trace:
        metrics = layer_metrics(tracer, maps, cpu, busy, first_traced / untraced_first,
                                quality, speed)
    else:
        metrics = {
            "setup_s": setup_s,
            "maps_per_s": sum(op_maps) / sum(typical),
            "map_s_p50": statistics.median(
                [t / m for t, m in zip(typical, op_maps) for _ in range(m)]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {n: u for n, u, _, _ in END_TO_END}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_metrics(tr, maps: int, cpu: float, busy: float, overhead: float,
                  quality: dict, speed: float) -> dict:
    """Per-layer figures per map; times are at the reference speed, scaled
    by the run's median yardstick reading `speed`."""
    def per_map(x):
        return x / maps

    def per_map_s(x):
        return x / maps / speed

    def ratio(a, b):
        return a / b if b else 0.0

    ev_calls = ev_rows = ev_self = 0
    for kind in ("PolyMap", "CallableMap"):
        c, s, r = tr.span(f"polymaps.{kind}.eval_batch")
        ev_calls, ev_self, ev_rows = ev_calls + c, ev_self + s, ev_rows + r
    nb = tr.span("spaces.NormedSpace.norm_batch")
    sb = tr.span("spaces.NormedSpace.support_batch")
    nr_calls, nr_rows = tr.owned.get("numrange", (0, 0))
    fl_calls, fl_rows = tr.owned.get("flows", (0, 0))
    shell = quality.get("shell_sup_ratio", [])
    values = {
        "numrange.calls": per_map(tr.layer_calls("numrange")),
        "numrange.self_s": per_map_s(tr.layer_self("numrange")),
        "numrange.rows": per_map(nr_rows),
        "numrange.rows_per_eval_call": ratio(nr_rows, nr_calls),
        "numrange.shell_sup_ratio_min": min(shell, default=0.0),
        "numrange.shell_sup_ratio_mean": statistics.fmean(shell) if shell else 0.0,
        "numrange.range_radius_ratio_min": min(quality.get("range_radius_ratio", []), default=0.0),
        "numrange.range_inf_ratio_min": min(quality.get("range_inf_ratio", []), default=0.0),
        "polymaps.eval_batch.calls": per_map(ev_calls),
        "polymaps.eval_batch.rows": per_map(ev_rows),
        "polymaps.eval_batch.rows_per_call": ratio(ev_rows, ev_calls),
        "polymaps.eval_batch.self_s": per_map_s(ev_self),
        "polymaps.homogeneous.self_s": per_map_s(tr.span("polymaps.HomogeneousPoly.eval_batch")[1]),
        "spaces.norm_batch.calls": per_map(nb[0]),
        "spaces.norm_batch.rows": per_map(nb[2]),
        "spaces.norm_batch.self_s": per_map_s(nb[1]),
        "spaces.support_batch.calls": per_map(sb[0]),
        "spaces.support_batch.rows": per_map(sb[2]),
        "spaces.support_batch.self_s": per_map_s(sb[1]),
        "spaces.sphere_sample.self_s": per_map_s(tr.span("spaces.NormedSpace.sphere_sample")[1]),
        "certify.calls": per_map(tr.layer_calls("certify")),
        "certify.self_s": per_map_s(tr.layer_self("certify")),
        "certify.rows": per_map(tr.owned.get("certify", (0, 0))[1]),
        "bounds.calls": per_map(tr.layer_calls("bounds")),
        "bounds.self_s": per_map_s(tr.layer_self("bounds")),
        "flows.integrate.calls": per_map(tr.span("flows.integrate")[0]),
        "flows.steps": per_map(tr.steps),
        "flows.self_s": per_map_s(tr.layer_self("flows")),
        "flows.rows_per_eval_call": ratio(fl_rows, fl_calls),
        "cli.self_s": per_map_s(tr.layer_self("cli")),
        "run.cpu_s": per_map_s(cpu),
        "run.cpu_per_wall": cpu / busy,
        "run.trace_overhead": overhead,
        "run.speed_ratio": speed,
    }
    units = {n: u for n, u, _ in PER_LAYER}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_WHY) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    # every workload, untraced then traced, one subprocess each
    ok = True
    for name in WORKLOAD_WHY:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(out.stderr)
            line = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
            result = json.loads(line)
            ok = ok and out.returncode == 0 and result.get("correct", False)
            print(f"{name} trace={trace}:")
            for metric, m in result.get("metrics", {}).items():
                print(f"  {metric:36s} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
