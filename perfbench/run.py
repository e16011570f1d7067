"""Run one benchmark workload in this process and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload relax64 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the set-up
is repeated (``setup_s`` is the median) and the timed phase is repeated
while another repetition still fits in ``--seconds`` (at least once;
``wall_s`` is the median).  Both times are corrected for the drifting
speed of a shared host by the calibration chunks of ``pacer.py``; the raw
times are in the details line.  ``peak_rss_mb`` is the peak resident
memory of this process over the set-up and the first repetition, so each
workload run needs its own process.

``--trace 1`` gives the per-layer metrics: the toy self-test, one
untraced set-up and repetition (for ``trace.overhead_s``, ``process.cpu_s``
and the entry-point times), then one set-up and repetition under the
tracer, both with the calibration timer running; the chunks' time is
taken out of every span, entry-point time and CPU time.  The spans are
written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details (versions, thread settings, repetitions, failures).
The program is imported from ``src/`` next to this directory; without it
the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# one thread everywhere: the workloads are single-process on a small box
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("relax64", "landscape16", "string16")

# set-up is repeated at least this often, and more while it stays cheap
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 3, 100, 1.0


def _median(values) -> float:
    return float(statistics.median(values))


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _setups(workload, seed: int, ops, wrap, pacer) -> tuple[object, list[float], list[float]]:
    """Repeat the set-up; return the last inputs and the raw and calibrated times."""
    raw: list[float] = []
    calibrated: list[float] = []
    inputs = None
    while len(raw) < SETUP_MIN_REPS or (len(raw) < SETUP_MAX_REPS and sum(raw) < SETUP_BUDGET_S):
        t_raw, t_cal, inputs = pacer.measure(lambda: workload.setup(seed, ops, wrap))
        raw.append(t_raw)
        calibrated.append(t_cal)
    return inputs, raw, calibrated


def _timed_rep(workload, inputs, ops, wrap, workdir, pacer) -> tuple[float, float, float, dict]:
    """One repetition of the timed phase.

    Returns raw and calibrated seconds, CPU seconds and the seconds spent
    in each entry-point group.
    """
    gc.collect()
    before = dict(ops.seconds)
    c0, s0 = process_time(), pacer.spent()
    raw, calibrated, _ = pacer.measure(lambda: workload.run(inputs, ops, wrap, workdir))
    cpu = process_time() - c0 - (pacer.spent() - s0)
    groups = {g: s - before.get(g, 0.0) for g, s in ops.seconds.items() if s > before.get(g, 0.0)}
    return raw, calibrated, cpu, groups


def _same(system):
    return system


def measure(workload, seed: int, seconds: float, ops, workloads, pacer) -> tuple[dict, dict]:
    with pacer:
        inputs, setup_raw, setup_cal = _setups(workload, seed, ops, _same, pacer)
        walls_raw, walls_cal, groups = [], [], []
        with workloads.workdir_for(OUT) as workdir:
            start = perf_counter()
            while True:
                raw, cal, _, rep_groups = _timed_rep(workload, inputs, ops, _same, Path(workdir), pacer)
                walls_raw.append(raw)
                walls_cal.append(cal)
                groups.append(rep_groups)
                if len(walls_raw) == 1:
                    # later repetitions may keep caches of earlier ones alive, so
                    # the peak is taken over the set-up and one repetition
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if perf_counter() - start + _median(walls_raw) > seconds:
                    break
    metrics = {
        "setup_s": (_median(setup_cal), "s"),
        "wall_s": (_median(walls_cal), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    names = sorted({g for rep in groups for g in rep})
    details = {
        "setup_raw_s": setup_raw,
        "setup_calibrated_s": setup_cal,
        "wall_raw_s": walls_raw,
        "wall_calibrated_s": walls_cal,
        "entry_raw_s": {g: _median([rep.get(g, 0.0) for rep in groups]) for g in names},
        "calibration_chunks": len(pacer.chunk_times()),
        "calibration_chunk_median_s": _median(pacer.chunk_times()),
    }
    return metrics, details


def trace(workload, seed: int, ops, workloads, tracing, selftest, pacer) -> tuple[dict, dict]:
    ops.call("selftest", selftest.problems, check=lambda found: "; ".join(found))

    tracer = tracing.Tracer()

    def counting(system):
        return tracing.CountingSystem(system, tracer)

    with workloads.workdir_for(OUT) as workdir, pacer:
        inputs = workload.setup(seed, ops, _same)
        wall, wall_cal, cpu, groups = _timed_rep(workload, inputs, ops, _same, Path(workdir), pacer)
        with tracing.instrument(tracer):
            inputs = workload.setup(seed, ops, counting)
            traced_wall, traced_cal, _, _ = _timed_rep(workload, inputs, ops, counting, Path(workdir), pacer)

    chunks = pacer.chunk_log()
    values = tracing.layer_metrics(tracer, chunks)
    values.update(
        {
            "minimize_s": groups.get("minimize", 0.0),
            "certify_s": groups.get("certify", 0.0),
            "flow_s": groups.get("flow", 0.0),
            "process.cpu_s": cpu,
            "trace.overhead_s": traced_cal - wall_cal,
        }
    )
    trace_file = OUT / f"trace-{workload.name}-seed{seed}.npz"
    tracer.save(trace_file, chunks)
    metrics = {
        name: (int(values[name]) if unit == "count" else values[name], unit)
        for name, unit, _ in tracing.PER_LAYER
    }
    details = {
        "untraced_wall_raw_s": wall,
        "untraced_wall_calibrated_s": wall_cal,
        "traced_wall_raw_s": traced_wall,
        "traced_wall_calibrated_s": traced_cal,
        "spans": len(tracer.parent),
        "trace_file": str(trace_file.relative_to(HERE.parent)),
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nematicq" / "__init__.py").is_file():
        print(f"nematicq sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy is imported
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import selftest
    import tracing
    import workloads
    from pacer import Pacer

    workload = workloads.WORKLOADS[args.workload]
    pacer = Pacer()
    ops = workloads.Ops(pacer.clock)
    if args.trace:
        metrics, details = trace(workload, args.seed, ops, workloads, tracing, selftest, pacer)
    else:
        metrics, details = measure(workload, args.seed, args.seconds, ops, workloads, pacer)

    info = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seed_note": "draws the random minimize start from the seed"
        if workload.uses_seed
        else "no random inputs: the seed is ignored",
        "trace": args.trace,
        "environment": _environment(),
        "ops": ops.attempted,
        "ops_failed": ops.failed,
        "failures": ops.failures,
        **details,
    }
    print(json.dumps(info))
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
