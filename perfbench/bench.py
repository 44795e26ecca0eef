"""Measurement loop, metrics and the result line of the rodwave benchmark.

Untraced run (``--trace 0``): set-up is timed in fresh interpreters, a unit
of the same workload on a tiny input is run as a warm-up, then a fixed
number of units is drawn, timed and checked: ``--seconds`` divided by the
workload's ``UNIT_REF_S``, the time of one unit on the reference host.  The
count does not depend on how fast the host runs, so a seed and ``--seconds``
fix every input of a run and with it ``attempted`` and ``failed``.

Times are reported at the speed of a reference host.  On a shared host the
same unit runs up to 2x slower for minutes at a time, in CPU time as well as
in wall time, so a raw median follows the host more than the program.  Each
run also times ``calibration()``, a fixed mix of the operations rodwave
spends its time on, between units (about 10 % of their time) and before every
set-up launch.  It reports ``CAL_REF_S * median(raw time / calibration)``,
each unit taken against the median of the calibrations on both sides of it.
Adjacent unit and calibration times correlate at about 0.8 on that host.
The raw figures are printed beside the scaled ones.

Traced run (``--trace 1``): one drawn unit is run alternately without and
with the span wrappers of ``spans.py``, a fixed number of times.  The per-layer metrics come from the
traced runs (counts from the first, raw times as medians); the untraced runs
give the baseline for ``trace.overhead_s`` and the bytes the traced outputs
must match.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import KNOWN_CAUSES, Tally
from spans import TRACED, Patches, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

MIN_UNITS = 3  # a median needs a few units even when --seconds is tiny
MIN_TRACED, MAX_TRACED = 2, 5  # untraced + traced pairs of a traced run
SETUP_RUNS = 9  # fresh interpreters per run; the median is reported
# calibration() time on the host the benchmark was tuned on (2 vCPUs of a
# 2.0 GHz Xeon) in its fastest observed periods; reported times are scaled
# to that speed
CAL_REF_S = 0.045
CAL_SHARE = 0.1  # calibration time per unit, as a share of the unit's time

# name -> (unit, better); the order is the order of the result line
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "points_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# traced function -> the statistics reported for it
LAYER_STATS = {
    "config.load_config": ("calls", "s"),
    "config.unit_cell": ("calls", "s"),
    "materials.effective_properties": ("calls",),
    "rod.driving_impedance": ("calls", "self_s"),
    "rod.near_pole": ("calls",),
    "trench.flexural_wavevector": ("calls",),
    "cell.forcing_strength": ("calls", "self_s"),
    "cell.cell_matrices": ("calls", "s", "self_s"),
    "bloch.sweep": ("calls", "s", "self_s"),
    "bloch.bloch_point": ("calls", "s", "self_s"),
    "bloch.stopband_report": ("calls", "s", "self_s"),
    "bloch.band_gamma_extrema": ("calls", "s"),
    "bloch.semi_infinite_reflection": ("calls", "s"),
    "bloch.chain_profile": ("calls", "s"),
    "workbench.run_frequency_sweep": ("self_s",),
    "workbench.run_geometry_sweep": ("self_s",),
    "workbench.run_impedance": ("self_s",),
    "cli.main": ("calls", "self_s"),
    "numpy.linalg.eig": ("calls", "s"),
    "numpy.linalg.solve": ("calls", "s"),
    "numpy.linalg.det": ("calls", "s"),
    "numpy.linalg.inv": ("calls", "s"),
}
DERIVED = {
    "bloch.refine_steps": ("count", "lower"),
    "bloch.semi_infinite_reflection.retries": ("count", "lower"),
    "bloch.cell_matrices_per_point": ("calls/point", "lower"),
    "cell.sigma_evals_per_point": ("calls/point", "lower"),
    "numpy.linalg.calls_per_point": ("calls/point", "lower"),
    "workbench.csv_rows": ("count", "lower"),
    "workbench.csv_bytes": ("bytes", "lower"),
    "run.points": ("count", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
PER_LAYER = {
    f"{name}.{stat}": ("count" if stat == "calls" else "s", "lower")
    for name, stats in LAYER_STATS.items()
    for stat in stats
}
PER_LAYER.update(DERIVED)

# printed with every result but not part of the result line, because they
# exist only on some workloads or can be 0
EXTRA_UNITS = {
    "raw_setup_s": "s",
    "raw_wall_s": "s",
    "raw_wall_min_s": "s",
    "calibration_s": "s",
    "queries": "count",
    "queries_per_s": "1/s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "fail_frac": "1",
}

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import rodwave
rodwave.unit_cell(rodwave.load_config(sys.argv[2]))
print(time.perf_counter())
"""


def calibration() -> float:
    """Seconds for fixed work shaped like rodwave's: a scalar complex root
    continuation, 4x4 numpy assembly and linear algebra, float formatting.
    It does not use rodwave, so a change to the program cannot move it."""
    t0 = perf_counter()
    acc = 0.0
    parts = []
    for i in range(800):
        k = 1.0 + i * 1e-3
        y = complex(2 * math.cos(k))
        for j in range(1, 9):
            s = j / 8
            su = 2 * math.cos(k) + 2 * math.cosh(k) + s * (math.sinh(k) - math.sin(k))
            pr = 4 * math.cos(k) * math.cosh(k) + s * (
                math.cos(k) * math.sinh(k) - math.sin(k) * math.cosh(k)
            )
            disc = cmath.sqrt(su * su - 4 * pr)
            y = min((su + disc) / 2, (su - disc) / 2, key=lambda v: abs(v - y))
        e = [cmath.exp(-1j * k), cmath.exp(k), cmath.exp(1j * k), cmath.exp(-k)]
        m = np.array([[e[0], 0.1, 0.2j, 0.3], [0.1j, e[1], 0.2, 0.3j],
                      [0.2, 0.1j, e[2], 0.1], [0.3j, 0.2, 0.1, e[3]]])
        t = np.diag(e) @ m @ np.diag(e)
        acc += abs(np.linalg.det(t)) + abs(np.linalg.inv(m)[0, 0]) + abs(y)
        if i % 4 == 0:
            acc += abs(np.linalg.eig(t)[0][0])
        parts.append(repr(acc))
    ",".join(parts)
    return perf_counter() - t0


def import_rodwave():
    """Import rodwave from this checkout's ``src`` and nowhere else."""
    init = SRC / "rodwave" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} is missing; run from the root of a rodwave checkout")
    sys.path.insert(0, str(SRC))
    import rodwave
    import rodwave.cli  # noqa: F401  (the CLI module is driven directly)

    if Path(rodwave.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported rodwave from {rodwave.__file__}, not {init}")
    return rodwave


def machine_facts(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def measure_setup(doc: dict, workdir: Path, runs: int) -> tuple[list[float], list[float]]:
    """(launch times, calibration times): fresh interpreter to a built unit cell.

    Each timed launch is preceded by its own calibration.
    """
    cfg = workdir / "setup.json"
    cfg.write_text(json.dumps(doc))
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(cfg)]
    times, cals = [], []
    for i in range(runs + 1):  # the first launch also writes bytecode caches
        cal = calibration()
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append(float(proc.stdout.split()[-1]) - t0)
            cals.append(cal)
    return times, cals


def run_unit(wl, unit, tally: Tally | None):
    """Run one unit; an exception fails every check of the unit."""
    try:
        return wl.run(unit)
    except Exception as exc:  # the measured loop keeps going and reports it
        print(f"perfbench: {wl.name} unit raised {exc!r}", file=sys.stderr)
        if tally is not None:
            n = wl.checks_per_unit()
            tally.add("exit_ok", n, n)
        return None


def unit_count(wl, seconds: float) -> int:
    """Units of a timed run: about ``seconds`` of work on the reference host."""
    return max(MIN_UNITS, round(seconds / wl.UNIT_REF_S))


def pair_count(wl, seconds: float) -> int:
    """Untraced + traced pairs of a traced run (tracing adds about 40 %)."""
    return min(MAX_TRACED, max(MIN_TRACED, round(seconds / (2.4 * wl.UNIT_REF_S))))


def timed_run(wl, warm_wl, seconds: float, tally: Tally, workdir: Path, setup_runs: int):
    warm = warm_wl.draw()
    setups, setup_cals = measure_setup(warm_wl.setup_doc(warm), workdir, setup_runs)
    run_unit(warm_wl, warm, None)  # warm-up: imports, allocator, file cache
    walls: list[float] = []
    cal_blocks = [[calibration()]]
    latencies: list[float] = []
    for _ in range(unit_count(wl, seconds)):
        unit = wl.draw()
        t0 = perf_counter()
        result = run_unit(wl, unit, tally)
        walls.append(perf_counter() - t0)
        # calibrate for about CAL_SHARE of the unit's time, at least once
        count = max(1, round(CAL_SHARE * walls[-1] / statistics.median(cal_blocks[-1])))
        cal_blocks.append([calibration() for _ in range(count)])
        if result is not None:
            wl.check(unit, result, tally)
            latencies.extend(wl.latencies(result))
    # each unit is compared with the calibrations on both sides of it
    ratios = [w / statistics.median(before + after)
              for w, before, after in zip(walls, cal_blocks, cal_blocks[1:])]
    wall_s = CAL_REF_S * statistics.median(ratios)
    metrics = {
        "setup_s": CAL_REF_S * statistics.median(t / c for t, c in zip(setups, setup_cals)),
        "wall_s": wall_s,
        "points_per_s": wl.points / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "units": len(walls),
        "raw_setup_s": statistics.median(setups),
        "raw_wall_s": statistics.median(walls),
        "raw_wall_min_s": min(walls),
        "calibration_s": statistics.median(c for block in cal_blocks for c in block),
    }
    if latencies:
        pct = statistics.quantiles(latencies, n=100)
        extra.update(
            queries=len(latencies),
            queries_per_s=len(latencies) / sum(latencies),
            query_p50_us=statistics.median(latencies) * 1e6,
            query_p99_us=pct[98] * 1e6,
        )
    return metrics, extra


def count_signature(tracer: Tracer) -> dict:
    return {edge: st[0] for edge, st in tracer.edges.items()}


def layer_metrics(tracers: list[Tracer], points: int, csv_stats) -> dict:
    totals = [t.totals() for t in tracers]

    def stat(name: str, index: int):
        values = [t.get(name, (0, 0.0, 0.0))[index] for t in totals]
        return values[0] if index == 0 else statistics.median(values)

    metrics = {}
    for name, stats in LAYER_STATS.items():
        for s in stats:
            metrics[f"{name}.{s}"] = stat(name, ("calls", "s", "self_s").index(s))
    first = tracers[0]
    calls = {name: stat(name, 0) for name in TRACED}
    metrics["bloch.refine_steps"] = first.calls_under("cell.cell_matrices", "bloch.stopband_report")
    metrics["bloch.semi_infinite_reflection.retries"] = (
        first.calls_under("cell.cell_matrices", "bloch.semi_infinite_reflection")
        - calls["bloch.semi_infinite_reflection"]
    )
    linalg = sum(calls[f"numpy.linalg.{fn}"] for fn in ("eig", "solve", "det", "inv"))
    metrics["bloch.cell_matrices_per_point"] = calls["cell.cell_matrices"] / points
    metrics["cell.sigma_evals_per_point"] = calls["cell.forcing_strength"] / points
    metrics["numpy.linalg.calls_per_point"] = linalg / points
    metrics["workbench.csv_rows"], metrics["workbench.csv_bytes"] = csv_stats
    metrics["run.points"] = points
    metrics["trace.spans"] = sum(st[0] for st in first.edges.values())
    return metrics


def traced_run(wl, warm_wl, seconds: float, tally: Tally):
    run_unit(warm_wl, warm_wl.draw(), None)  # warm-up
    unit = wl.draw()
    plain: list[float] = []
    traced: list[float] = []
    tracers: list[Tracer] = []
    for _ in range(pair_count(wl, seconds)):
        t0 = perf_counter()
        result = run_unit(wl, unit, tally)
        plain.append(perf_counter() - t0)
        if result is None:
            break
        expected = wl.outputs(result)
        wl.check(unit, result, tally)

        tracer = Tracer()
        with Patches() as patches:
            tracer.install(patches)
            t0 = perf_counter()
            result = run_unit(wl, unit, tally)
            traced.append(perf_counter() - t0)
        tracers.append(tracer)
        if result is None:
            break
        tally.check("trace_transparent", wl.outputs(result) == expected)
        wl.check(unit, result, tally)
    if not tracers:
        raise RuntimeError(f"{wl.name}: the traced unit could not be run")
    if len(tracers) > 1:
        first = count_signature(tracers[0])
        tally.check("trace_counts_repeat", all(count_signature(t) == first for t in tracers[1:]))
    metrics = layer_metrics(tracers, wl.points, wl.csv_stats())
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, {"units": len(traced)}


def run_benchmark(rw, workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; return (result line, report) as dicts."""
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    tally = Tally()
    try:
        wl = WORKLOADS[workload](rw, seed, workdir, tiny)
        # the warm-up runs the same code on a tiny input of its own
        warm_wl = WORKLOADS[workload](rw, seed, workdir, True)
        if trace:
            metrics, extra = traced_run(wl, warm_wl, seconds, tally)
            units = PER_LAYER
        else:
            metrics, extra = timed_run(wl, warm_wl, seconds, tally, workdir,
                                       1 if tiny else SETUP_RUNS)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    extra["fail_frac"] = tally.failed / tally.attempted
    result = {
        "correct": tally.integrity_failures == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }
    report = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_facts(seed),
        "extra": extra,
        "checks": tally.classes,
    }
    return result, report


def report_lines(result: dict, report: dict) -> list[str]:
    lines = [
        f"perfbench workload={report['workload']} seconds={report['seconds']} "
        f"trace={report['trace']} units={report['extra']['units']}",
        "machine " + json.dumps(report["machine"], sort_keys=True),
    ]
    for name, m in result["metrics"].items():
        lines.append(f"metric {name} {m['value']!r} {m['unit']}")
    for name, unit in EXTRA_UNITS.items():
        if name in report["extra"]:
            lines.append(f"metric {name} {report['extra'][name]!r} {unit}")
    for name, (attempted, failed) in report["checks"].items():
        note = f"  known cause: {KNOWN_CAUSES[name]}" if name in KNOWN_CAUSES and failed else ""
        lines.append(f"check {name} attempted={attempted} failed={failed}{note}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    rw = import_rodwave()
    result, report = run_benchmark(rw, args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report_lines(result, report):
        print(line)
    print(json.dumps(result), flush=True)
    return 0
