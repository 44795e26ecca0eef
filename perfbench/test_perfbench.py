"""Fast self-test of the benchmark: every workload at a tiny size.

Run from the root of a checkout:

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
QUERY_METRICS = {"queries_per_s": "1/s", "query_p50_us": "us", "query_p99_us": "us"}


@pytest.fixture(scope="module")
def rw():
    return bench.import_rodwave()


@pytest.fixture(scope="module")
def runs(rw):
    return {
        (name, trace): bench.run_benchmark(rw, name, seed=0, seconds=0, trace=trace, tiny=True)
        for name in WORKLOADS
        for trace in (False, True)
    }


def test_spec_matches_the_metric_tables():
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(runs, workload, trace):
    result, report = runs[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec}
    printed = bench.report_lines(result, report)
    expected = {name: m["unit"] for name, m in result["metrics"].items()}
    expected["fail_frac"] = "1"
    if workload == "point-queries" and not trace:
        expected.update(QUERY_METRICS)
    for name, unit in expected.items():
        assert any(
            line.startswith(f"metric {name} ") and line.endswith(f" {unit}") for line in printed
        ), name
    assert any(line.startswith("machine ") and '"seed": 0' in line for line in printed)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_is_transparent(runs, workload):
    result, report = runs[(workload, True)]
    assert report["checks"]["trace_transparent"] == [bench.MIN_TRACED, 0]
    assert report["checks"]["trace_counts_repeat"] == [1, 0]
    assert result["correct"]


def test_bloch_point_calls_equal_the_grid_on_sweep_default(runs):
    metrics = runs[("sweep-default", True)][0]["metrics"]
    assert metrics["bloch.bloch_point.calls"]["value"] == metrics["run.points"]["value"] > 0


def test_geom_sweep_runs_no_eig(runs):
    metrics = runs[("geom-sweep", True)][0]["metrics"]
    assert metrics["numpy.linalg.eig.calls"]["value"] == 0
    assert metrics["cell.cell_matrices.calls"]["value"] == metrics["run.points"]["value"]


def test_traced_counts_repeat(rw, runs):
    first = runs[("sweep-default", True)][0]["metrics"]
    again = bench.run_benchmark(rw, "sweep-default", seed=0, seconds=0, trace=True, tiny=True)[0]
    counts = [name for name, m in first.items() if m["unit"] in ("count", "calls/point", "bytes")]
    assert counts
    assert all(first[n]["value"] == again["metrics"][n]["value"] for n in counts)


@pytest.mark.parametrize("trace", [False, True])
def test_a_seed_fixes_the_checks(rw, runs, trace):
    first = runs[("point-queries", trace)][0]
    again = bench.run_benchmark(rw, "point-queries", seed=0, seconds=0, trace=trace, tiny=True)[0]
    assert (again["attempted"], again["failed"]) == (first["attempted"], first["failed"])
