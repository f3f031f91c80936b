"""Self-tests of the benchmark harness (not of the library):

    PYTHONPATH=src python -m pytest benchmarks/perf/tests -q

Everything runs at ``--smoke`` sizes; outside tier-1's ``testpaths``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from benchmarks.perf import __main__ as cli
from benchmarks.perf import compare, metrics, reference, runner, sweep, worker, workloads

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
IN_PROCESS = [n for n in metrics.WORKLOADS if n not in ("coldstart", "warmstart")]


@pytest.fixture(autouse=True)
def private_caches(monkeypatch, tmp_path):
    """Tests that drive the library in this process must not read or
    write ``~/.cache/pyacc`` either."""
    monkeypatch.setenv("PYACC_COMPILE_CACHE", str(tmp_path / "compile"))
    monkeypatch.setenv("PYACC_NATIVE_CACHE", str(tmp_path / "native"))


def test_catalogue_is_the_contract():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == metrics.benchmark_json()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert len(doc["workloads"]) == 8
    assert len(doc["end_to_end"]) <= 16 and len(doc["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in doc["end_to_end"]
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])


@pytest.fixture(scope="module")
def smoke_doc():
    return runner.run_suite(list(metrics.WORKLOADS), seed=7, trace=True, smoke=True)


def test_smoke_suite_schema(smoke_doc):
    assert smoke_doc["schema"] == runner.SCHEMA
    assert set(smoke_doc["host"]) == {
        "cores", "llc_bytes", "python", "numpy", "scipy", "cc", "git_sha", "src_lines"}
    assert list(smoke_doc["workloads"]) == list(metrics.WORKLOADS)
    for name, entry in smoke_doc["workloads"].items():
        assert entry["correct"], (name, entry["detail"])
        assert entry["failed_frac"] == 0 and entry["ops_attempted"] >= 1
        assert set(entry["end_to_end"]) == set(metrics.E2E_UNITS), name
        assert set(entry["per_layer"]) == set(metrics.LAYER_UNITS), name
        for metric, cell in entry["end_to_end"].items():
            assert cell["unit"] == metrics.E2E_UNITS[metric]
            assert cell["value"] > 0, (name, metric)
        trace = json.loads((runner.OUT / f"trace-{name}.json").read_text())
        assert {"op", "host_gap"} <= {e["name"] for e in trace["traceEvents"]}
        assert entry["per_layer"]["core.launches_per_op"]["value"] >= 1, name


def test_reported_percentiles_have_ten_samples_beyond(smoke_doc):
    reported = 0
    for entry in smoke_doc["workloads"].values():
        layer = entry["per_layer"]
        for metric, needed in (("apps.op_ms_p50", 21), ("apps.op_ms_p90", 100)):
            if layer[metric]["value"]:
                reported += 1
                assert layer["apps.samples"]["value"] >= needed
    assert reported >= 4


def test_layers_show_up_where_predicted(smoke_doc):
    layer = {n: e["per_layer"] for n, e in smoke_doc["workloads"].items()}
    assert layer["lbm_cluster"]["backends.cluster.shards_per_op"]["value"] > 0
    assert layer["lbm_native"]["backends.cluster.shards_per_op"]["value"] == 0
    assert layer["hpccg_small_native"]["graph.captures"]["value"] == 3
    assert layer["axpy_dot_small"]["graph.captures"]["value"] == 0
    assert layer["hpccg_small_native"]["apps.iters_to_tol"]["value"] > 0
    assert layer["coldstart"]["ir.cgen.cc_invocations"]["value"] > 0
    assert layer["warmstart"]["ir.cgen.cc_invocations"]["value"] == 0
    assert layer["warmstart"]["ir.cache.disk_hits"]["value"] > 0


@pytest.mark.parametrize("name", IN_PROCESS)
def test_equal_seeds_give_identical_inputs(name):
    def inputs(seed):
        w = workloads.make(name, smoke=True)
        w.configure()
        w.setup(seed)
        arrays = [v for v in vars(w).values() if isinstance(v, np.ndarray)]
        scalars = [v for v in vars(w).values() if isinstance(v, float)]
        blob = b"".join(a.tobytes() for a in arrays) + repr(scalars).encode()
        w.teardown()
        return blob

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_sweep_inputs_follow_the_seed():
    def blob(seed):
        return repr(sorted((k, np.asarray(v).tobytes()) for k, v in sweep.make_inputs(seed).items()))

    assert blob(3) == blob(3) and blob(3) != blob(4)


def test_wrong_reference_fails_every_op(monkeypatch, tmp_path):
    monkeypatch.setattr(reference, "axpy_dot", lambda alpha, x, y, tmp: 0.0)
    doc = worker.run_inprocess("axpy_dot_small", 1, 0.05, False, True, tmp_path)
    assert not doc["correct"] and doc["failed"] == doc["attempted"] >= 1


def test_failed_check_fails_the_command(monkeypatch, tmp_path):
    bad = {"correct": False, "detail": "x", "attempted": 4, "failed": 4, "samples": 0, "metrics": {}}
    monkeypatch.setattr(runner, "run_workload", lambda *a, **k: bad)
    out = tmp_path / "doc.json"
    assert cli.main(["run", "--workload", "axpy_dot_small", "--smoke", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["workloads"]["axpy_dot_small"]["failed_frac"] == 1.0


def _doc(path: Path, op_ms: float, failed: int = 0) -> str:
    cells = {m: {"value": 1.0, "unit": u} for m, u in metrics.E2E_UNITS.items()}
    cells["op_ms_min"] = {"value": op_ms, "unit": "ms"}
    path.write_text(json.dumps({"workloads": {"w": {"failed_frac": failed, "end_to_end": cells}}}))
    return str(path)


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([10.0, 10.1, 10.2], [10.1, 10.0, 10.3], "same"),
        ([10.0, 10.1, 10.2], [14.0, 14.1, 14.2], "worse"),
        ([10.0, 10.1, 10.2], [7.0, 7.1, 7.2], "better"),
        ([10.0, 14.0, 18.0], [13.0, 17.0, 21.0], "unresolved"),  # A's own spread > bound, overlapping
        ([10.0, 14.0, 18.0], [30.0, 31.0, 32.0], "worse"),  # noisy parent, but every run worse
    ],
)
def test_compare_verdicts(tmp_path, a, b, expected):
    fa = [_doc(tmp_path / f"a{i}.json", v) for i, v in enumerate(a)]
    fb = [_doc(tmp_path / f"b{i}.json", v) for i, v in enumerate(b)]
    rows = {r["metric"]: r for r in compare.compare(fa, fb)}
    assert rows["op_ms_min"]["verdict"] == expected
    assert rows["setup_s"]["verdict"] == "same"
    assert compare.main(fa + ["--"] + fb) == (1 if expected == "worse" else 0)


def test_compare_counts_failed_ops_as_worse(tmp_path):
    fa = [_doc(tmp_path / "a.json", 10.0)]
    fb = [_doc(tmp_path / "b.json", 10.0, failed=1)]
    assert compare.main(fa + ["--"] + fb) == 1


def test_entry_point_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "perf", tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "axpy_dot_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
