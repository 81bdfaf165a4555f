"""Smoke tests of the co-sim benchmark (run: python -m pytest perfbench/tests)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers
from perfbench.checks import digest
from perfbench.hostspeed import REFERENCE_S, HostProbe
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = dict(cycles=40, warmup=10)


def _run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def _traced(workload, lanes):
    tracer = layers.Tracer()
    with tracer.installed():
        results = workload.run(lanes)
    return results, tracer.spans


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_emits_every_metric_with_its_unit(trace, section):
    out = _run_bench("--workload", "faults8", "--seed", "5",
                     "--seconds", "0", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in lines[:-1]), name
    tag = "faults8-seed5" + ("-traced" if trace else "")
    manifest = json.loads(
        (ROOT / "perfbench" / "results" / tag / "manifest.json").read_text()
    )
    assert manifest["environment"]["valid"]
    if trace:
        assert manifest["trace_closure_s"] < 1e-6
        chrome = json.loads((ROOT / manifest["trace_file"]).read_text())
        assert chrome["traceEvents"]
        assert {e["ph"] for e in chrome["traceEvents"]} == {"X"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_and_glue_add_up_to_traced_wall(name):
    workload = WORKLOADS[name]
    _, spans = _traced(workload, workload.lanes(2, **SMOKE))
    summary = layers.summarize(spans)
    roots = [s for s in spans if s[4] is None]
    wall = sum(s[2] - s[1] for s in roots)
    assert summary["roots"] == len(roots) == (1 if workload.batched else 12)
    assert sum(summary["self_s"].values()) == pytest.approx(wall, abs=1e-9)
    assert summary["wall_s"] == pytest.approx(wall, abs=1e-12)
    assert all(v >= -1e-9 for v in summary["self_s"].values())
    # Every span belongs to the root whose interval contains it.
    root_span = {s[3]: s for s in roots}
    for code, start, end, sid, parent, root in spans:
        r = root_span[root]
        assert r[1] <= start <= end <= r[2]
    for layer in ("gpu.step", "circuits.solve", "core.observe",
                  "setup.lane", "sim.glue"):
        assert summary["self_s"][layer] > 0, layer


def test_fault_workload_reaches_every_fault_and_telemetry_layer():
    workload = WORKLOADS["faults8"]
    _, spans = _traced(workload, workload.lanes(2, cycles=400, warmup=10))
    summary = layers.summarize(spans)
    for layer in ("faults.inject", "telemetry.flight", "circuits.refactor",
                  "core.commands", "gpu.actuate", "circuits.guard"):
        assert summary["calls"][layer] > 0, layer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_physics_is_bit_identical_to_untraced(name):
    workload = WORKLOADS[name]
    lanes = workload.lanes(4, **SMOKE)
    plain = [digest(r) for r in workload.run(lanes)]
    traced, _ = _traced(workload, lanes)
    assert [digest(r) for r in traced] == plain


def test_tracer_restores_every_wrapped_method():
    originals = [
        vars(layers._resolve(owner))[attr] for _, owner, attr in layers.WRAPS
    ]
    workload = WORKLOADS["single"]
    tracer = layers.Tracer()
    with pytest.raises(ValueError):
        with tracer.installed():
            wrapped = [
                vars(layers._resolve(owner))[attr]
                for _, owner, attr in layers.WRAPS
            ]
            assert all(w is not o for w, o in zip(wrapped, originals))
            workload.run(workload.lanes(1, **SMOKE)[:1])
            raise ValueError("leave the traced block by an exception")
    restored = [
        vars(layers._resolve(owner))[attr] for _, owner, attr in layers.WRAPS
    ]
    assert all(r is o for r, o in zip(restored, originals))


def test_chrome_trace_export_nests_spans(tmp_path):
    workload = WORKLOADS["batch64"]
    _, spans = _traced(workload, workload.lanes(1, **SMOKE)[:4])
    path = layers.write_chrome_trace(spans, tmp_path / "trace.json")
    events = json.loads(path.read_text())["traceEvents"]
    assert len(events) == len(spans)
    by_id = {e["args"]["span"]: e for e in events}
    for e in events:
        parent = e["args"]["parent"]
        if parent is None:
            assert e["name"] == "cosim.run_cosim_batch"
            continue
        p = by_id[parent]
        assert p["ts"] <= e["ts"]
        assert e["ts"] + e["dur"] <= p["ts"] + p["dur"] + 1e-3
    assert {e["cat"] for e in events} <= set(layers.LAYERS)


def test_spec_thresholds_and_workloads_agree():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    thresholds = json.loads(
        (ROOT / "perfbench" / "thresholds.json").read_text()
    )
    for m in SPEC["end_to_end"]:
        assert thresholds[m["name"]] == {
            "better": m["better"], "rel_tol": m["bound"]
        }
    from repro.analysis.compare import compare_manifests, load_thresholds

    gates = load_thresholds(ROOT / "perfbench" / "thresholds.json")
    floor = 1000.0 * (1 - thresholds["lane_cycles_per_s"]["rel_tol"])

    def manifest(rate):
        return {"run_id": str(rate), "metrics": {"lane_cycles_per_s": rate}}

    assert compare_manifests(manifest(1000.0), manifest(floor + 1), gates).ok
    assert not compare_manifests(
        manifest(1000.0), manifest(floor - 1), gates
    ).ok


def test_host_probe_scales_by_its_median_and_stops():
    with HostProbe() as host:
        host.seconds()
        result, seconds = host.timed(lambda: 42)
        host.seconds()
    assert result == 42 and seconds >= 0
    assert len(host.samples) == 3 and min(host.samples) > 0
    assert host.scale() == REFERENCE_S / sorted(host.samples)[1]
    assert host._proc.poll() is not None


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = _run_bench("--workload", "single", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
