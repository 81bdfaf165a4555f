"""Co-sim benchmark: lane-cycles/s on three workloads, plus a traced layer split.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch64 --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --write-reference       # regenerate reference.json

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer metrics from traced repetitions
interleaved with untraced ones and exports the last traced repetition as
Chrome trace-event JSON.  Each run prints one ``name value unit`` line
per metric, writes a manifest that ``repro compare`` diffs under
``perfbench/results/<workload>-seed<N>[-traced]/``, and prints one JSON
object as its last line.  Metric names, units and bounds live in
``BENCHMARK.json``.
"""

import os

# One compute thread: pin the BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
#: Fresh-interpreter set-up probes per run (median reported).
SETUP_PROBES = 5
#: Floor on timed repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 3

_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = {paths!r}\n"
    "from perfbench.workloads import probe_setup\n"
    "probe_setup({name!r}, {seed})\n"
    "print(time.monotonic())\n"
)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure_setup(name: str, seed: int, probes: int) -> list:
    """Host seconds from spawning a fresh interpreter to its first cycles.

    Both ends read ``CLOCK_MONOTONIC`` (``time.monotonic``), which is
    system-wide on Linux, so the child's timestamp after its
    minimal-length run closes the interval without its exit time.
    """
    code = _PROBE.format(paths=[str(ROOT), str(SRC)], name=name, seed=seed)
    samples = []
    for _ in range(probes):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, cwd=ROOT, check=True,
        )
        samples.append(float(out.stdout.split()[-1]) - start)
    return samples


class Run:
    """Timed repetitions of one workload plus their correctness ledger."""

    def __init__(self, workload, seed: int, host) -> None:
        from perfbench.workloads import CYCLES, WARMUP

        self.workload = workload
        self.seed = seed
        self.host = host
        self.lanes = workload.lanes(seed)
        self.lane_cycles = len(self.lanes) * (CYCLES + WARMUP)
        self.host_times: list = []  # host seconds of the untraced reps
        self.baseline = None  # lane summaries of the first repetition
        self.reference_lanes = None  # default-seed lane summaries
        self.attempted = 0
        self.failed = 0

    def rep(self) -> float:
        """One timed repetition; returns its host seconds."""
        from perfbench.checks import lane_summary

        results, elapsed = self.host.timed(
            lambda: self.workload.run(self.lanes)
        )
        lanes = [lane_summary(r) for r in results]
        del results
        self.attempted += len(lanes)
        if self.baseline is None:
            self.baseline = lanes
            self.failed += sum(not lane["healthy"] for lane in lanes)
        else:
            # Same inputs, same bits: any digest change is a failure.
            self.failed += sum(
                not lane["healthy"] or lane["digest"] != base["digest"]
                for lane, base in zip(lanes, self.baseline)
            )
        return elapsed

    def check(self) -> dict:
        """Untimed checks after the timed repetitions.

        The batch≡serial cross-check runs one sampled lane through the
        other entry point; the reference check compares default-seed
        physics with ``reference.json`` (reusing the first repetition
        when ``--seed`` is the default seed) and keeps those lane
        summaries as ``reference_lanes``.
        """
        from perfbench.checks import (
            digest,
            lane_summary,
            load_reference,
            reference_check,
        )
        from perfbench.workloads import CYCLES, DEFAULT_SEED, WARMUP

        j = self.seed % len(self.lanes)
        other = digest(self.workload.run_other_path(self.lanes[j]))
        cross_ok = other == self.baseline[j]["digest"]
        self.attempted += 1
        self.failed += not cross_ok

        if self.seed == DEFAULT_SEED:
            ref_lanes = self.baseline
        else:
            results = self.workload.run(self.workload.lanes(DEFAULT_SEED))
            ref_lanes = [lane_summary(r) for r in results]
            del results
            self.attempted += len(ref_lanes)
            self.failed += sum(not lane["healthy"] for lane in ref_lanes)
        ref = reference_check(
            self.workload.name,
            {"cycles": CYCLES, "warmup": WARMUP, "seed": DEFAULT_SEED},
            ref_lanes, load_reference(),
        )
        self.failed += len(ref["failed"])
        self.reference_lanes = ref_lanes
        return {
            "cross_check_lane": j,
            "cross_check_ok": cross_ok,
            "reference_failed_lanes": ref["failed"],
            "reference_identical_lanes": ref["identical"],
            "reference_lanes": len(ref_lanes),
        }


def measure(workload, seed: int, seconds: float, trace: bool, out_dir: Path):
    """Run one workload; returns ``(metrics, extra manifest fields, run)``.

    Times are in reference seconds (see ``hostspeed``); the manifest
    also keeps the host-second samples.  ``seconds`` budgets host time.
    """
    from perfbench import layers
    from perfbench.hostspeed import HostProbe
    from perfbench.workloads import CYCLES, WARMUP

    # Warm-up: builds or loads the C kernels and fills lazy caches
    # before anything is timed.
    workload.run(workload.lanes(seed, cycles=2, warmup=1))
    metrics: dict = {}
    extra: dict = {}
    with HostProbe() as host:
        run = Run(workload, seed, host)
        if not trace:
            setup = measure_setup(workload.name, seed, SETUP_PROBES)
            while (sum(run.host_times) < seconds
                   or len(run.host_times) < MIN_REPS):
                run.host_times.append(run.rep())
            scale = host.scale()
            metrics["setup_s"] = statistics.median(setup) * scale
            extra["host_setup_s_samples"] = setup
        else:
            # Pairs of untraced/traced repetitions: the untraced ones give
            # the overhead's base; traced physics must match them bit for
            # bit.
            tracer = layers.Tracer()
            traced, summaries = [], []
            while (sum(run.host_times) + sum(traced) < seconds
                   or len(traced) < MIN_REPS):
                run.host_times.append(run.rep())
                with tracer.installed():
                    traced.append(run.rep())
                summaries.append(layers.summarize(tracer.spans))
            scale = host.scale()
            per_rep = [
                layer_metrics(s, len(run.lanes), run.lane_cycles, scale)
                for s in summaries
            ]
            for name in per_rep[0]:
                metrics[name] = statistics.median(m[name] for m in per_rep)
            metrics["circuits.shards"] = float(_shards(workload))
            metrics["trace.overhead_frac"] = (
                statistics.median(traced) / statistics.median(run.host_times)
                - 1.0
            )
            extra["trace_closure_s"] = max(
                abs(sum(s["self_s"].values()) - s["wall_s"])
                for s in summaries
            )
            extra["trace_file"] = str(layers.write_chrome_trace(
                tracer.spans, out_dir / "trace.json",
                {"workload": workload.name, "seed": seed, "cycles": CYCLES,
                 "warmup": WARMUP, "lanes": len(run.lanes)},
            ).relative_to(ROOT))
            extra["trace_spans"] = len(tracer.spans)
        extra["checks"] = run.check()
        extra["host_probe_s_samples"] = host.samples

    host_rates = [run.lane_cycles / t for t in run.host_times]
    rates = [r / scale for r in host_rates]
    q1, q3 = _quartiles(rates)
    metrics["lane_cycles_per_s"] = statistics.median(rates)
    extra["lane_cycles_per_s_q1"] = q1
    extra["lane_cycles_per_s_q3"] = q3
    extra["reps"] = len(rates)
    extra["reference_s_per_host_s"] = scale
    extra["host_lane_cycles_per_s_samples"] = host_rates
    # Physics on the reference-seed lanes: it repeats exactly from run
    # to run, so any move in the last bits shows against the parent.
    base = run.reference_lanes
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    metrics["passed_lane_frac"] = (
        (run.attempted - run.failed) / run.attempted
    )
    metrics["sim_min_voltage_v"] = min(lane["min_voltage_v"] for lane in base)
    metrics["sim_ipc"] = statistics.fmean(
        lane["throughput_ipc"] for lane in base
    )
    metrics["sim_pde"] = statistics.fmean(lane["pde"] for lane in base)
    return metrics, extra, run


def layer_metrics(summary: dict, lanes: int, lane_cycles: int,
                  scale: float) -> dict:
    """Per-layer numbers of one traced repetition (see BENCHMARK.json).

    ``scale`` converts host seconds to reference seconds, as for the
    end-to-end times.
    """
    from perfbench.layers import LAYERS

    self_s, calls = summary["self_s"], summary["calls"]
    m = {
        f"{layer}_us": self_s[layer] * scale * 1e6 / lane_cycles
        for layer in LAYERS if layer != "setup.lane"
    }
    m["setup.lane_us"] = self_s["setup.lane"] * scale * 1e6 / lanes
    for layer in ("gpu.step", "gpu.actuate", "circuits.solve",
                  "core.observe", "faults.inject"):
        m[f"{layer}_calls"] = calls[layer] / lane_cycles
    m["circuits.refactor_calls"] = float(calls["circuits.refactor"])
    return m


def _shards(workload) -> int:
    """LU shards of the batched solver; a serial lane is one factorization."""
    from repro.sim.cosim import last_batch_solver_info

    if not workload.batched:
        return 1
    return int(last_batch_solver_info().get("shards", 0))


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_one(args) -> int:
    from perfbench.checks import environment
    from perfbench.workloads import CYCLES, WARMUP, WORKLOADS

    spec = _load_spec()
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}" + ("-traced" if args.trace else "")
    out_dir = RESULTS / tag
    wall_start = time.time()
    metrics, extra, run = measure(
        workload, args.seed, args.seconds, bool(args.trace), out_dir
    )
    env = environment()
    correct = run.failed == 0 and env["valid"]

    section = "per_layer" if args.trace else "end_to_end"
    report = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in spec[section]
    }
    manifest = {
        "run_id": f"perfbench-{tag}",
        "created_unix": wall_start,
        "wall_s": time.time() - wall_start,
        "git_rev": None,
        "config": {
            "workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "cycles": CYCLES, "warmup_cycles": WARMUP,
            "lanes": len(run.lanes),
        },
        "seed": args.seed,
        # End-to-end numbers under ``metrics``, per-layer under
        # ``timings_s``: the two places ``repro compare`` reads.
        "metrics": {
            k: v for k, v in metrics.items() if k not in _per_layer(spec)
        } | {
            "reference_identical_lanes":
                extra["checks"]["reference_identical_lanes"],
        },
        "timings_s": {k: v for k, v in metrics.items()
                      if k in _per_layer(spec)},
        "attempted": run.attempted,
        "failed": run.failed,
        "correct": correct,
        "environment": env,
        **extra,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=2, default=str)

    print(f"perfbench {tag}: {run.attempted} lanes attempted, "
          f"{run.failed} failed, {len(run.host_times)} timed reps")
    for name, entry in report.items():
        print(f"  {name:<24} {entry['value']:>14.6g} {entry['unit']}")
    if not args.trace:
        print(f"  lane_cycles_per_s q1/q3   {extra['lane_cycles_per_s_q1']:.6g}"
              f" / {extra['lane_cycles_per_s_q3']:.6g} over {extra['reps']} reps")
    print(f"  reference: {extra['checks']['reference_identical_lanes']}/"
          f"{extra['checks']['reference_lanes']} lanes bit-identical")
    print(f"  environment: valid={env['valid']} threads={env['threads']} "
          f"gpu={env['gpu_backend']} solver={env['solver_backend']} "
          f"shards={env['solver_shards']}")
    print(f"  manifest: {(out_dir / 'manifest.json').relative_to(ROOT)}")
    if not env["valid"]:
        print("perfbench: run INVALID — it did not measure the compiled, "
              "single-threaded program (see manifest environment)",
              file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": report,
    }))
    return 0 if correct else 1


def _per_layer(spec: dict) -> set:
    return {m["name"] for m in spec["per_layer"]}


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    from perfbench.workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if not lines or out.returncode not in (0, 1):
            print(f"perfbench: workload {name} crashed", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def write_reference() -> int:
    """Record default-seed lane physics for every workload."""
    from perfbench.checks import REFERENCE_PATH, lane_summary
    from perfbench.workloads import CYCLES, DEFAULT_SEED, WARMUP, WORKLOADS

    doc = {"cycles": CYCLES, "warmup": WARMUP, "seed": DEFAULT_SEED,
           "workloads": {}}
    for name, workload in WORKLOADS.items():
        results = workload.run(workload.lanes(DEFAULT_SEED))
        doc["workloads"][name] = [
            {k: v for k, v in lane_summary(r).items() if k != "healthy"}
            for r in results
        ]
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the reference seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed seconds per run (BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no co-sim sources at {SRC}/repro; run from a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench.workloads import WORKLOADS

    if args.seed is None:
        from perfbench.workloads import DEFAULT_SEED

        args.seed = DEFAULT_SEED
    if args.write_reference:
        return write_reference()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
