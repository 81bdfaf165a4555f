"""Tests for kernel specs and warp-stream generation."""

import numpy as np
import pytest

from repro.gpu.isa import ENERGY, LATENCY, UNIT_FOR_CLASS, InstructionClass
from repro.gpu.kernels import (
    UNIT_ORDER,
    KernelSpec,
    build_warps,
    jittered_lengths,
    stream_arrays,
)
from repro.workloads.benchmarks import BENCHMARK_NAMES, get_benchmark


class TestSpecValidation:
    def test_default_spec_is_valid(self):
        KernelSpec("ok")

    def test_rejects_empty_mix(self):
        with pytest.raises(ValueError, match="empty mix"):
            KernelSpec("bad", mix={})

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="negative"):
            KernelSpec("bad", mix={InstructionClass.FALU: -1.0})

    def test_rejects_zero_weight_sum(self):
        with pytest.raises(ValueError, match="zero"):
            KernelSpec("bad", mix={InstructionClass.FALU: 0.0})

    @pytest.mark.parametrize("dep", [-0.1, 1.1])
    def test_rejects_out_of_range_dependence(self, dep):
        with pytest.raises(ValueError, match="dependence"):
            KernelSpec("bad", dependence=dep)

    def test_rejects_nonpositive_warps(self):
        with pytest.raises(ValueError, match="warps"):
            KernelSpec("bad", warps_per_sm=0)


class TestGeneration:
    def test_deterministic_given_seed(self):
        spec = KernelSpec("det", body_length=200)
        a = build_warps(spec, seed=5)
        b = build_warps(spec, seed=5)
        for wa, wb in zip(a, b):
            assert [i.op for i in wa.instructions] == [i.op for i in wb.instructions]

    def test_different_seeds_differ(self):
        spec = KernelSpec("det", body_length=200)
        a = build_warps(spec, seed=5)
        b = build_warps(spec, seed=6)
        assert any(
            [i.op for i in wa.instructions] != [i.op for i in wb.instructions]
            for wa, wb in zip(a, b)
        )

    def test_warp_count_follows_spec(self):
        spec = KernelSpec("count", warps_per_sm=7, body_length=50)
        assert len(build_warps(spec, 0)) == 7
        assert len(build_warps(spec, 0, num_warps=3)) == 3

    def test_mix_respected_statistically(self):
        spec = KernelSpec(
            "mixy",
            mix={InstructionClass.LOAD: 0.5, InstructionClass.FALU: 0.5},
            body_length=4000,
        )
        warps = build_warps(spec, 1, num_warps=1)
        ops = [i.op for i in warps[0].instructions]
        load_fraction = ops.count(InstructionClass.LOAD) / len(ops)
        assert load_fraction == pytest.approx(0.5, abs=0.05)

    def test_jitter_varies_stream_length(self):
        spec = KernelSpec("jit", body_length=1000)
        warps = build_warps(spec, 2, jitter=0.2)
        lengths = {len(w.instructions) for w in warps}
        assert len(lengths) > 1

    def test_zero_jitter_uniform_lengths(self):
        spec = KernelSpec("uni", body_length=500)
        warps = build_warps(spec, 2, jitter=0.0)
        assert {len(w.instructions) for w in warps} == {500}

    def test_jitter_range_validated(self):
        spec = KernelSpec("jit")
        with pytest.raises(ValueError, match="jitter"):
            build_warps(spec, 0, jitter=1.0)

    def test_stores_and_branches_have_no_dest(self):
        spec = KernelSpec(
            "stores",
            mix={InstructionClass.STORE: 0.5, InstructionClass.BRANCH: 0.5},
            body_length=100,
        )
        warps = build_warps(spec, 3, num_warps=1)
        assert all(i.dest == -1 for i in warps[0].instructions)

    def test_phase_structure_boosts_memory(self):
        spec = KernelSpec(
            "phased",
            mix={InstructionClass.LOAD: 0.1, InstructionClass.FALU: 0.9},
            body_length=4000,
            phase_period=500,
            phase_memory_boost=3.0,
        )
        warps = build_warps(spec, 4, num_warps=1)
        ops = [i.op for i in warps[0].instructions]
        compute_phase = ops[:500]
        memory_phase = ops[500:1000]
        compute_loads = compute_phase.count(InstructionClass.LOAD)
        memory_loads = memory_phase.count(InstructionClass.LOAD)
        assert memory_loads > 3 * compute_loads


def _columns_of(instructions):
    """The StreamArrays columns of one warp's Instruction objects."""
    op = [i.op for i in instructions]
    latency = np.array([LATENCY[c] for c in op], dtype=np.int64)
    energy = np.array([ENERGY[c] for c in op], dtype=float)
    span = np.clip(latency, 1, 6)
    dest = np.array([i.dest for i in instructions], dtype=np.int64)
    return {
        "unit": np.array(
            [UNIT_ORDER.index(UNIT_FOR_CLASS[c]) for c in op], dtype=np.int64
        ),
        "latency": latency,
        "energy": energy,
        "span": span,
        "share": energy / span,
        "is_load": np.array([c is InstructionClass.LOAD for c in op]),
        "dest": dest,
        "dest_col": np.where(dest >= 0, dest, 16),
        "src1_col": np.array([i.srcs[0] for i in instructions],
                             dtype=np.int64),
        "src2_col": np.array(
            [i.srcs[1] if len(i.srcs) > 1 else 16 for i in instructions],
            dtype=np.int64,
        ),
    }


class TestStreamArraysMatchBuildWarps:
    """The engine's arrays and lengths equal build_warps' objects, bytewise."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_arrays_and_lengths(self, name):
        bench = get_benchmark(name)
        spec = bench.kernel
        body, count = spec.body_length, spec.warps_per_sm
        for seed in (0, 7, 7919 * 3 + 11):
            arrays = stream_arrays(spec, seed, count)
            for jitter in (0.0, bench.jitter, 0.5, 0.999):
                for jitter_seed in (None, seed * 65_537 + 5):
                    warps = build_warps(spec, seed, jitter=jitter,
                                        jitter_seed=jitter_seed)
                    lengths = jittered_lengths(spec, count, jitter,
                                               jitter_seed, seed)
                    assert lengths.dtype == np.int64
                    assert lengths.tolist() == [
                        len(w.instructions) for w in warps
                    ]
                    for w, warp in enumerate(warps):
                        # A lengthened stream wraps to its own head.
                        eff = np.arange(lengths[w]) % body
                        want = _columns_of(warp.instructions)
                        for field, column in want.items():
                            got = getattr(arrays, field)[w, eff]
                            assert got.dtype == column.dtype, field
                            assert got.tobytes() == column.tobytes(), (
                                name, seed, jitter, jitter_seed, w, field
                            )

    def test_lengths_are_jittered_around_body(self):
        spec = KernelSpec("jl", body_length=100, warps_per_sm=64)
        lengths = jittered_lengths(spec, 64, 0.999, 3, 0)
        assert 1 <= lengths.min() and lengths.max() <= 200
        assert len(set(lengths.tolist())) > 10

    def test_lengths_validate_jitter(self):
        with pytest.raises(ValueError, match="jitter"):
            jittered_lengths(KernelSpec("jl"), 4, -0.1, None, 0)
