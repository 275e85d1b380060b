"""Tests for DesignSpace and the YAML spec parser."""

import numpy as np
import pytest

from repro.dse.spec import (
    SpecError,
    dump_kernel,
    kernel_to_spec,
    load_kernel,
    loads_kernel,
    parse_kernel,
)
from repro.dse.space import DesignSpace
from repro.hlsim.ir import Array, ArrayAccess, Kernel, Loop

MINIMAL_SPEC = """
kernel: tiny
target_clock_ns: 8.0
fidelity: {irregularity: 0.3, noise: 0.01, t_hls: 10, t_syn: 60, t_impl: 200}
arrays:
  - {name: A, depth: 64, partition_factors: [1, 2, 4]}
loops:
  - name: L1
    trip: 16
    body: {add: 1, load: 1, store: 1}
    unroll: [1, 2, 4]
    pipeline: {ii: [1, 2]}
    accesses:
      - {array: A, index_loop: L1}
inline_sites:
  - {name: f, call_overhead_cycles: 3, lut_cost: 100, calls: 2}
"""


@pytest.fixture
def tiny_kernel():
    return loads_kernel(MINIMAL_SPEC)


class TestSpecParsing:
    def test_parses_minimal(self, tiny_kernel):
        assert tiny_kernel.name == "tiny"
        assert tiny_kernel.target_clock_ns == 8.0
        assert tiny_kernel.fidelity.irregularity == 0.3
        assert tiny_kernel.array("A").partition_factors == (1, 2, 4)
        loop = tiny_kernel.loop("L1")
        assert loop.pipeline_site and loop.ii_candidates == (1, 2)
        assert tiny_kernel.inline_sites[0].calls_per_kernel == 2

    def test_missing_kernel_name(self):
        with pytest.raises(SpecError, match="kernel"):
            parse_kernel({"loops": []})

    def test_missing_loops(self):
        with pytest.raises(SpecError, match="no loops"):
            parse_kernel({"kernel": "x", "arrays": []})

    def test_unknown_op_field(self):
        with pytest.raises(SpecError, match="op-count"):
            loads_kernel(
                "kernel: x\nloops:\n  - {name: l, trip: 4, body: {fma: 1}}\n"
            )

    def test_bad_access_propagates(self):
        text = MINIMAL_SPEC.replace("index_loop: L1", "index_loop: nope")
        with pytest.raises(SpecError):
            loads_kernel(text)

    def test_non_mapping_top_level(self):
        with pytest.raises(SpecError, match="mapping"):
            loads_kernel("- just\n- a list\n")

    def test_roundtrip(self, tiny_kernel):
        spec = kernel_to_spec(tiny_kernel)
        again = parse_kernel(spec)
        assert again == tiny_kernel

    def test_file_roundtrip(self, tiny_kernel, tmp_path):
        path = tmp_path / "k.yaml"
        dump_kernel(tiny_kernel, path)
        assert load_kernel(path) == tiny_kernel

    def test_benchmarks_roundtrip(self):
        from repro.benchsuite import BENCHMARKS

        for build in BENCHMARKS.values():
            kernel = build()
            assert parse_kernel(kernel_to_spec(kernel)) == kernel


class TestDesignSpace:
    def test_from_kernel(self, tiny_kernel):
        space = DesignSpace.from_kernel(tiny_kernel)
        assert len(space) > 0
        assert space.features.shape == (len(space), space.dim)
        assert np.all(space.features >= 0) and np.all(space.features <= 1)

    def test_index_of(self, tiny_kernel):
        space = DesignSpace.from_kernel(tiny_kernel)
        for i in range(len(space)):
            assert space.index_of(space[i]) == i

    def test_index_of_missing(self, tiny_kernel):
        space = DesignSpace.from_kernel(tiny_kernel)
        from repro.dse.directives import Configuration

        missing = Configuration((99,) * space.dim)
        assert missing not in space
        with pytest.raises(KeyError):
            space.index_of(missing)

    def test_sampling_without_replacement(self, tiny_kernel):
        space = DesignSpace.from_kernel(tiny_kernel)
        rng = np.random.default_rng(0)
        k = min(5, len(space))
        sample = space.sample_indices(rng, k)
        assert len(set(sample)) == k

    def test_sampling_excludes(self, tiny_kernel):
        space = DesignSpace.from_kernel(tiny_kernel)
        rng = np.random.default_rng(0)
        exclude = list(range(len(space) - 2))
        sample = space.sample_indices(rng, 2, exclude=exclude)
        assert set(sample) == {len(space) - 2, len(space) - 1}

    @pytest.mark.parametrize(
        "exclude",
        [(), [0], range(0, 40, 3), {5, 7, 11, 2, 5000, -1}, list(range(60))],
    )
    def test_sampling_matches_list_pool(self, exclude):
        """The mask-built pool draws what the old Python-list pool drew."""
        from repro.benchsuite.registry import get_space

        space = get_space("spmv_ellpack")
        for seed in range(3):
            excluded = set(exclude)
            pool = [i for i in range(len(space)) if i not in excluded]
            rng = np.random.default_rng(seed)
            chosen = rng.choice(len(pool), size=25, replace=False)
            expected = [pool[int(i)] for i in chosen]
            got = space.sample_indices(
                np.random.default_rng(seed), 25, exclude=exclude
            )
            assert got == expected
            assert all(type(i) is int for i in got)

    def test_sampling_too_many(self, tiny_kernel):
        space = DesignSpace.from_kernel(tiny_kernel)
        with pytest.raises(ValueError, match="cannot sample"):
            space.sample_indices(np.random.default_rng(0), len(space) + 1)

    def test_raw_enumeration_guard(self):
        big = Kernel(
            name="big",
            arrays=tuple(
                Array(f"a{i}", depth=16, partition_factors=(1, 2, 4, 8, 16))
                for i in range(10)
            ),
            loops=(
                Loop(
                    name="l", trip_count=4,
                    accesses=(ArrayAccess("a0", index_loop="l"),),
                ),
            ),
        )
        with pytest.raises(ValueError, match="raw design space"):
            DesignSpace.from_kernel(big, prune=False)

    def test_describe_mentions_sizes(self, tiny_kernel):
        space = DesignSpace.from_kernel(tiny_kernel)
        text = space.describe()
        assert "raw size" in text and "pruned size" in text
