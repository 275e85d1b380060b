"""Unit tests for directive sites, configurations and encoding."""

import numpy as np
import pytest

from repro.dse.directives import (
    Configuration,
    DirectiveKind,
    DirectiveSchema,
    DirectiveSite,
    schema_for_kernel,
)
from repro.hlsim.ir import Array, ArrayAccess, InlineSite, Kernel, Loop


@pytest.fixture
def schema():
    return DirectiveSchema(
        [
            DirectiveSite(DirectiveKind.UNROLL, "L1", (1, 2, 4)),
            DirectiveSite(DirectiveKind.PIPELINE, "L1", (0, 1, 2)),
            DirectiveSite(DirectiveKind.ARRAY_PARTITION, "A", (1, 2, 5, 10)),
            DirectiveSite(DirectiveKind.INLINE, "f", (0, 1)),
        ]
    )


class TestDirectiveSite:
    def test_key(self):
        site = DirectiveSite(DirectiveKind.UNROLL, "L1", (1, 2))
        assert site.key == "unroll@L1"

    def test_encoding_paper_example(self):
        """Factors 2, 5, 10 encode as 0, 0.375, 1 (paper Sec. III-B)."""
        site = DirectiveSite(DirectiveKind.ARRAY_PARTITION, "A", (2, 5, 10))
        assert site.encode(2) == pytest.approx(0.0)
        assert site.encode(5) == pytest.approx(0.375)
        assert site.encode(10) == pytest.approx(1.0)

    def test_boolean_encoding(self):
        site = DirectiveSite(DirectiveKind.INLINE, "f", (0, 1))
        assert site.encode(0) == 0.0
        assert site.encode(1) == 1.0

    def test_encode_rejects_unknown_value(self):
        site = DirectiveSite(DirectiveKind.UNROLL, "L1", (1, 2))
        with pytest.raises(ValueError):
            site.encode(3)

    def test_rejects_empty_values(self):
        with pytest.raises(ValueError, match="empty"):
            DirectiveSite(DirectiveKind.UNROLL, "L1", ())

    def test_rejects_duplicate_values(self):
        with pytest.raises(ValueError, match="duplicate"):
            DirectiveSite(DirectiveKind.UNROLL, "L1", (1, 2, 2))


class TestDirectiveSchema:
    def test_raw_size(self, schema):
        assert schema.raw_size() == 3 * 3 * 4 * 2

    def test_config_roundtrip(self, schema):
        assignment = {"unroll@L1": 4, "pipeline@L1": 2,
                      "array_partition@A": 5, "inline@f": 1}
        config = schema.config_from_dict(assignment)
        assert schema.config_to_dict(config) == assignment

    def test_config_defaults_missing_sites(self, schema):
        config = schema.config_from_dict({"unroll@L1": 2})
        assert schema.value(config, "unroll@L1") == 2
        assert schema.value(config, "pipeline@L1") == 0
        assert schema.value(config, "array_partition@A") == 1

    def test_config_rejects_unknown_site(self, schema):
        with pytest.raises(KeyError, match="unknown directive"):
            schema.config_from_dict({"unroll@nope": 2})

    def test_encode_shape_and_range(self, schema):
        config = schema.config_from_dict({"unroll@L1": 4, "inline@f": 1})
        x = schema.encode(config)
        assert x.shape == (4,)
        assert np.all(x >= 0.0) and np.all(x <= 1.0)

    def test_encode_many(self, schema):
        configs = [
            schema.config_from_dict({}),
            schema.config_from_dict({"unroll@L1": 4}),
        ]
        X = schema.encode_many(configs)
        assert X.shape == (2, 4)
        assert X[0, 0] == 0.0 and X[1, 0] == 1.0

    def test_encode_many_empty(self, schema):
        assert schema.encode_many([]).shape == (0, 4)

    def test_rejects_wrong_length_config(self, schema):
        with pytest.raises(ValueError, match="values"):
            schema.encode(Configuration((1, 0)))

    def test_rejects_illegal_value(self, schema):
        with pytest.raises(ValueError, match="illegal value"):
            schema.encode(Configuration((3, 0, 1, 0)))

    def test_encode_many_matches_encode_bitwise(self, schema):
        configs = [
            Configuration((u, p, a, i))
            for u in (1, 2, 4) for p in (0, 1, 2)
            for a in (1, 2, 5, 10) for i in (0, 1)
        ]
        X = schema.encode_many(configs)
        rows = np.vstack([schema.encode(c) for c in configs])
        assert X.tobytes() == rows.tobytes()

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((1, 0), "configuration has 2 values, schema has 4 sites"),
            ((3, 0, 1, 0), "site unroll@L1: illegal value 3"),
            ((1, 0, 3, 7), "site array_partition@A: illegal value 3"),
            ((1, 0, 2.5, 0), "site array_partition@A: illegal value 2.5"),
        ],
    )
    def test_encode_many_rejects_like_encode(self, schema, bad, message):
        """The first bad configuration raises encode's own error."""
        good = Configuration((1, 0, 1, 0))
        configs = [good, Configuration(bad), Configuration((9, 9, 9, 9))]
        with pytest.raises(ValueError) as many:
            schema.encode_many(configs)
        with pytest.raises(ValueError) as one:
            schema.encode(Configuration(bad))
        assert str(many.value) == str(one.value) == message

    def test_rejects_duplicate_sites(self):
        site = DirectiveSite(DirectiveKind.UNROLL, "L1", (1, 2))
        with pytest.raises(ValueError, match="duplicate"):
            DirectiveSchema([site, site])

    def test_rejects_empty_schema(self):
        with pytest.raises(ValueError, match="at least one"):
            DirectiveSchema([])


class TestSchemaForKernel:
    def test_sites_derived_from_ir(self):
        loop = Loop(
            name="L",
            trip_count=8,
            accesses=(ArrayAccess("A", index_loop="L"),),
            unroll_factors=(1, 2, 4),
            pipeline_site=True,
            ii_candidates=(1, 2),
        )
        kernel = Kernel(
            name="k",
            arrays=(Array("A", depth=32, partition_factors=(1, 2, 4)),),
            loops=(loop,),
            inline_sites=(InlineSite("f"),),
        )
        schema = schema_for_kernel(kernel)
        keys = [s.key for s in schema.sites]
        assert keys == [
            "unroll@L", "pipeline@L", "array_partition@A", "inline@f",
        ]
        # Pipeline site gets a 0 = "off" value prepended.
        assert schema.site("pipeline@L").values == (0, 1, 2)

    def test_deterministic_order(self):
        from repro.benchsuite import build_gemm

        a = schema_for_kernel(build_gemm())
        b = schema_for_kernel(build_gemm())
        assert [s.key for s in a.sites] == [s.key for s in b.sites]
