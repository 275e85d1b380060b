"""HLS directive sites, values and configurations.

A *directive site* is one tunable location in the source: a loop that
can be unrolled or pipelined, an array that can be partitioned, or a
function that can be inlined (paper Fig. 1).  A *configuration* assigns
one value to every site; the design space is the set of all (pruned)
configurations.

The feature encoding follows paper Sec. III-B: TRUE/FALSE directives map
to 0/1, multi-factor directives map to min-max-normalized factor values
(factors 2, 5, 10 encode as 0, 0.375, 1), and the kernel's feature
vector is the concatenation of all per-site features.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.hlsim.ir import Kernel


class DirectiveKind(enum.Enum):
    """The directive families considered by the paper (Sec. III-A)."""

    UNROLL = "unroll"
    PIPELINE = "pipeline"
    ARRAY_PARTITION = "array_partition"
    INLINE = "inline"


@dataclass(frozen=True)
class DirectiveSite:
    """One tunable directive location.

    ``target`` is the loop, array or function name the directive applies
    to.  ``values`` is the ordered tuple of candidate values:

    - UNROLL: integer factors (1 = no unroll),
    - PIPELINE: integer IIs, with 0 meaning "pipeline off",
    - ARRAY_PARTITION: integer factors (1 = no partition),
    - INLINE: 0 (off) / 1 (on).
    """

    kind: DirectiveKind
    target: str
    values: tuple[int, ...]
    #: The encoding table, ``{value: feature}`` — every model's features
    #: come from it, so single and batched encodings share their bits.
    codes: dict[int, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"site {self.key}: empty value set")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"site {self.key}: duplicate values")
        # Boolean-like sites (two values) encode as 0/1 directly; factor
        # sites are min-max normalized so distances between feature
        # values reflect distances between factors.
        lo, hi = min(self.values), max(self.values)
        codes = {v: 0.0 if hi == lo else (v - lo) / (hi - lo) for v in self.values}
        object.__setattr__(self, "codes", codes)

    @property
    def key(self) -> str:
        """Stable identifier, e.g. ``unroll@L1``."""
        return f"{self.kind.value}@{self.target}"

    def encode(self, value: int) -> float:
        """Encode one value into [0, 1] per the paper's normalization."""
        if value not in self.values:
            raise ValueError(f"site {self.key}: value {value} not in {self.values}")
        return self.codes[value]

    def index_of(self, value: int) -> int:
        return self.values.index(value)


@dataclass(frozen=True)
class Configuration:
    """An assignment of one value per site, ordered like the site list."""

    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]


class DirectiveSchema:
    """The ordered list of directive sites of a kernel.

    Provides value lookup by site key, configuration <-> dict conversion
    and the feature encoding used by every model in the repository.
    """

    def __init__(self, sites: Iterable[DirectiveSite]):
        self.sites: tuple[DirectiveSite, ...] = tuple(sites)
        if not self.sites:
            raise ValueError("schema needs at least one directive site")
        keys = [s.key for s in self.sites]
        if len(keys) != len(set(keys)):
            raise ValueError("duplicate directive sites in schema")
        self._index = {s.key: i for i, s in enumerate(self.sites)}

    def __len__(self) -> int:
        return len(self.sites)

    def site(self, key: str) -> DirectiveSite:
        return self.sites[self._index[key]]

    def site_index(self, key: str) -> int:
        return self._index[key]

    def raw_size(self) -> int:
        """Size of the unpruned cartesian-product design space."""
        size = 1
        for site in self.sites:
            size *= len(site.values)
        return size

    def config_from_dict(self, assignment: Mapping[str, int]) -> Configuration:
        """Build a configuration from a ``{site key: value}`` mapping.

        Sites absent from the mapping take their first (least aggressive)
        value.
        """
        values = []
        unknown = set(assignment) - set(self._index)
        if unknown:
            raise KeyError(f"unknown directive sites: {sorted(unknown)}")
        for site in self.sites:
            values.append(assignment.get(site.key, site.values[0]))
        return Configuration(tuple(values))

    def config_to_dict(self, config: Configuration) -> dict[str, int]:
        self._check(config)
        return {site.key: v for site, v in zip(self.sites, config.values)}

    def encode(self, config: Configuration) -> np.ndarray:
        """Feature vector of one configuration (paper Sec. III-B)."""
        self._check(config)
        return np.array(
            [site.codes[v] for site, v in zip(self.sites, config.values)],
            dtype=float,
        )

    def encode_many(self, configs: Iterable[Configuration]) -> np.ndarray:
        """Stack feature vectors of many configurations into a matrix.

        Row for row equal to :meth:`encode`: each column is looked up in
        its site's sorted table with ``searchsorted``, and the first
        illegal configuration raises :meth:`_check`'s error.
        """
        configs = tuple(configs)
        d = len(self.sites)
        if any(len(c) != d for c in configs):
            self._check(next(c for c in configs if len(c) != d))
        V = np.array([c.values for c in configs]).reshape(len(configs), d)
        if V.dtype.kind not in "biuf":
            for config in configs:
                self._check(config)
        features = np.empty(V.shape)
        bad = np.zeros(len(configs), dtype=bool)
        for j, site in enumerate(self.sites):
            values = sorted(site.codes)
            idx = np.minimum(np.searchsorted(values, V[:, j]), len(values) - 1)
            bad |= np.array(values)[idx] != V[:, j]
            features[:, j] = np.array([site.codes[v] for v in values])[idx]
        if bad.any():
            self._check(configs[int(np.argmax(bad))])
        return features

    def value(self, config: Configuration, key: str) -> int:
        """The value a configuration assigns to site ``key``."""
        self._check(config)
        return config.values[self._index[key]]

    def _check(self, config: Configuration) -> None:
        if len(config) != len(self.sites):
            raise ValueError(
                f"configuration has {len(config)} values, schema has "
                f"{len(self.sites)} sites"
            )
        for site, v in zip(self.sites, config.values):
            if v not in site.values:
                raise ValueError(f"site {site.key}: illegal value {v}")


def schema_for_kernel(kernel: Kernel) -> DirectiveSchema:
    """Derive the directive schema of a kernel from its IR.

    Every loop contributes an UNROLL site (if it offers factors beyond 1)
    and a PIPELINE site (if flagged); every array contributes an
    ARRAY_PARTITION site; every inline site contributes an INLINE toggle.
    Site order is deterministic: loops pre-order, then arrays, then
    functions — so feature vectors are reproducible.
    """
    sites: list[DirectiveSite] = []
    for loop in kernel.all_loops():
        if len(loop.unroll_factors) > 1 or loop.unroll_factors != (1,):
            sites.append(
                DirectiveSite(
                    DirectiveKind.UNROLL, loop.name, tuple(sorted(loop.unroll_factors))
                )
            )
        if loop.pipeline_site:
            values = (0,) + tuple(sorted(loop.ii_candidates))
            sites.append(DirectiveSite(DirectiveKind.PIPELINE, loop.name, values))
    for array in kernel.arrays:
        sites.append(
            DirectiveSite(
                DirectiveKind.ARRAY_PARTITION,
                array.name,
                tuple(sorted(array.partition_factors)),
            )
        )
    for fn in kernel.inline_sites:
        sites.append(DirectiveSite(DirectiveKind.INLINE, fn.name, (0, 1)))
    return DirectiveSchema(sites)
