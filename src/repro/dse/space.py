"""Design space: pruned configurations + feature matrix for one kernel."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.dse.directives import Configuration, DirectiveSchema, schema_for_kernel
from repro.dse.tree import prune_design_space
from repro.hlsim.ir import Kernel


class DesignSpace:
    """The (pruned) set of directive configurations of a kernel.

    Wraps the kernel, its directive schema, the configuration list and
    the pre-computed feature matrix.  All optimizers in this repository
    index configurations by their position in this space, so one
    ``DesignSpace`` instance is the shared ground truth for a whole
    experiment.
    """

    def __init__(
        self,
        kernel: Kernel,
        schema: DirectiveSchema,
        configs: Sequence[Configuration],
    ):
        if not configs:
            raise ValueError(f"kernel {kernel.name!r}: empty design space")
        self.kernel = kernel
        self.schema = schema
        self.configs: tuple[Configuration, ...] = tuple(configs)
        self.features: np.ndarray = schema.encode_many(self.configs)
        self._index = {c.values: i for i, c in enumerate(self.configs)}
        if len(self._index) != len(self.configs):
            raise ValueError("duplicate configurations in design space")

    @classmethod
    def from_kernel(cls, kernel: Kernel, prune: bool = True) -> "DesignSpace":
        """Build the design space of a kernel, pruned by Algorithm 1.

        With ``prune=False`` the raw cartesian product is enumerated —
        only safe for small schemas (used by ablation studies and tests).
        """
        schema = schema_for_kernel(kernel)
        if prune:
            configs = prune_design_space(kernel, schema)
        else:
            configs = _enumerate_raw(schema)
        return cls(kernel, schema, configs)

    def __len__(self) -> int:
        return len(self.configs)

    def __getitem__(self, i: int) -> Configuration:
        return self.configs[i]

    def index_of(self, config: Configuration) -> int:
        """Position of a configuration in this space."""
        try:
            return self._index[config.values]
        except KeyError:
            raise KeyError(f"configuration {config.values} not in design space")

    def __contains__(self, config: Configuration) -> bool:
        return config.values in self._index

    @property
    def dim(self) -> int:
        """Feature dimensionality."""
        return self.features.shape[1]

    def sample_indices(
        self, rng: np.random.Generator, k: int, exclude: Iterable[int] = ()
    ) -> list[int]:
        """Sample ``k`` distinct configuration indices without replacement."""
        n = len(self)
        excluded = np.zeros(n, dtype=bool)
        excluded[[i for i in set(exclude) if 0 <= i < n]] = True
        pool = np.flatnonzero(~excluded)
        if k > len(pool):
            raise ValueError(f"cannot sample {k} of {len(pool)} configurations")
        chosen = rng.choice(len(pool), size=k, replace=False)
        return pool[chosen].tolist()

    def describe(self) -> str:
        """Human-readable summary of the space."""
        lines = [
            f"design space of kernel {self.kernel.name!r}:",
            f"  sites: {len(self.schema)}",
            f"  raw size: {self.schema.raw_size()}",
            f"  pruned size: {len(self)}",
        ]
        for site in self.schema.sites:
            lines.append(f"    {site.key}: {list(site.values)}")
        return "\n".join(lines)


def _enumerate_raw(schema: DirectiveSchema) -> list[Configuration]:
    """Enumerate the unpruned cartesian product (small schemas only)."""
    import itertools

    size = schema.raw_size()
    if size > 2_000_000:
        raise ValueError(
            f"raw design space has {size} points; enumerate the pruned "
            "space instead (prune=True)"
        )
    domains = [site.values for site in schema.sites]
    return [Configuration(values) for values in itertools.product(*domains)]
