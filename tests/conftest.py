"""The kernel tally shared by the test modules.

Every kernel a LiftedMap binds passes through twistlab.maps._observe.  The
kernels fixture replaces that hook, so each map built after the fixture is
set up counts the calls of its kernels, or the steps a block kernel
takes, and can be made to step a patched kernel.  Maps built before (at
import or collection) are not observed.
"""

from collections import Counter

import pytest

import twistlab.maps


# The block kernels return (..., steps taken, exception).
BLOCKS = ("_walk_k", "_orbit_k", "_jacobi_k")


class Kernels:
    """calls: the calls of each kernel, or the steps taken by each block
    kernel, by its name in maps._KERNEL_ATTRS.
    patch(name, make): the maps built afterwards bind make(kernel) as name."""

    def __init__(self) -> None:
        self.calls = Counter()
        self.patches = {}

    def patch(self, name, make) -> None:
        assert name in twistlab.maps._KERNEL_ATTRS, name
        self.patches[name] = make

    def observe(self, name, kernel):
        if name in self.patches:
            kernel = self.patches[name](kernel)
        calls = self.calls

        def counted(*args):
            calls[name] += 1
            return kernel(*args)

        def counted_steps(*args):
            out = kernel(*args)
            if out[-2]:  # a block that took no step adds no entry
                calls[name] += out[-2]
            return out

        return counted_steps if name in BLOCKS else counted


@pytest.fixture
def kernels(monkeypatch):
    tally = Kernels()
    monkeypatch.setattr(twistlab.maps, "_observe", tally.observe)
    return tally
