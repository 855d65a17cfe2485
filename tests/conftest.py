"""The kernel tally shared by the test modules.

Every kernel a LiftedMap binds passes through twistlab.maps._observe.  The
kernels fixture replaces that hook, so each map built after the fixture is
set up counts the calls of its kernels, and can be made to step a patched
kernel.  Maps built before (at import or collection) are not observed.
"""

from collections import Counter

import pytest

import twistlab.maps


class Kernels:
    """calls: the calls of each kernel, by its name in maps._KERNEL_ATTRS.
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

        return counted


@pytest.fixture
def kernels(monkeypatch):
    tally = Kernels()
    monkeypatch.setattr(twistlab.maps, "_observe", tally.observe)
    return tally
