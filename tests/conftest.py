import sys

import numpy as np
import pytest

from optomagnon import fock


@pytest.fixture
def lifts(monkeypatch):
    """Key ``(registry, labels, block bytes, column bytes)`` of every lift made in the test, in
    call order: `fock.lift_block` is replaced wherever an optomagnon module binds it."""
    keys = []
    lift = fock.lift_block

    def spy(registry, labels, block, cols):
        keys.append((registry, tuple(labels), np.asarray(block, dtype=complex).tobytes(),
                     np.asarray(cols).tobytes()))
        return lift(registry, labels, block, cols)

    for name, module in list(sys.modules.items()):
        if name.startswith("optomagnon") and getattr(module, "lift_block", None) is lift:
            monkeypatch.setattr(module, "lift_block", spy)
    return keys


@pytest.fixture
def mode_operators(monkeypatch):
    """One entry per `fock.ModeOperator` built in the test, its registry."""
    built = []
    check = fock.ModeOperator.__post_init__

    def spy(self):
        built.append(self.registry)
        check(self)

    monkeypatch.setattr(fock.ModeOperator, "__post_init__", spy)
    return built
