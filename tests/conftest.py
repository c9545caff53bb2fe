import numpy as np
import pytest

from optomagnon import fock


@pytest.fixture
def lifts(monkeypatch):
    """Key ``(registry, labels, block bytes)`` of every lift made in the test, in call order."""
    keys = []
    embed = fock._embed_block

    def spy(registry, labels, block):
        keys.append((registry, tuple(labels), np.asarray(block, dtype=complex).tobytes()))
        return embed(registry, labels, block)

    monkeypatch.setattr(fock, "_embed_block", spy)
    return keys
