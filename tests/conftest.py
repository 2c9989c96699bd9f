import contextlib
from collections import OrderedDict

import pytest

import dustmie.channel


@pytest.fixture(autouse=True)
def kernel_tables(monkeypatch):
    """An empty store of kept Q_ext tables for every test, so that what it
    counts or traces is the kernel's own work and no test passes on tables
    an earlier one kept; the store the process had comes back afterwards.
    Clearing the returned store mid-test makes the next call's kernel cold
    again."""
    tables = OrderedDict()
    monkeypatch.setattr(dustmie.channel, "_tables", tables)
    return tables


@pytest.fixture
def kernel_calls(monkeypatch):
    """The kernel calls `channel` makes during the test, the size
    parameters of each."""
    calls = []
    kernel = dustmie.channel._qext

    def counted(x, *args, **kwargs):
        calls.append(x)
        return kernel(x, *args, **kwargs)

    monkeypatch.setattr(dustmie.channel, "_qext", counted)
    return calls


@pytest.fixture
def fine_lattice(kernel_tables):
    """fine_lattice(step), a context in which `channel` sums on the same
    map of every index's size lattice at v step `step`. The store of kept
    tables is emptied on entry and on exit, since a kept array covers one
    lattice's nodes."""
    channel = dustmie.channel

    @contextlib.contextmanager
    def lattice(step):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(channel, "_V_STEP", step)
            kernel_tables.clear()
            try:
                yield
            finally:
                kernel_tables.clear()
    return lattice
