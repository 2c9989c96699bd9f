import contextlib
from collections import OrderedDict

import pytest

import dustmie.channel


@pytest.fixture(autouse=True)
def kernel_tables(monkeypatch):
    """An empty store of kept Q_ext tables for every test, so that what it
    counts or traces is the kernel's own work and no test passes on tables
    an earlier one kept; the store the process had comes back afterwards.
    Clearing the returned store mid-test makes the next call cold again."""
    tables = OrderedDict()
    monkeypatch.setattr(dustmie.channel, "_tables", tables)
    return tables


@pytest.fixture
def kernel_calls(monkeypatch):
    """The kernel calls `channel` makes during the test, one entry each."""
    calls = []
    kernel = dustmie.channel.extinction_efficiency_array

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(dustmie.channel, "extinction_efficiency_array", counted)
    return calls


@pytest.fixture
def fine_lattice(kernel_tables):
    """fine_lattice(step), a context in which `channel` sums on the lattice
    of ln r step `step`, built by the module's own builder. The store of
    kept tables is emptied on entry and on exit, since a kept array covers
    one lattice's nodes."""
    channel = dustmie.channel

    @contextlib.contextmanager
    def lattice(step):
        with pytest.MonkeyPatch.context() as patch:
            nodes, radii = channel._build_lattice(step)
            patch.setattr(channel, "_LN_R_STEP", step)
            patch.setattr(channel, "_NODES", nodes)
            patch.setattr(channel, "_RADII_M", radii)
            kernel_tables.clear()
            try:
                yield
            finally:
                kernel_tables.clear()
    return lattice
