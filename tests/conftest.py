"""Shared fixtures: the inner A2, the bound A3, the glued algebra, and a call counter."""

import pytest

from rectilt import fixtures


@pytest.fixture(scope="session")
def inner():
    """A2: 1 -> 2."""
    return fixtures.inner_algebra()


@pytest.fixture(scope="session")
def outer():
    """A3 with beta*alpha = 0: 3 -> 4 -> 5."""
    return fixtures.outer_algebra()


@pytest.fixture(scope="session")
def glued():
    """The 11-dimensional triangular glue of the two, crossing arrows gamma/epsilon."""
    return fixtures.glued_algebra()


@pytest.fixture(scope="session")
def product_algebra():
    """Disjoint union of the two parts: the trivial (N = 0) split."""
    return fixtures.product_algebra()


@pytest.fixture(scope="session")
def mutated_algebra():
    """Product mutated by a crossing arrow whose bimodule is not flat."""
    return fixtures.mutated_algebra()


@pytest.fixture
def counting(monkeypatch):
    """``counting(module, name, pick=0)``: route ``module.name`` through a recording wrapper.

    Returns the list that receives ``args[pick]`` of each call, the first
    positional argument by default; a slice records a tuple of them.
    """
    def install(module, name, pick=0):
        seen = []
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            seen.append(args[pick])
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return seen

    return install
