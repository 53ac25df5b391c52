"""Shared fixtures: the inner A2, the bound A3, the glued algebra, and a call counter."""

import pytest

from rectilt.algebra import Quiver, Relation, build_algebra


@pytest.fixture(scope="session")
def inner():
    """A2: 1 -> 2."""
    return build_algebra(Quiver(["1", "2"], [("a", "1", "2")]), [], 10)


@pytest.fixture(scope="session")
def outer():
    """A3 with beta*alpha = 0: 3 -> 4 -> 5."""
    q = Quiver(["3", "4", "5"], [("alpha", "3", "4"), ("beta", "4", "5")])
    return build_algebra(q, [Relation([(1, ("alpha", "beta"))])], 10)


@pytest.fixture(scope="session")
def glued():
    """The 11-dimensional triangular glue of the two, crossing arrows gamma/epsilon."""
    q = Quiver(
        ["1", "2", "3", "4", "5"],
        [("delta", "1", "2"), ("gamma", "4", "2"), ("epsilon", "3", "1"),
         ("alpha", "3", "4"), ("beta", "4", "5")],
    )
    rels = [
        Relation([(1, ("alpha", "gamma")), (-1, ("epsilon", "delta"))]),
        Relation([(1, ("alpha", "beta"))]),
    ]
    return build_algebra(q, rels, 10)


@pytest.fixture(scope="session")
def product_algebra():
    """Disjoint union of the two parts: the trivial (N = 0) split."""
    q = Quiver(
        ["1", "2", "3", "4", "5"],
        [("a", "1", "2"), ("alpha", "3", "4"), ("beta", "4", "5")],
    )
    return build_algebra(q, [Relation([(1, ("alpha", "beta"))])], 10)


@pytest.fixture(scope="session")
def mutated_algebra():
    """Product mutated by a crossing arrow whose bimodule is not flat."""
    q = Quiver(
        ["1", "2", "3", "4", "5"],
        [("a", "1", "2"), ("alpha", "3", "4"), ("beta", "4", "5"),
         ("c", "4", "1")],
    )
    rels = [Relation([(1, ("alpha", "beta"))]), Relation([(1, ("alpha", "c"))])]
    return build_algebra(q, rels, 10)


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
