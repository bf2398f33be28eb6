import pytest

from arcdiag import ArcSet, all_permutations, diagram_from_permutation


@pytest.fixture(scope="session")
def delta_image():
    """n -> {permutation: its diagram}, computed once per session."""
    cache = {}

    def at(n):
        if n not in cache:
            cache[n] = {x: diagram_from_permutation(x) for x in all_permutations(n)}
        return cache[n]

    return at


@pytest.fixture
def forcing_evaluations(monkeypatch):
    """The sets whose cached `_forcing` is evaluated during the test, one entry per evaluation."""
    prop = ArcSet.__dict__["_forcing"]
    evaluate, seen = prop.func, []

    def counted(arcset):
        seen.append(arcset)
        return evaluate(arcset)

    monkeypatch.setattr(prop, "func", counted)
    return seen
