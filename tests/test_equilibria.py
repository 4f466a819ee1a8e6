"""The search for a class map that gives the normalized loop a nonzero
equilibrium (equilibria.no_equilibrium), on loops whose answer is known in
closed form, and its null vectors."""

import itertools

import numpy as np
import pytest

from lurestab.equilibria import MAX_CHANNELS, _null_vectors, no_equilibrium
from lurestab.system import NonlinearityClass, SlopeBand, StateSpaceSystem
from oracles import has_equilibrium_exactly


def _loop(G, odd=False):
    """A one-state loop on [0, 1] whose equilibrium gain C (I - A)^{-1} B + D is G."""
    G = np.atleast_2d(np.asarray(G, dtype=float))
    m = G.shape[0]
    cls = NonlinearityClass.SLOPE_ODD if odd else NonlinearityClass.SLOPE
    return StateSpaceSystem(
        [[0.5]], np.zeros((1, m)), np.zeros((m, 1)), G, SlopeBand(0.0, 1.0), cls
    )


@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("gain, has_one", [(1.5, True), (1.0, True), (0.75, False), (-2.0, False)])
def test_a_scalar_loop_has_an_equilibrium_exactly_when_its_gain_reaches_one(odd, gain, has_one):
    # psi(z) = z / G is a class map (odd, slope in [0, 1]) exactly when G >= 1
    record = no_equilibrium(_loop(gain, odd))
    assert (record is None) == has_one
    assert has_equilibrium_exactly(_loop(gain, odd)) == has_one
    if record is not None:
        assert record["rays"] == 1


@pytest.mark.parametrize("odd", [False, True])
def test_an_equilibrium_that_needs_a_map_which_is_not_odd(odd):
    # z = (-w2, w1 + w2): psi(z) = max(z, 0) has the equilibrium w = (0, 1),
    # z = (-1, 1); an odd map has none
    G = [[0.0, -1.0], [1.0, 1.0]]
    assert (no_equilibrium(_loop(G, odd)) is None) == (not odd)
    assert has_equilibrium_exactly(_loop(G, odd)) == (not odd)


def test_more_channels_than_the_search_takes_are_not_searched():
    assert no_equilibrium(_loop(0.5 * np.eye(MAX_CHANNELS + 1))) is None
    assert no_equilibrium(_loop(0.5 * np.eye(MAX_CHANNELS))) is not None


@pytest.mark.parametrize("m", [2, 3, 4])
def test_null_vectors_annihilate_their_rows(m):
    rng = np.random.default_rng(m)
    X = rng.normal(size=(50, m - 1, m))
    v = _null_vectors(X)
    assert np.all(np.linalg.norm(v, axis=1) > 0.01)
    assert np.max(np.abs(np.einsum("krj,kj->kr", X, v))) <= 1e-14 * np.max(np.abs(v))
    if m > 2:
        # two equal rows leave a null space of dimension two: no ray, up to rounding
        X[:, 1] = X[:, 0]
        assert np.max(np.abs(_null_vectors(X))) <= 1e-14


def test_the_search_and_the_exact_oracle_agree_on_random_loops():
    # an odd map is a slope map, so an odd equilibrium is a slope one too
    rng = np.random.default_rng(5)
    seen = set()
    for m, _ in itertools.product((2, 3), range(12)):
        G = rng.normal(size=(m, m)) * 1.5
        found = [no_equilibrium(_loop(G, odd)) is None for odd in (False, True)]
        assert found == [has_equilibrium_exactly(_loop(G, odd)) for odd in (False, True)], G
        assert found[0] or not found[1], G
        seen.add(tuple(found))
    assert seen == {(False, False), (True, False), (True, True)}
