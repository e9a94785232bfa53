"""Hypothesis strategies shared by the property tests. Kept out of
conftest.py, which the benchmark imports through test_acceptance, so that
Hypothesis is not loaded into the measured process."""

from hypothesis import strategies as st


_LEAF = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_JSON = st.recursive(
    _LEAF, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4), max_leaves=8)


def json_like(value):
    """Any JSON value, drawn as often as a single number, string or null
    (which st.recursive alone seldom yields) and, for a list, a list of
    as many of those, so that checks on each element of a list of the
    expected length are reached."""
    if isinstance(value, list):
        return _LEAF | _JSON | st.lists(_LEAF, min_size=len(value),
                                        max_size=len(value))
    return _LEAF | _JSON
