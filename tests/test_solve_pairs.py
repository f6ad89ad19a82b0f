"""The pair-timing script ``solve_pairs.py`` on tiny records."""

from graphseg import _native
from solve_pairs import compare


def test_working_tree_against_itself():
    with open(_native.SOURCE) as fh:
        source = fh.read()
    results = compare(source, source, pairs=2, tiny=True)
    assert sorted(results) == ["dip", "plain", "windows"]
    for samples, ratios in results.values():
        assert samples > 0 and len(ratios) == 2 and all(r > 0 for r in ratios)
