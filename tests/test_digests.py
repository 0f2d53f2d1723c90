"""Outputs unchanged: every named case in digests.py against its golden digest.

A failure names the case; `PYTHONPATH=src python tests/digests.py --show
NAME` prints its text for a diff against the parent commit.
"""

import pytest

import digests

GOLDEN = digests.golden()


def test_case_names_match_golden():
    assert list(digests.CASES) == list(GOLDEN)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_digest(name):
    assert digests.digest(name) == GOLDEN[name], (
        f"output of case {name!r} changed; show it with "
        f"'python tests/digests.py --show {name}'")
