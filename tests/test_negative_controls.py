"""Negative controls: oracles outside the library go through ``run_suites``.

A verifier that cannot fail proves nothing. A renamed copy of ``abs`` must
give ``abs``'s sections, and an ``abs`` whose side-oracle has the sign of
every subgradient flipped must be caught. For the mutant the test pins
each suite's hard count, so which suites catch it (hard >= 1) and which
cannot see it (hard == 0) are fixed, and a gain in detection shows up as a
deliberate pin change. At the default
``SuiteParams`` the mutant's hard counts are prop1 0, thm2 1, thm3 3,
cdd 64 and predicates 1. prop1 reads no graph, so it cannot see a wrong
side-oracle.
"""

import dataclasses

import pytest

from varpolar.library import _bounds_abs, _interval_side_oracle, get_function
from varpolar.suites import SUITE_NAMES, SuiteParams, run_suites

ABS = get_function("abs")

#: The sign-flipped mutant's hard counts at the default ``SuiteParams``:
#: every suite but prop1 catches it.
FLIPPED_HARD = {"prop1": 0, "thm2": 1, "thm3": 3, "cdd": 64, "predicates": 1}


def _flipped_bounds(x):
    lo, hi = _bounds_abs(x)
    return -hi, -lo


FLIPPED = dataclasses.replace(
    ABS, name="abs_flipped", exact_subdifferential=_interval_side_oracle(_flipped_bounds)
)


@pytest.fixture(scope="module")
def result():
    twin = dataclasses.replace(ABS, name="abs_twin")
    return run_suites([ABS, twin, FLIPPED], ["all"], SuiteParams())


def _section(result, suite, name):
    return result["suites"][suite]["functions"][name]


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_a_renamed_copy_gives_the_sections_of_the_original(result, suite):
    twin = dict(_section(result, suite, "abs_twin"))
    assert twin.pop("function") == "abs_twin"
    original = dict(_section(result, suite, "abs"))
    assert original.pop("function") == "abs"
    assert twin == original
    assert original["hard_count"] == 0


@pytest.mark.parametrize("name", ["abs_flipped"])
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_the_sign_flipped_side_oracle_is_caught(result, suite, name):
    assert _section(result, suite, name)["hard_count"] == FLIPPED_HARD[suite]
