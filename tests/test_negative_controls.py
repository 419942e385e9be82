"""Negative controls: oracles outside the library go through ``run_suites``.

A verifier that cannot fail proves nothing. A renamed copy of ``abs`` must
give ``abs``'s sections, and an ``abs`` whose side-oracle has the sign of
every subgradient flipped must be caught. For the mutant the test pins
which suites catch it (hard >= 1) and which cannot see it (hard == 0), so a
gain in detection shows up as a deliberate pin change. At the default
``SuiteParams`` the mutant's hard counts are prop1 0, thm2 1, thm3 3,
cdd 64 and predicates 1. prop1 reads no graph, so it cannot see a wrong
side-oracle.
"""

import dataclasses

import pytest

from varpolar.core import IntervalSet
from varpolar.library import _bounds_abs, _interval_side_oracle, get_function
from varpolar.suites import SUITE_NAMES, SuiteParams, run_suites

ABS = get_function("abs")

#: Suites that catch the sign-flipped side-oracle.
CATCHES_FLIPPED = {"prop1": False, "thm2": True, "thm3": True, "cdd": True, "predicates": True}


def _flipped(x):
    sdiff = ABS.exact_subdifferential(x)
    return IntervalSet(-sdiff.hi, -sdiff.lo)


def _flipped_bounds(x):
    lo, hi = _bounds_abs(x)
    return -hi, -lo


FLIPPED_PER_POINT = dataclasses.replace(
    ABS, name="abs_flipped", exact_subdifferential=_flipped, exact_subdifferential_batch=None
)
FLIPPED_BATCHED = dataclasses.replace(
    FLIPPED_PER_POINT,
    name="abs_flipped_batched",
    exact_subdifferential_batch=_interval_side_oracle(_flipped_bounds),
)


@pytest.fixture(scope="module")
def result():
    twin = dataclasses.replace(ABS, name="abs_twin")
    return run_suites([ABS, twin, FLIPPED_PER_POINT, FLIPPED_BATCHED], ["all"], SuiteParams())


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


@pytest.mark.parametrize("name", ["abs_flipped", "abs_flipped_batched"])
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_the_sign_flipped_side_oracle_is_caught(result, suite, name):
    hard = _section(result, suite, name)["hard_count"]
    if CATCHES_FLIPPED[suite]:
        assert hard >= 1
    else:
        assert hard == 0


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_the_per_point_and_batched_mutants_agree(result, suite):
    per_point = dict(_section(result, suite, "abs_flipped"))
    batched = dict(_section(result, suite, "abs_flipped_batched"))
    assert per_point.pop("function") == "abs_flipped"
    assert batched.pop("function") == "abs_flipped_batched"
    assert per_point == batched
