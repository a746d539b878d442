import doctest

import pytest

import wavelab.constructions
import wavelab.perm
import wavelab.solvers
import wavelab.waves


@pytest.mark.parametrize(
    "module", [wavelab.perm, wavelab.waves, wavelab.constructions, wavelab.solvers]
)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
