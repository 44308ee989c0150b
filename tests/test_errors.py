"""Each package error is one class, defined in sctest.errors.

The subpackages re-export those classes, so catching the sctest.errors
class catches what every raise site raises.
"""

import pytest

from sctest import coverage, errors, fuzzing
from sctest.bytecode.abi import FunctionSig, parse_abi
from sctest.coverage import CoverageMap, extract_uncovered_functions
from sctest.evm.bundle import ContractBundle
from sctest.fuzzing import seed_initial_target


def test_reexports_are_the_errors_classes():
    assert fuzzing.EmptyAbi is errors.EmptyAbi
    assert coverage.MissingBodyRange is errors.MissingBodyRange


def test_empty_abi_raise_site():
    with pytest.raises(errors.EmptyAbi):
        seed_initial_target([FunctionSig("prop_x", (), None, None, True)])


def test_missing_body_range_raise_site(cubic):
    abi = parse_abi({"functions": [{"name": "ghost", "params": ["uint256"]}]})
    bundle = ContractBundle("ghostly", cubic.bytecode, abi)
    with pytest.raises(errors.MissingBodyRange) as err:
        extract_uncovered_functions(bundle, CoverageMap())
    assert err.value.function == "ghost"
    assert isinstance(err.value, errors.SctestError)
