"""The chaos experiments at paper (``--full``) size.

Each experiment raises ``RuntimeError`` naming the broken checks when
its contract fails, so a full-size run that returns is one whose every
check held.  ``python -m repro experiments --full`` exits non-zero on
any such failure.
"""

import pytest

from repro.experiments import chaos, fleetchaos


@pytest.mark.parametrize(
    "module", [chaos, fleetchaos], ids=["chaos", "fleetchaos"]
)
def test_full_size_contract_holds(module):
    result = module.run(fast=False)
    assert not any("[FAIL]" in line for line in result.lines)
    assert any("[ok]" in line for line in result.lines)

