"""Bit-identity in the suite: the three identity scripts must print the hashes
README's "Install and test" block records. A change that moves results fails
here until README's block is re-recorded (see tests/identity_check.py)."""

import identity_check


def test_identity_hashes_match_readme(capsys):
    assert identity_check.main() == 0, capsys.readouterr().out
