"""The three bit-identity scripts in one command, checked against README.

    PYTHONPATH=src python tests/identity_check.py

Runs `main` of identity_grid.py, identity_bench.py and identity_cli.py in
this process and compares each printed `HASH` line with the one README's
"Install and test" block records. Prints one line per script and exits 1,
naming every script whose hash differs, if any does. It takes about as long
as the three scripts together; pytest does not collect it (no test_ prefix).
"""

import contextlib
import importlib
import io
import re
import sys
from pathlib import Path

SCRIPTS = ("identity_grid", "identity_bench", "identity_cli")
README = Path(__file__).resolve().parents[1] / "README.md"


def recorded() -> dict[str, str]:
    """README's hash per script name."""
    found = re.findall(r"^(identity_\w+)\.py\s+HASH ([0-9a-f]{64})$", README.read_text(), re.M)
    return dict(found)


def current(name: str) -> str:
    """The hash that script `name` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        importlib.import_module(name).main()
    return re.search(r"^HASH ([0-9a-f]{64})$", out.getvalue(), re.M).group(1)


def main() -> int:
    want = recorded()
    differ = []
    for name in SCRIPTS:
        got = current(name)
        ok = got == want.get(name)
        print(f"{name + '.py':<18} HASH {got} {'ok' if ok else 'DIFFERS from README'}")
        if not ok:
            differ.append(f"{name}.py")
    if differ:
        print("hash differs: " + ", ".join(differ), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
