"""Locate the checkout the benchmark runs in and import bellsim from it."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on the path, or exit non-zero.

    The benchmark measures the code of the checkout it sits in, never an
    installed copy, so a tree without ``src/bellsim`` is an error.
    """
    package = SRC / "bellsim"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no bellsim package at {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import bellsim

    if Path(bellsim.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported bellsim from {bellsim.__file__}, not {package}")
