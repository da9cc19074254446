"""wallbench's traced run wraps functions by dotted path
(``wallbench/layers.py`` TARGETS) and crashes on one that no longer
resolves, so a rename in the package must keep every path working."""

import sys
from pathlib import Path

import pytest

WALLBENCH = Path(__file__).resolve().parent.parent / "wallbench"


@pytest.fixture(scope="module")
def wallbench():
    """wallbench's ``layers`` and ``spans`` modules, imported the way
    its runner imports them (``wallbench/`` on ``sys.path``) and
    dropped again afterwards."""
    sys.path.insert(0, str(WALLBENCH))
    try:
        import layers
        import spans

        yield layers, spans
    finally:
        sys.path.remove(str(WALLBENCH))
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)


def test_every_traced_target_resolves(wallbench):
    layers, spans = wallbench
    assert layers.TARGETS
    for path, span, _after in layers.TARGETS:
        owner, attr = spans._resolve(path)
        assert callable(getattr(owner, attr, None)), f"{path} ({span})"
