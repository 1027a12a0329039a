"""The benchmark tracer's map of wrapped names matches the package.

``perfbench/tracer.py`` wraps public names of ``deltaclose`` at run time and
raises ``DriftError`` at install time for a name that no longer exists, so a
rename shows up here instead of in a traced benchmark run.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_map_installs_and_uninstalls():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    from deltaclose.scalar import NumberField

    original = NumberField.__dict__["element"]
    t = tracer.Tracer()
    try:
        t.install()
        assert NumberField.__dict__["element"] is not original
    finally:
        t.uninstall()
    assert NumberField.__dict__["element"] is original
