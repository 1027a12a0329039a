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
    from deltaclose.construct import AntiDifference
    from deltaclose.scalar import NumberField

    # the tower_grid per-layer counts are read off AntiDifference.eval_array
    wrapped = [(NumberField, "element"), (AntiDifference, "eval_array")]
    originals = [cls.__dict__[name] for cls, name in wrapped]
    t = tracer.Tracer()
    try:
        t.install()
        for (cls, name), original in zip(wrapped, originals):
            assert cls.__dict__[name] is not original, name
    finally:
        t.uninstall()
    for (cls, name), original in zip(wrapped, originals):
        assert cls.__dict__[name] is original, name
