"""Locating and importing the kolberg source of the checkout."""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
GOLDEN_FILES = ("quatuor_gen.json", "eval_kolberg.json", "eval_sharp.json",
                "verify_identity.json")


def require_source() -> None:
    """Exit with a message when the checkout lacks the package or the
    golden files the references come from."""
    missing = [p for p in [SRC / "kolberg" / "__init__.py"]
               + [GOLDEN / f for f in GOLDEN_FILES] if not p.is_file()]
    if missing:
        raise SystemExit("perfbench: missing " + ", ".join(
            str(p.relative_to(ROOT)) for p in missing)
            + "; run from the root of a kolberg checkout")


def load():
    """Import kolberg from src/ and return its modules by layer name."""
    require_source()
    sys.path.insert(0, str(SRC))
    import kolberg
    from kolberg import assoc, cli, numeric, parsing, quatuor, rational
    return SimpleNamespace(package=kolberg, rational=rational,
                           parsing=parsing, assoc=assoc, quatuor=quatuor,
                           numeric=numeric, cli=cli)


def golden() -> dict:
    """The golden CLI outputs: raw text by file name, plus the parsed
    quatuor levels."""
    text = {f: (GOLDEN / f).read_text(encoding="utf-8") for f in GOLDEN_FILES}
    levels = json.loads(text["quatuor_gen.json"])["levels"]
    return {"text": text, "levels": {int(k): v for k, v in levels.items()}}


# The host speed probe: a fixed piece of pure-Python Fraction arithmetic,
# the kind of work kolberg does, timed between operations.  A timed figure
# is reported at the reference speed, where the probe takes PROBE_REF_S:
# its raw seconds times PROBE_REF_S over the median of the probes around
# it.  The speed of a shared host drifts by a third within seconds to
# minutes, and the probe drifts with it; kolberg code does not run in it.
PROBE_REF_S = 0.002
PROBE_WINDOW = 3        # probes on each side of an operation


def probe() -> float:
    """Seconds the probe takes now.  The garbage collector is off during
    it, so that the size of kolberg's heap does not change its cost."""
    gc.disable()
    try:
        start = time.perf_counter()
        s = Fraction(0)
        for i in range(1, 400):
            s += Fraction(1, i * i + 1)
        return time.perf_counter() - start
    finally:
        gc.enable()


def speed_factors(probes: list[float], count: int) -> list[float]:
    """The factor to the reference speed of each of count operations, where
    probes holds PROBE_WINDOW probes taken before the first operation and
    one after each operation."""
    w = PROBE_WINDOW
    return [PROBE_REF_S / statistics.median(probes[i: i + 2 * w])
            for i in range(count)]
