"""The benchmark's trace sites name code that exists.

`perfbench/tracing.py` times layers by wrapping crowdsync functions at
the module names their callers look them up by. A site whose name is
renamed or deleted is only reported as "not traced", and its figures
then read 0; here it fails instead.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from tracing import Tracer  # noqa: E402


def test_every_trace_site_resolves():
    tracer = Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == []
