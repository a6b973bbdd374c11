"""The benchmark's trace sites name code that exists.

`perfbench/tracing.py` times layers by wrapping crowdsync functions at
the module names their callers look them up by. A site whose name is
renamed or deleted is only reported as "not traced", and its figures
then read 0; here it fails instead. A site whose name still resolves but
that its caller stops calling by that name reads 0 with no report, so a
traced run must count the calls of the step loop's traced sites.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import crowdsync.scenarios  # noqa: E402
from crowdsync.scenario_io import load_scenario  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_every_trace_site_resolves():
    tracer = Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == []


def test_a_traced_run_counts_the_switch_rule_and_the_ordered_sums():
    spec = load_scenario(ROOT / "scenarios" / "fig5-unstable.scenario")
    tracer = Tracer()
    with tracer.installed():
        crowdsync.scenarios.run(spec)
    assert tracer.counts["scenarios.run.calls"] == 1
    assert tracer.counts["switching.update_reactive_count.calls"] > 0
    assert tracer.counts["dynamics.ordered_sum.calls"] > 0
