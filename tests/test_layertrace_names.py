"""The benchmark's layer tracer patches program names from outside.

`perfbench/layertrace.py` replaces entry points by name (`zmcsurf.cli`
functions, class attributes such as `SpacelikeChart.classify`).  A rename
in the program would make `Tracer.install()` raise and break
`perfbench/run.py --trace 1`; this test fails first.  Its counters read the
program's data model (`ChartClassification.points`), so traced commands
are run too.
"""

import json
import random
from pathlib import Path

import pytest

from zmcsurf import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layertrace

    tracer = layertrace.Tracer()
    try:
        tracer.install()
        patched = list(tracer._saved)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)


@pytest.mark.parametrize("source", ["z3", "spacelike_m1", "raw_chart"])
def test_traced_commands_count_the_classified_nodes(tmp_path, monkeypatch, source):
    """classify, flow and index under the tracer: the node and marginal
    counts equal those of summary.json (a raw chart has no index: exit 2)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layertrace
    import workloads

    if source == "raw_chart":
        spec, _, _ = workloads.chart_spec(random.Random(1), 17)
        path = tmp_path / "chart.json"
        path.write_text(json.dumps(spec))
        args = ["--spec", str(path)]
    else:
        args = ["--preset", source, "--grid", "17"]
    tracer = layertrace.Tracer()
    for cmd in ("classify", "flow", "index"):
        tracer.reset()
        tracer.install()
        try:
            rc = tracer.run_root(cli.main, [cmd, *args, "--out", str(tmp_path / cmd)])
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        if cmd == "index":
            assert rc == (2 if source == "raw_chart" else 0)
            assert metrics["geometry.nodes_classified"] == 0
            continue
        assert rc == 0, cmd
        summary = json.loads((tmp_path / "classify" / "summary.json").read_text())
        counts = summary["counts"]
        marginal = 0 if source == "z3" else counts["umbilic"] + counts["quasi_umbilic"]
        assert metrics["geometry.nodes_classified"] == counts["total"], cmd
        assert metrics["geometry.marginal_nodes"] == marginal, cmd
