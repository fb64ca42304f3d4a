"""The benchmark's layer tracer patches program names from outside.

`perfbench/layertrace.py` replaces entry points by name (`zmcsurf.cli`
functions, class attributes such as `SpacelikeChart.classify`).  A rename
in the program would make `Tracer.install()` raise and break
`perfbench/run.py --trace 1`; this test fails first.
"""

from pathlib import Path

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
