import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolves(target: str) -> bool:
    modname, attr = target.split(":")
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_every_traced_name_resolves(monkeypatch):
    """Each name the benchmark's tracer wraps still exists where its caller looks it up."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert [t for t, _, _ in layers.WRAPS if not _resolves(t)] == []
