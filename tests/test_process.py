"""The CLI as a process of its own: `cli.process_main` runs `main` with the
garbage collector off and freezes the heap before exit.  That is sound only
while a run makes no reference cycles that grow with its input, and only
the process entry may touch the collector: `main` in-process leaves it as
it was.  The `torusqubit` script and `python -m torusqubit.cli` enter the
same way.
"""

import ast
import gc
import shlex
from pathlib import Path

import pytest

from torusqubit import cli
from torusqubit.cli import main

ROOT = Path(__file__).resolve().parents[1]


def garbage_after(line: str, out: Path) -> int:
    """The objects a collection finds after one in-process run of line with
    the collector off; the garbage of earlier runs is collected first."""
    gc.collect()
    gc.disable()
    try:
        assert main([*shlex.split(line), "--output-dir", str(out)]) == 0
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("line, small, large", [
    ("--preset fig3a --n-points 256 sweep-b --b-range 0:1:{}", 4, 40),
    ("--preset fig5 fidelity --range 0:0.01:3 --samples {}", 1000, 10000),
    ("--preset fig5 evolve --three-level --samples {}", 200, 2000),
], ids=["sweep-b-points", "fidelity-samples", "evolve-samples"])
def test_no_cycles_grow_with_the_input(tmp_path, capsys, line, small, large):
    garbage_after(line.format(small), tmp_path / "warm")  # the first run's imports leave some
    counts = [garbage_after(line.format(size), tmp_path / str(size)) for size in (small, large)]
    assert counts[0] == counts[1], counts


@pytest.mark.parametrize("enabled", [True, False])
def test_in_process_main_leaves_the_collector_as_it_was(tmp_path, capsys, enabled):
    frozen = gc.get_freeze_count()
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["--preset", "fig5", "qubit-params", "--output-dir", str(tmp_path)]) == 0
        assert gc.isenabled() is enabled and gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was else gc.disable)()


def test_process_main_disables_runs_and_freezes(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    assert cli.process_main() == 3
    assert calls == ["disable", "main", "freeze"]


def test_the_script_is_the_process_entry():
    # an installed `torusqubit` runs exactly what `python -m torusqubit.cli` runs
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    module = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    [block] = [node for node in module.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    [entry] = [node.func.id for node in ast.walk(block)  # sys.exit(entry())
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert scripts["project"]["scripts"]["torusqubit"] == f"torusqubit.cli:{entry}"
    assert callable(getattr(cli, entry))
