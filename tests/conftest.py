import contextlib
import importlib.util
import io
import re
import shlex
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from torusqubit.cli import main
from torusqubit.model import TorusGeometry
from torusqubit.reduction import coefficients_numerical, qubit_parameters
from torusqubit.spectral import Discretization

ANGSTROM = 1e-10
README = Path(__file__).resolve().parents[1] / "README.md"
CHECKS = README.with_name("bench") / "checks.py"


def readme_commands(selector: str = "") -> list[str]:
    """The `torusqubit` lines of README.md's fenced blocks, in order and without
    the program name and the comment, whose arguments hold the selector's
    words in a row, as `mitigate --sweep B0` does; every line for no selector.
    They are the one list of the study's commands, and shlex.split(line) gives
    a line's arguments.  A LookupError when no line holds the selector, so a
    test that picks its lines cannot pass on none."""
    words, lines, fenced = shlex.split(selector), [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("torusqubit "):
            args = shlex.split(line, comments=True)[1:]
            if any(args[i:i + len(words)] == words for i in range(len(args))):
                lines.append(shlex.join(args))
    if not lines:
        raise LookupError(f"no README command holds {selector!r}")
    return lines


def _load_checks():
    """bench/checks.py, imported by its path: the artifact checks and strict
    loaders, typed apart from the package, which they do not import."""
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECKS_MODULE = _load_checks()


def check_failure(code, out: str, err: str, exit_code: int, pattern: str, root: Path) -> None:
    """The README's contract for a run that fails: it exits with exit_code,
    writes nothing on stdout and one stderr line that is `error: ` followed
    by a full match of the regex pattern, and leaves root, the directory
    that held its output, empty."""
    assert code == exit_code, err
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and re.fullmatch(f"error: (?:{pattern})", lines[0]), lines
    assert not any(root.iterdir())


def check_success(code, out: str, err: str, directory: Path) -> None:
    """The contract of a run that succeeds, as the benchmark holds each run to
    it: exit 0 and no `error:` line; on stdout one `wrote <path>` line per
    data file, then at most the one summary line; every file parses with
    bench/checks.py's strict loaders (JSON without NaN or infinities, CSV rows
    of finite numbers and booleans), each data file with its manifest; and
    every warning printed on stderr is recorded in a manifest."""
    assert code == 0 and not re.search("^error: ", err, re.MULTILINE), err
    CHECKS_MODULE.check_artifacts(directory)
    CHECKS_MODULE.check_warnings_recorded(err, directory)
    wrote = [f"wrote {path}" for path in CHECKS_MODULE.data_files(directory)]
    lines = out.splitlines()
    assert sorted(lines[:len(wrote)]) == wrote and len(lines) <= len(wrote) + 1, lines


class Run(NamedTuple):
    dir: Path  # the run's --output-dir
    out: str
    err: str


def run_cli(args, parent: Path, code: int | None = 0, pattern: str = ".*") -> Run:
    """Run `torusqubit args` (a line or an argument list) in-process, with a
    fresh directory under parent as its --output-dir, which an --output-dir
    in args overrides, and capture its stdout and stderr.  It must meet
    check_success when code is 0, and check_failure with code and pattern
    otherwise; code None accepts either outcome, each held to its contract."""
    argv = shlex.split(args) if isinstance(args, str) else list(args)
    root = Path(tempfile.mkdtemp(dir=parent))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        exit_code = main(["--output-dir", str(root / "out"), *argv])
    run = Run(root / "out", out.getvalue(), err.getvalue())
    if code is None:
        code = exit_code if exit_code in (1, 2) else 0
    if code == 0:
        check_success(exit_code, run.out, run.err, run.dir)
    else:
        check_failure(exit_code, run.out, run.err, code, pattern, root)
    return run


@pytest.fixture(scope="session")
def checks():
    return CHECKS_MODULE


@pytest.fixture(scope="session")
def fig3a_geom() -> TorusGeometry:
    return TorusGeometry(r_minor=350 * ANGSTROM, R_major=900 * ANGSTROM)


@pytest.fixture(scope="session")
def fig3b_geom() -> TorusGeometry:
    return TorusGeometry(r_minor=350 * ANGSTROM, R_major=3600 * ANGSTROM)


@pytest.fixture(scope="session")
def disc1024() -> Discretization:
    return Discretization(n_points=1024)


@pytest.fixture(scope="session")
def fig5_qubit(fig3a_geom):
    """Two-level parameters at the error-study operating point (B=0.45 T)."""
    coeffs = coefficients_numerical(fig3a_geom, 0.45)
    return qubit_parameters(coeffs, fig3a_geom, 0.45)


@pytest.fixture(scope="session")
def qubit_factory(fig3a_geom):
    # an errors.QubitFactory of B alone; E0 is accepted and ignored for the
    # acceptance suite, which calls it with the drive amplitude too
    def factory(B: float, E0: float | None = None):
        return qubit_parameters(coefficients_numerical(fig3a_geom, B), fig3a_geom, B)

    return factory
