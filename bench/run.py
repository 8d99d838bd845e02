#!/usr/bin/env python3
"""Benchmark of the torusqubit simulator, run as its users run it.

Every operation is one cold `python -m torusqubit.cli ...` process on the
checkout's src/ (the E-field sweep, which no subcommand reaches, is one cold
process through the library: bench/esweep.py).  A run first times the
interpreter start plus `import torusqubit.cli` a few times, then repeats
whole rounds of the workload's operations for about --seconds (at least two
rounds), then checks every artifact with bench/checks.py and every data file
of a later round against the first round, byte for byte.

    python3 bench/run.py --workload field-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

With --trace 0 it reports the end-to-end metrics (medians over the setups
and over the rounds); with --trace 1 it runs one round plain and one round
through bench/tracer.py and reports per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from checks import CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
LAYERS = ("model", "potential", "spectral", "reduction", "dynamics", "control", "errors", "cli")

SETUP_REPEATS = 5
MIN_ROUNDS = 2
OP_TIMEOUT_S = 60.0
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))


# ------------------------------------------------------------ operations


@dataclass
class Op:
    name: str
    target: str  # "cli" or "esweep"
    args: list[str]
    check: Callable[["Round"], None]
    manifests: bool = True
    known_fault: str = ""  # a fault of the program this operation shows on every run


@dataclass
class OpRun:
    dir: Path
    wall_s: float
    cpu_s: float
    rss_mib: float
    returncode: int
    stderr: str


@dataclass
class Round:
    path: Path
    wall_s: float
    runs: dict[str, OpRun]

    def dir(self, name: str) -> Path:
        return self.runs[name].dir


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_process(cmd: list[str], cwd: Path, log: Path) -> OpRun:
    """Run cmd to completion; CPU and peak RSS come from this child's own wait4."""
    cwd.mkdir(parents=True, exist_ok=True)
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            timer.cancel()
            if not reaped:
                proc.kill()
                os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return OpRun(
        dir=cwd,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024.0,  # KiB on Linux
        returncode=proc.returncode,
        stderr=log.with_suffix(".err").read_text(encoding="utf-8", errors="replace"),
    )


def command(op: Op, spans: Path | None) -> list[str]:
    if spans is not None:
        return [sys.executable, str(BENCH / "tracer.py"), str(spans), op.target, *op.args]
    if op.target == "cli":
        return [sys.executable, "-m", "torusqubit.cli", *op.args]
    return [sys.executable, str(BENCH / "esweep.py"), *op.args]


def run_round(ops: list[Op], path: Path, traced: bool) -> Round:
    runs = {}
    start = time.perf_counter()
    for index, op in enumerate(ops):
        label = f"{index}-{op.name}"
        spans = path / f"{label}.spans.json" if traced else None
        runs[op.name] = run_process(command(op, spans), path / label, path / label)
    return Round(path, time.perf_counter() - start, runs)


# ------------------------------------------------------------ workloads


def _rows(rnd: Round, name: str, filename: str) -> list[dict]:
    return checks.load_csv(rnd.dir(name) / filename)


def field_sweep(seed: int, small: bool) -> list[Op]:
    """README level-diagram commands plus the initialization window."""
    rng = random.Random(seed)
    b_hi = round(rng.uniform(1.4, 1.6), 3)
    scan_max = round(rng.uniform(1.8, 2.2), 3)
    points = 9 if small else 16
    common = ["--seed", str(seed), *(["--n-points", "256"] if small else [])]

    def fig3a(rnd):
        rows = _rows(rnd, "sweep-fig3a", "sweep_b.csv")
        checks.check_zeeman(rows)
        checks.check_zero_field(rows)

    def window(rnd):
        checks.check_window(
            checks.load_json(rnd.dir("window") / "window.json"), _rows(rnd, "sweep-fig3a", "sweep_b.csv")
        )

    def sweep(name, preset, m_list, check):
        args = ["--preset", preset, *common, "sweep-b", "--b-range", f"0:{b_hi}:{points}", "--m-list", m_list]
        return Op(name, "cli", args, check)

    return [
        sweep("sweep-fig3a", "fig3a", "0,1,-1", fig3a),
        sweep("sweep-fig3b", "fig3b", "0", lambda rnd: None),
        Op("window", "cli", ["--preset", "fig3a", *common, "window", "--scan-max", str(scan_max)], window),
    ]


def grid_refine(seed: int, small: bool) -> list[Op]:
    """Spectra at the operating point on refined grids, and an E-field sweep."""
    rng = random.Random(seed)
    grids = (256, 512, 1024) if small else (512, 1024, 2048, 4096)
    e_max = round(rng.uniform(2500.0, 3500.0), 1)

    def converged(rnd):
        energies = {}
        for n in grids:
            rows = _rows(rnd, f"spectrum-n{n}", "spectrum.csv")
            energies[n] = [row["energy"] for row in sorted(rows, key=lambda row: row["n"])]
        checks.check_convergence(energies)

    def e_sweep(rnd):
        payload = checks.load_json(rnd.dir("e-sweep") / "esweep.json")
        checks.check_e_sweep(payload["E_V_per_m"], [levels[0] for levels in payload["energy_internal"]])

    ops = [
        Op(f"spectrum-n{n}", "cli",
           ["--preset", "fig5", "--seed", str(seed), "--n-points", str(n), "spectrum", "--m", "0", "--levels", "6"],
           converged if n == grids[-1] else (lambda rnd: None))
        for n in grids
    ]
    r, big_r = checks.GEOMETRY["fig3a"]
    ops.append(Op("e-sweep", "esweep",
                  ["--r", repr(r), "--R", repr(big_r), "--n-points", "512" if small else "2048",
                   "--e-max", repr(e_max), "--count", "5" if small else "9"],
                  e_sweep, manifests=False))
    return ops


def labframe(seed: int, small: bool) -> list[Op]:
    """Lab-frame gate verification, three-level evolution and leakage."""
    rng = random.Random(seed)
    phase = round(rng.uniform(0.0, 2.0 * math.pi), 4)
    common = ["--preset", "fig5", "--seed", str(seed)]

    def gate(name):
        return lambda rnd: checks.check_gate(checks.load_json(rnd.dir(name) / "gate.json"))

    def three_level(rnd):
        checks.check_three_level(_rows(rnd, "evolve-3level", "trajectory.csv"))

    weak = "300" if small else "10"
    return [
        Op("hadamard-e100", "cli", [*common, "--E0", "100", "gate", "--gate", "hadamard", "--mode", "labframe"],
           gate("hadamard-e100")),
        Op(f"hadamard-e{weak}", "cli", [*common, "--E0", weak, "gate", "--gate", "hadamard", "--mode", "labframe"],
           gate(f"hadamard-e{weak}")),
        Op("evolve-3level", "cli", [*common, "evolve", "--three-level", "--phase", repr(phase)], three_level),
        Op("prep-leakage", "cli", [*common, "gate", "--gate", "prep:1.2,0.7", "--leakage"], gate("prep-leakage")),
    ]


def error_study(seed: int, small: bool) -> list[Op]:
    """README Fig. 5 commands, the reduction report, and a large Monte-Carlo scan."""
    rng = random.Random(seed)
    phase = round(rng.uniform(0.0, 2.0 * math.pi), 4)
    common = ["--preset", "fig5", "--seed", str(seed)]
    large = 100_000 if small else 1_000_000

    def rabi(rnd):
        manifest = checks.load_json(rnd.dir("evolve") / "trajectory.csv.manifest.json")
        checks.check_rabi_rotation(_rows(rnd, "evolve", "trajectory.csv"), manifest["results"]["pulse"])

    def scan(name, de_samples=None):
        def check(rnd):
            rows = _rows(rnd, name, "fidelity.csv")
            checks.check_infidelity_scan(rows)
            if de_samples:
                checks.check_de_scan(rows, de_samples)

        return check

    def routes(name, preset):
        return lambda rnd: checks.check_epsilon_routes(
            checks.load_json(rnd.dir(name) / "qubit_params.json"), preset
        )

    def fidelity(name, scan_axis, samples):
        args = [*common, "fidelity", "--scan", scan_axis, "--range", "0:0.01:21", "--samples", str(samples)]
        return Op(name, "cli", args, scan(name, samples if scan_axis == "dE" else None))

    return [
        Op("evolve", "cli", [*common, "evolve", "--phase", repr(phase)], rabi),
        fidelity("fidelity-dB", "dB", 10_000),
        Op("mitigate", "cli", [*common, "mitigate", "--delta-b", "0.005"],
           lambda rnd: checks.check_mitigation(_rows(rnd, "mitigate", "mitigate.csv"))),
        fidelity("fidelity-dE", "dE", 10_000),
        Op("qubit-params", "cli", [*common, "qubit-params"], routes("qubit-params", "fig5")),
        Op("qubit-params-fig3b-B0", "cli", ["--preset", "fig3b", "--B", "0", "--seed", str(seed), "qubit-params"],
           routes("qubit-params-fig3b-B0", "fig3b"),
           known_fault="the zero-point-spread warning is printed but the manifest records no warnings"),
        fidelity("fidelity-dE-large", "dE", large),
    ]


WORKLOADS = {
    "field-sweep": field_sweep,
    "grid-refine": grid_refine,
    "labframe": labframe,
    "error-study": error_study,
}


# ------------------------------------------------------------ checking


def problems_of(op: Op, rnd: Round, first: Round) -> list[str]:
    run = rnd.runs[op.name]
    if run.returncode != 0:
        return [f"exit code {run.returncode}: {run.stderr.strip()[-200:]}"]
    problems = []
    for check in (
        lambda: checks.check_artifacts(run.dir, manifests=op.manifests),
        lambda: checks.check_warnings_recorded(run.stderr, run.dir),
        lambda: op.check(rnd),
    ):
        try:
            check()
        except (CheckFailed, ValueError, KeyError, IndexError, OSError) as exc:
            problems.append(f"{type(exc).__name__}: {exc}")
    if rnd is not first:
        for path in checks.data_files(run.dir):
            again = first.dir(op.name) / path.name
            if not again.is_file() or again.read_bytes() != path.read_bytes():
                problems.append(f"{path.name} differs from the first round's")
    return problems


# ------------------------------------------------------------ metrics


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def import_times(work: Path) -> dict[str, float]:
    """Cumulative import times from -X importtime, medians over cold starts."""
    pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)")
    samples = []
    for i in range(SETUP_REPEATS):
        run = run_process([sys.executable, "-X", "importtime", "-c", "import torusqubit.cli"],
                          work, work / f"importtime-{i}")
        cumulative = {m.group(2): int(m.group(1)) * 1e-6 for m in map(pattern.match, run.stderr.splitlines()) if m}
        samples.append(cumulative)
    return {
        "cli.import_s": median(s.get("torusqubit", 0.0) + s.get("torusqubit.cli", 0.0) for s in samples),
        "spectral.import_s": median(s.get("torusqubit.spectral", 0.0) for s in samples),
        "dynamics.import_s": median(s.get("torusqubit.dynamics", 0.0) for s in samples),
    }


def load_spans(ops: list[Op], traced: Round) -> dict[str, dict]:
    """Span files of the traced round by operation; a crashed process leaves none."""
    docs = {}
    for index, op in enumerate(ops):
        path = traced.path / f"{index}-{op.name}.spans.json"
        if path.is_file():
            docs[op.name] = json.loads(path.read_text(encoding="utf-8"))
    return docs


def layer_metrics(
    plain: Round, traced: Round, spans: dict[str, dict], imports: dict[str, float]
) -> dict[str, tuple[float, str]]:
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    counters = {"dynamics.rhs_evals": 0, "errors.samples": 0}
    solve_s, lowest_self_s, peaks = [], [], []
    for doc in spans.values():
        covered: dict[int, float] = {}
        for span in doc["spans"]:
            if span["parent"] is not None:
                covered[span["parent"]] = covered.get(span["parent"], 0.0) + span["end"] - span["start"]
        for span in doc["spans"]:
            duration = span["end"] - span["start"]
            own = duration - covered.get(span["id"], 0.0)
            layer = span["name"].split(".", 1)[0]
            self_s[layer] += own
            calls[layer] += 1
            if span["name"] == "spectral.solve_sector":
                solve_s.append(duration)
            elif span["name"] == "spectral.lowest_eigenpairs":
                lowest_self_s.append(own)
        for key in counters:
            counters[key] += doc["counters"][key]
        peaks.extend(doc["solve_peaks"])
    largest = max((n for n, _ in peaks), default=0)
    artifact_bytes = sum(p.stat().st_size for run in traced.runs.values() for p in run.dir.iterdir())
    metrics = {
        "spectral.self_s": (self_s["spectral"], "s"),
        "spectral.calls": (calls["spectral"], "count"),
        "spectral.solve_sector_s": (median(solve_s), "s"),
        "spectral.lowest_eigenpairs_s": (median(lowest_self_s), "s"),
        "spectral.solve_peak_mib": (max((b for n, b in peaks if n == largest), default=0) / 2**20, "MiB"),
        "dynamics.self_s": (self_s["dynamics"], "s"),
        "dynamics.rhs_evals": (counters["dynamics.rhs_evals"], "count"),
        "dynamics.calls": (calls["dynamics"], "count"),
        "control.self_s": (self_s["control"], "s"),
        "errors.self_s": (self_s["errors"], "s"),
        "errors.samples": (counters["errors.samples"], "count"),
        "reduction.self_s": (self_s["reduction"], "s"),
        "reduction.calls": (calls["reduction"], "count"),
        "potential.self_s": (self_s["potential"], "s"),
        **{name: (value, "s") for name, value in imports.items()},
        "cli.self_s": (self_s["cli"], "s"),
        "cli.artifact_bytes": (artifact_bytes, "bytes"),
    }
    for layer in LAYERS:
        source = SRC / "torusqubit" / f"{layer}.py"
        lines = source.read_text(encoding="utf-8").count("\n") if source.is_file() else 0
        metrics[f"{layer}.src_lines"] = (lines, "lines")
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    return metrics


# ------------------------------------------------------------ running a workload


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    ops = WORKLOADS[name](seed, small)
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # The first import compiles src/ to bytecode; users pay that once, not per run.
    warm = run_process([sys.executable, "-c", "import torusqubit.cli"], work, work / "warm-up")
    if warm.returncode != 0:
        raise SystemExit(f"cannot import torusqubit.cli from {SRC}:\n{warm.stderr}")

    rounds: list[Round] = []
    if trace:
        imports = import_times(work)
        rounds.append(run_round(ops, work / "round-0", traced=False))
        rounds.append(run_round(ops, work / "round-1-traced", traced=True))
    else:
        setups = [
            run_process([sys.executable, "-c", "import torusqubit.cli"], work, work / f"setup-{i}").wall_s
            for i in range(SETUP_REPEATS)
        ]
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or (
            time.perf_counter() - start + statistics.mean(r.wall_s for r in rounds) <= seconds
        ):
            rounds.append(run_round(ops, work / f"round-{len(rounds)}", traced=False))

    attempted = failed = 0
    correct = True
    for rnd in rounds:
        for op in ops:
            attempted += 1
            problems = problems_of(op, rnd, rounds[0])
            if problems:
                failed += 1
                correct = correct and bool(op.known_fault)
                tag = f"known fault: {op.known_fault}" if op.known_fault else "FAILED"
                print(f"{name} {rnd.path.name} {op.name}: {tag}: {'; '.join(problems)}")

    if trace:
        spans = load_spans(ops, rounds[1])
        metrics = layer_metrics(rounds[0], rounds[1], spans, imports)
        trace_doc = {"workload": name, "seed": seed, "operations": spans}
        (work / "trace.json").write_text(json.dumps(trace_doc) + "\n", encoding="utf-8")
    else:
        metrics = {
            "setup_s": (median(setups), "s"),
            "wall_s": (median(r.wall_s for r in rounds), "s"),
            "cpu_s": (median(sum(run.cpu_s for run in r.runs.values()) for r in rounds), "s"),
            "peak_rss_mib": (median(max(run.rss_mib for run in r.runs.values()) for r in rounds), "MiB"),
        }
    print(f"{name}: seed {seed}, {len(rounds)} rounds of {len(ops)} operations, "
          f"{attempted} attempted, {failed} failed, BLAS threads {BLAS_THREADS}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<30} {value:>14.6g} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="torusqubit benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the smallest inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "torusqubit" / "cli.py").is_file():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.size == "smoke")
        for name in names
    }
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items() for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
