"""The geodisc benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the program is imported from
``src/``).  Workloads, their input ranges and why they were chosen are in
``workloads.py``.

``--trace 0`` measures end to end, with tracing off.  One process, one
thread, one client in a closed loop: the next command starts only after the
previous one has finished and its output has been checked.  One untimed
warm-up command runs first.  Reported in the JSON line:

* ``wall_rel``: median over verified commands of the command's wall time
  divided by the wall time of a fixed reference computation timed right
  before and right after it (:func:`reference_s`).  On a shared 2-vCPU
  host, speed drifts by tens of percent over tens of seconds; the ratio
  cancels most of that, the raw time does not.
* ``setup_s``: the cold start of the workload's command in a fresh
  interpreter (``import geodisc.cli``, argument parsing, phase map and
  Hamiltonian: everything before the first step; see ``probe.py``).  Host
  speed switches between regimes some 40 % apart that last from seconds to
  minutes, so each of several fresh interpreters is timed between two cold
  starts of a fixed reference (:func:`cold_reference_s`), and setup_s is the
  median ratio of set-up time to reference time, in seconds of a host on
  which the reference takes ``COLD_REFERENCE_NOMINAL_S``.  The raw times
  are printed above the JSON line.
* ``peak_rss_mb``: peak resident memory of a fresh process that runs the
  workload's command once.
* ``success_ratio``: verified commands over attempted ones, i.e.
  1 - fail_ratio.  A command fails on a nonzero exit, an exception or a
  failed output check; failed commands are neither retried nor dropped.

The lines before it report, per run, ``wall_s`` (median wall seconds per
command to a verified result, with quartiles, the sample count and, from 20
samples on, the highest percentile with ten samples beyond it), the
fail_ratio, and every raw sample.  ``wall_s`` is not in the JSON line: its
run-to-run spread (0.12 to 0.33 of the median over ten runs, see
``README.md``) reaches the largest regression bound a benchmark may set.

``--trace 1`` runs a warm-up and the next four commands untraced, then the
same four commands with the public geodisc functions wrapped in spans
(``spans.py``), and reports per-layer metrics per command.  The spans are
written to ``.perfbench-out/``.

Stdout ends with one JSON line: correct, attempted, failed and metrics.
BLAS and OpenMP thread pools are pinned to one thread here, for this process
and the fresh interpreters it starts.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GEODISC_SEED", None)  # the CLI would let it override --seed

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: Fresh interpreters per run that time set-up.
SETUP_REPEATS = 10
#: cold_reference_s() on the host setup_s is expressed for.
COLD_REFERENCE_NOMINAL_S = 0.06
#: Commands replayed untraced and traced in a --trace 1 run: one whole block
#: of the shoot-obstacle stream, so its three-iteration solve is traced too.
TRACE_COMMANDS = 4
PROBE_TIMEOUT_S = 150
#: Iterations of the reference computation timed between commands (~0.25 s).
REFERENCE_REPS = 15_000


def invoke(argv: list[str]):
    """Run one command through ``geodisc.cli.main`` in this process."""
    from geodisc import cli
    from workloads import Outcome

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001, a crash is a failed command, not a crashed benchmark
            traceback.print_exc()
            code = -1
    return Outcome(code, out.getvalue(), err.getvalue())


def reference_s() -> float:
    """Wall time of a fixed computation shaped like the free step (small numpy
    calls from a Python loop) that does not touch geodisc: the unit of
    ``wall_rel``."""
    import numpy as np

    A = np.eye(4) + 0.25
    b = np.arange(4.0)
    x = b.copy()
    t0 = perf_counter()
    for _ in range(REFERENCE_REPS):
        y = np.concatenate([x[:2], x[2:]])
        if not np.all(np.isfinite(y)):
            raise FloatingPointError("reference computation diverged")
        x = 0.5 * (np.linalg.solve(A, y) + b)
    return perf_counter() - t0


def fresh_env() -> dict:
    """Environment of the fresh interpreters: this one's, with ``src/`` first
    on PYTHONPATH (the thread pins are already set above)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cold_reference_s() -> float:
    """Seconds a fresh interpreter takes to import numpy, timed from inside
    it: a cold start that does not touch geodisc, the unit of ``setup_s``."""
    code = "import time; t0 = time.perf_counter(); import numpy; print(time.perf_counter() - t0)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=fresh_env(), capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S
    )
    return float(done.stdout)


class Run:
    """Commands of one workload, their checks and the tally of failures."""

    def __init__(self, workload: str, seed: int, out_dir: str):
        from workloads import CHECKERS, STREAMS

        self.workload, self.seed = workload, seed
        self._commands = STREAMS[workload](seed, out_dir)
        self._check = CHECKERS[workload]
        self.attempted = self.failed = 0

    def next_command(self):
        return next(self._commands)

    def verify(self, cmd, outcome) -> bool:
        self.attempted += 1
        problem = self._check(cmd, outcome)
        if problem is not None:
            self.failed += 1
            print(f"FAILED {' '.join(cmd.argv)}: {problem}", file=sys.stderr)
        return problem is None

    def timed(self, cmd) -> tuple[float, bool]:
        t0 = perf_counter()
        outcome = invoke(cmd.argv)
        wall = perf_counter() - t0
        return wall, self.verify(cmd, outcome)


def probe(argv: list[str], run_command: bool) -> dict:
    cmd = [sys.executable, str(HERE / "probe.py"), json.dumps(argv)] + (["--run"] if run_command else [])
    done = subprocess.run(cmd, env=fresh_env(), cwd=str(ROOT), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"probe failed ({done.returncode}): {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail_percentile(samples: list[float]):
    """Highest whole percentile above the median with at least ten samples
    beyond it, and its value; None when there are fewer than 20 samples."""
    n = len(samples)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def end_to_end(run: Run, seconds: float) -> dict:
    from workloads import Outcome

    first = run.next_command()
    setups, setup_refs = [], [cold_reference_s()]
    for _ in range(SETUP_REPEATS):
        setups.append(probe(first.argv, False)["setup_s"])
        setup_refs.append(cold_reference_s())
    setup_rels = [s / (0.5 * (a + b)) for s, a, b in zip(setups, setup_refs, setup_refs[1:])]
    fresh = probe(first.argv, True)
    run.verify(first, Outcome(fresh["exit_code"], fresh["stdout"], fresh["stderr"]))

    run.timed(run.next_command())  # warm-up, checked but untimed
    walls, rels, all_walls, all_rels = [], [], [], []
    refs = [reference_s()]
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        wall, ok = run.timed(run.next_command())
        refs.append(reference_s())
        rel = wall / (0.5 * (refs[-2] + refs[-1]))
        all_walls.append(wall)
        all_rels.append(rel)
        if ok:
            walls.append(wall)
            rels.append(rel)

    # With no verified command the run is incorrect; report what was timed.
    wall_samples, rel_samples = (walls, rels) if walls else (all_walls, all_rels)
    q1, med, q3 = statistics.quantiles(wall_samples, n=4) if len(wall_samples) > 1 else [wall_samples[0]] * 3
    tail = tail_percentile(wall_samples)
    print(
        f"{run.workload}: wall_s median {med:.4f} s (quartiles {q1:.4f}, {q3:.4f}) over {len(walls)} "
        f"verified commands; "
        + (f"p{tail[0]} {tail[1]:.4f} s" if tail else "no tail percentile (needs 20 samples)")
        + f"; wall_rel median {statistics.median(rel_samples):.4f}; fail_ratio {run.failed}/{run.attempted}"
    )
    print(f"  command wall_s: {' '.join(f'{w:.4f}' for w in all_walls)}")
    print(f"  reference_s:    {' '.join(f'{r:.4f}' for r in refs)}")
    print(f"  raw setup_s:    {' '.join(f'{s:.4f}' for s in setups)}")
    print(f"  setup ref_s:    {' '.join(f'{r:.4f}' for r in setup_refs)}")
    return {
        "wall_rel": statistics.median(rel_samples),
        "setup_s": COLD_REFERENCE_NOMINAL_S * statistics.median(setup_rels),
        "peak_rss_mb": fresh["peak_rss_mb"],
        "success_ratio": (run.attempted - run.failed) / run.attempted,
    }


def per_layer(run: Run) -> dict:
    """Per-layer metrics per command, from a fixed number of commands so that
    the counts repeat exactly for a seed (``--seconds`` does not apply)."""
    from spans import Tracer
    from workloads import CHECK_SUITES

    run.timed(run.next_command())  # warm-up
    cmds = [run.next_command() for _ in range(TRACE_COMMANDS)]
    plain = [run.timed(c)[0] for c in cmds]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run.timed(c)[0] for c in cmds]
    finally:
        tracer.uninstall()
    tracer.save(str(OUT / f"trace-{run.workload}-seed{run.seed}.npz"))

    k = float(TRACE_COMMANDS)
    tot = tracer.totals()
    cnt = tracer.counts
    get = lambda name, key: tot.get(name, {}).get(key, 0)
    calls = lambda name: get(name, "calls")
    per_call_us = lambda name: 1e6 * get(name, "total_s") / calls(name) if calls(name) else 0.0
    steps = cnt["steps"]
    per_step = lambda x: x / steps if steps else 0.0
    shoots = calls("control.shoot")
    m = {
        "numeric.as_vector_calls_per_step": per_step(cnt["as_vector_step_calls"]),
        "numeric.as_vector_s": get("numeric.as_vector", "total_s") / k,
        "numeric.jacobian_fd_calls": calls("numeric.jacobian_fd") / k,
        "numeric.jacobian_fd_s": get("numeric.jacobian_fd", "total_s") / k,
        "numeric.newton_solve_s": get("numeric.newton_solve", "total_s") / k,
        "hamiltonian.steps": steps / k,
        "hamiltonian.us_per_step": 1e6
        * per_step(get("hamiltonian.integrate", "total_s") + get("hamiltonian.symplectic_step", "total_s")),
        "hamiltonian.residual_evals_per_step": per_step(cnt["residual_step_evals"]),
        "hamiltonian.residual_us": per_call_us("hamiltonian.residual"),
        "hamiltonian.jacobian_refreshes": cnt["jacobian_refreshes"] / k,
        "control.integrations_per_solve": cnt["integrations_in_shoot"] / shoots if shoots else 0.0,
        "control.shoot_s": get("control.shoot", "total_s") / k,
        "jets.pushforward_calls": calls("jets.jet_pushforward") / k,
        "jets.pushforward_s": get("jets.jet_pushforward", "total_s") / k,
        "artifacts.csv_s": get("artifacts.write_trajectory_csv", "total_s") / k,
        "artifacts.csv_bytes": cnt["csv_bytes"] / k,
        "artifacts.svg_s": get("artifacts.write_xy_svg", "total_s") / k,
        "cli.self_s": get("cli.main", "self_s") / k,
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
    }
    for layer in ("lifts", "maps"):
        for direction in ("inverse", "forward"):
            m[f"{layer}.{direction}_calls"] = calls(f"{layer}.{direction}") / k
            m[f"{layer}.{direction}_us"] = per_call_us(f"{layer}.{direction}")
    for suite in CHECK_SUITES:
        m[f"checks.{suite}_s"] = get(f"checks.{suite}", "total_s") / k
    print(
        f"{run.workload}: {TRACE_COMMANDS} commands, untraced {', '.join(f'{w:.4f}' for w in plain)} s, "
        f"traced {', '.join(f'{w:.4f}' for w in traced)} s, {len(tracer.start)} spans"
    )
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "geodisc" / "cli.py").is_file():
        print(f"error: no geodisc sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="run-", dir=str(OUT))
    try:
        run = Run(args.workload, args.seed, out_dir)
        values = per_layer(run) if args.trace else end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
