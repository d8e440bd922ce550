"""Fresh-interpreter probe of one geodisc command: its cold set-up time or its
peak memory.

    python3 perfbench/probe.py '<argv as JSON>' [--run]

Set-up is everything ``geodisc.cli.main`` does before the first unit of work:
importing ``geodisc.cli``, parsing the command line and building the phase
map and Hamiltonian.  It ends at the first call of
``hamiltonian.step_residual`` (the first step of ``simulate`` and ``shoot``)
or of a check suite (``check``), whichever comes first; the probe stops the
command there.  With ``--run`` the probe instead runs the command to the end
and reports its exit code, output and the process's peak resident memory.
Prints one JSON object.  The caller sets PYTHONPATH and the thread pins.
"""
import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


class _SetUpDone(BaseException):
    """Stops the command at the end of its set-up.  A BaseException, so that
    the package's own ``except Exception`` firewalls let it through."""


def setup_s(argv: list[str]) -> float:
    from geodisc import checks, hamiltonian

    def stop_at_first_call(fn):
        @functools.wraps(fn)
        def first_call(*args, **kwargs):
            raise _SetUpDone(time.perf_counter() - _T0)

        return first_call

    hamiltonian.step_residual = stop_at_first_call(hamiltonian.step_residual)
    for suite, fn in list(checks.SUITES.items()):
        checks.SUITES[suite] = stop_at_first_call(fn)

    from geodisc import cli

    try:
        code = cli.main(argv)
    except _SetUpDone as done:
        return done.args[0]
    raise RuntimeError(f"command ended with exit code {code} before its first step")


def main() -> int:
    argv = json.loads(sys.argv[1])
    if "--run" not in sys.argv[2:]:
        report = {"setup_s": setup_s(argv)}
    else:
        from run import invoke

        outcome = invoke(argv)
        report = {
            "exit_code": outcome.exit_code,
            "stdout": outcome.stdout,
            "stderr": outcome.stderr,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
