"""Run `arcdiag.cli` as `python3 -m arcdiag.cli` does, with the pace sampler running in it.

    PYTHONPATH=src python3 perfbench/cli_child.py <arguments of arcdiag.cli>

Standard input, standard output and the exit code are the command's. On
exit the last line of standard error is `pace.report`: the seconds spent
sampling and the time of each sampled reference unit, which the parent
uses to scale the command's wall time.
"""
import atexit
import runpy
import sys

import pace

sampler = pace.Sampler()


def report() -> None:
    sampler.__exit__()
    sampler.sample()
    print(pace.report(sampler), file=sys.stderr)


# one sample at each end, so that a command shorter than the interval has two
sampler.sample()
sampler.__enter__()
atexit.register(report)
sys.argv = ["arcdiag.cli", *sys.argv[1:]]
runpy.run_module("arcdiag.cli", run_name="__main__", alter_sys=True)
