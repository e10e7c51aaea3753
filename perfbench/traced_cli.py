"""Run one intent-cbr command with the benchmark's span wrappers installed.

Usage: ``PERFBENCH_SPANS=<file> PERFBENCH_OP=<label> python traced_cli.py <command> [args]``.
The spans are written to ``$PERFBENCH_SPANS`` when the command ends,
whatever its exit code. Started by run.py for traced runs; untraced runs
call ``intent_cbr.cli.entrypoint`` directly, like the console script.
"""

import os

import tracer as tracing

tracer = tracing.Tracer()
tracer.set_op(os.environ["PERFBENCH_OP"])
tracing.install(tracer)

from intent_cbr.cli import entrypoint  # noqa: E402  (after the wrappers)

try:
    entrypoint()
finally:
    tracer.dump(os.environ["PERFBENCH_SPANS"])
