"""``python -m trigroup.cli`` with the benchmark's span wrappers installed.

Traced cli-cold passes start each cold process through this file.  The
spans are kept in memory and appended to ``$BENCH_TRACE_FILE`` when the
process ends; ``$BENCH_TRACE_RUN`` and ``$BENCH_TRACE_PARENT`` tie them to
the harness span of the call.
"""

import os
import sys

from tracing import Tracer

if __name__ == "__main__":
    import trigroup.cli

    tracer = Tracer(os.environ["BENCH_TRACE_RUN"], os.environ["BENCH_TRACE_PARENT"])
    tracer.install()
    try:
        status = trigroup.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(os.environ["BENCH_TRACE_FILE"])
    sys.exit(status)
