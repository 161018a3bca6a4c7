"""Install the benchmark's speed sampling and span wrappers in a subprocess.

The benchmark puts this directory first on ``PYTHONPATH`` of the service
and queue-worker processes it starts, so the wrappers are in place before
``python -m repro ...`` runs: with ``PERFBENCH_SPEED_FILE`` set, the
process samples its own speed where no measured request waits on it, as
``PERFBENCH_SPEED_ROLE`` says (see ``speed.py``); with
``PERFBENCH_TRACE_DIR`` set (traced runs), it also records spans and
writes them there at exit, and SIGTERM (how the queue backend stops its
workers) exits cleanly so that the exit handler runs.
"""

import os
import signal
import sys

if os.environ.get("PERFBENCH_SPEED_FILE"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    if os.environ.get("PERFBENCH_TRACE_DIR"):
        import atexit

        import tracing

        tracing.install()
        atexit.register(tracing.write, os.environ["PERFBENCH_TRACE_DIR"])
        tracing.start()
        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))

    import speed

    speed.install_sampling(os.environ[speed.FILE_ENV],
                           os.environ[speed.ROLE_ENV])
