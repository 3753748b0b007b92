"""Traced server entry point for the serve-durable workload.

Installs the span wrappers (tracing.py) in the server process, then runs
the unchanged ``repro`` command line, so the server under trace is the
same ``run_server`` the untraced run starts with ``python -m repro``::

    python3 perfbench/serve_shim.py SUMMARY.json serve --port 0 --wal-root DIR

On exit it writes the process's trace summary to SUMMARY.json and its
spans beside it.
"""

from __future__ import annotations

import json
import pickle
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    summary = Path(sys.argv[1])
    tracer = tracing.Tracer()
    tracing.install(tracer)

    from repro import __main__ as cli
    from repro.serving.server import TenantRuntime

    close_engines = TenantRuntime.close_engines

    def measured_close(self):
        # state size at drain, before the final checkpoint
        size = sum(len(pickle.dumps(getattr(e, "engine", e), protocol=pickle.HIGHEST_PROTOCOL))
                   for e in self.engines.values())
        tracer.peak("state.bytes", size)
        close_engines(self)

    TenantRuntime.close_engines = measured_close
    tracer.begin()
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.end()
        tracer.write_spans(summary.with_suffix(".spans.tsv"))
        summary.write_text(json.dumps(tracer.summary()))


if __name__ == "__main__":
    sys.exit(main())
