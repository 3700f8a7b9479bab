"""Run ``estima serve`` in this process, optionally with span wrappers.

    python3 perfbench/launcher.py [--trace-out FILE] serve --http 127.0.0.1:0 ...

The untraced and traced runs start the server the same way; only the traced
one installs :mod:`tracing`'s wrappers, and it writes the spans to ``FILE``
when the server shuts down (SIGINT).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import env  # noqa: E402

env.make_hermetic()


def main(argv: list[str]) -> int:
    recorder = trace_out = None
    if argv[:1] == ["--trace-out"]:
        import tracing

        trace_out, argv = Path(argv[1]), argv[2:]
        recorder = tracing.Recorder()
        tracing.install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if recorder is not None:
            recorder.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
