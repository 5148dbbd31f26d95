"""``repro-serve`` started the way the benchmark starts it.

Untraced, this is exactly ``repro.service.server.main``.  With
``--trace-out PATH`` it first wraps the layers (see ``tracing.install``),
records spans while recording is on (``SIGUSR1`` turns it on, ``SIGUSR2``
off) and writes them to ``PATH`` when the server shuts down.  Traced and
untraced runs therefore share one process topology.

    python3 perfbench/serve.py [--trace-out PATH] [repro-serve options]
"""

import argparse
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--trace-out", default=None)
    args, rest = parser.parse_known_args(argv)
    from repro.service import server

    if args.trace_out is None:
        return server.main(rest)
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer, server=True)
    signal.signal(signal.SIGUSR1, lambda *_: setattr(tracer, "enabled", True))
    signal.signal(signal.SIGUSR2, lambda *_: setattr(tracer, "enabled", False))
    try:
        return server.main(rest)
    finally:
        tracing.dump_spans(tracer.spans, args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
