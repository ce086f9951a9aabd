"""Start ``repro serve`` with the benchmark's wrappers installed.

``python3 perfbench/serve_launcher.py --spans FILE [--slow-step F] --
serve ARGS...`` installs the span recorder (when ``--spans`` is given)
and the self-test step delay (when ``F`` > 0), then calls the same
entry point as ``python -m repro serve ARGS...``.  After the server
drains on SIGTERM the recorded spans are written to FILE as JSON.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.trace import Tracer, install_step_delay  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", default="")
    parser.add_argument("--slow-step", type=float, default=0.0)
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    tracer = Tracer().install() if opts.spans else None
    if opts.slow_step > 0:
        install_step_delay(opts.slow_step)
    from repro.cli import main as repro_main

    code = repro_main(args)
    if tracer is not None:
        with open(opts.spans, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
