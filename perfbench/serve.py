"""Run ``repro serve`` in this process for the ``service`` workload.

    python3 perfbench/serve.py --store STORE [--spans SPANS.json]

With ``--spans`` the layer wrappers are installed before the server
starts, and the spans are written out after it shuts down.
"""

from __future__ import annotations

import argparse
import os
import sys

from workloads import SERVE_ARGS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    recorder = None
    if args.spans:
        from tracing import Recorder

        recorder = Recorder(f"server:{os.getpid()}")
        recorder.install()
    from repro.__main__ import main as cli

    code = cli(["serve", "--store", args.store, *SERVE_ARGS])
    if recorder is not None:
        recorder.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
