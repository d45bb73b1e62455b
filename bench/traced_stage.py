"""Run one hhsynth CLI stage with the tracer installed, then write its spans.

Usage: python traced_stage.py SPANS_JSON RUN_ID CLI_ARGS...

The exit code is the CLI's.  hhsynth must be importable (PYTHONPATH=src).
"""

import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id)
    with tracer:
        from hhsynth.cli import main as cli_main

        code = cli_main(cli_args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
