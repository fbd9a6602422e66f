"""Run one ctmkit CLI command in this fresh interpreter and record when the
package was imported and the config validated, and when the command ended.

The times are ``time.perf_counter()`` readings, which on Linux are
CLOCK_MONOTONIC and so comparable with the parent's: the parent takes the
spawn time and gets setup_s (spawn to ready) and the operation time (ready
to done) from one process.  Also records where ctmkit was imported from, so
the parent can check that it is the checkout under test.

Usage: python3 bench/cli_op.py TIMING_JSON COMMAND [FLAGS...]
"""

import json
import sys
import time


def main() -> int:
    timing_path, argv = sys.argv[1], sys.argv[2:]
    import ctmkit
    from ctmkit.cli import build_parser, config_from_args
    from ctmkit.cli import main as cli_main

    config_from_args(build_parser().parse_args(argv))
    ready = time.perf_counter()
    code = cli_main(argv)
    done = time.perf_counter()
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump({"ready": ready, "done": done, "exit_code": code,
                   "package": ctmkit.__file__}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
