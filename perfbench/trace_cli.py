"""Run the charshift command line with the perfbench tracer installed.

Usage: python3 perfbench/trace_cli.py <charshift arguments>

stdout is the CLI's own output, byte for byte.  After the CLI returns, one
line holding this process's span aggregates is appended to stderr.
"""

import sys

from tracer import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.use("measure")
    tracer.install()
    import charshift.cli

    try:
        code = charshift.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write(tracer.cli_record() + "\n")
    sys.exit(code)
