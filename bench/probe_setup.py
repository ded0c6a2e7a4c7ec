"""Set-up probe: a fresh process imports tfdyn and parses the workload's configs.

    python3 bench/probe_setup.py SPEC.json

Prints the seconds from just before ``import tfdyn`` to the last parsed
config; interpreter start-up is not included.
"""

import json
import sys
import time

start = time.perf_counter()
from tfdyn import cli_runner  # noqa: E402

for cfg in json.load(open(sys.argv[1]))["configs"]:
    cli_runner.parse_config(cfg["text"], cfg["kind"])
print(repr(time.perf_counter() - start))
