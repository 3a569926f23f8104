"""Set-up probe: the fixed cost every CLI call pays before any work.

    python3 perfbench/setup_probe.py SCENARIO

Imports ``bftsim.cli`` and parses SCENARIO, then prints one JSON line with
the import and parse times and the path of the imported package.  The
parent times the whole process, interpreter start included.
"""

import json
import sys
import time

t0 = time.perf_counter()
import bftsim.cli  # noqa: E402
t1 = time.perf_counter()
bftsim.cli.parse_scenario(sys.argv[1])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1,
                  "package": bftsim.__file__}))
