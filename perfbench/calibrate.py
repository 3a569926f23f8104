"""Reference work that measures how fast the machine is right now.

    python3 perfbench/calibrate.py

A fixed mix of the interpreter work bftsim does (building dicts, JSON
encoding and decoding, SHA-256), independent of the program under test.
The benchmark times this child next to every command to scale command
times to a fixed machine speed (see run.py, REF_S).
"""

import hashlib
import json

digest = hashlib.sha256()
table = {}
for i in range(12000):
    rec = {"t": i, "kind": "send", "frm": i % 7, "to": i % 5,
           "m": {"round": i, "view": i // 100, "signers": [1, 2, 3]}}
    line = json.dumps(rec, sort_keys=True)
    digest.update(line.encode())
    table[i % 1000] = json.loads(line)
print(digest.hexdigest())
