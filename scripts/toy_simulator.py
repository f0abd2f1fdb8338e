#!/usr/bin/env python3
"""A toy simulator that speaks cego's external line protocol.

Reads one request per line on stdin, ``{"theta": [t1, t2]}``, and answers
each with one line on stdout, ``{"objective": J, "constraints": [g]}``: a
quadratic bowl whose minimum, at (0.3, -0.2), lies inside the disc that the
constraint excludes. ``configs/external_toy.json`` runs it; put your own
simulator's command in that config's ``command`` to drive it instead.
"""

import json
import sys

for line in sys.stdin:
    t1, t2 = json.loads(line)["theta"]
    objective = (t1 - 0.3) ** 2 + (t2 + 0.2) ** 2
    constraint = 0.25 - t1 ** 2 - t2 ** 2  # feasible outside the disc of radius 0.5
    print(json.dumps({"objective": objective, "constraints": [constraint]}), flush=True)
