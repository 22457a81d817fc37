"""Persistent NDJSON sphere worker that times the optimiser between requests.

Usage: python3 sphere_worker.py STATS_PATH

Answers each ``{"x": [...]}`` line with ``{"y": sum(x_i^2)}``.  For every
request after the first it records the time from its previous reply being
flushed to the request arriving: the optimiser's time between one
evaluation returning and the next being requested.  On end of input it
writes STATS_PATH as raw doubles: request count, the monotonic time of the
first request, then the gaps in seconds.
"""

import json
import sys
import time
from array import array


def main() -> None:
    stats = array("d", [0.0, 0.0])
    clock = time.perf_counter
    replied = None
    for line in sys.stdin:
        now = clock()
        if replied is None:
            stats[1] = now
        else:
            stats.append(now - replied)
        x = json.loads(line)["x"]
        sys.stdout.write(json.dumps({"y": sum(v * v for v in x)}) + "\n")
        sys.stdout.flush()
        stats[0] += 1
        replied = clock()
    with open(sys.argv[1], "wb") as fh:
        stats.tofile(fh)


if __name__ == "__main__":
    main()
