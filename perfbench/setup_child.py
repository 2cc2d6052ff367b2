"""Time the benchmark's set-up in this fresh process, as the CLI meets it.

    python3 perfbench/setup_child.py REPS SECONDS DATA_DIR [SPLIT_FILE ...]

Loads DATA_DIR and parses every split file at least REPS times and for at
least SECONDS, and prints the wall time of each set-up as one JSON list on
one line.
"""

import json
import sys

from run import import_grafn

if __name__ == "__main__":
    problem = import_grafn()
    if problem:
        sys.exit(f"setup_child: {problem}")
    import workloads

    reps, seconds, data_dir, *split_paths = sys.argv[1:]
    print(json.dumps(workloads.time_setup(data_dir, split_paths, int(reps), float(seconds))))
