"""Compare threshold sidecars in pairs; exit 1 at the first pair that differs.

    python .github/compare_thresholds.py A.json B.json [C.json D.json ...]

Each pair must agree on jp_star, bracket and eps_im, and on max |Im| at every
jp that both searches solved. The two may solve different jp, in another
order or number, as an unbound search or one on another number of solve
lanes does; each pair prints how many shared solves agree.
"""

import json
import sys

KEYS = ("jp_star", "bracket", "eps_im")


def main(paths):
    if not paths or len(paths) % 2:
        sys.exit("usage: compare_thresholds.py A.json B.json "
                 "[C.json D.json ...]")
    for first, second in zip(paths[::2], paths[1::2]):
        sidecars = [json.load(open(path)) for path in (first, second)]
        for path, sidecar in zip((first, second), sidecars):
            print(f"{path}: solve_lanes",
                  sidecar["environment"]["solve_lanes"], sidecar["results"])
        a, b = (sidecar["results"] for sidecar in sidecars)
        solved = dict(map(tuple, a["trace"]))
        shared = [(jp, im) for jp, im in b["trace"] if jp in solved]
        if ([a[k] for k in KEYS] != [b[k] for k in KEYS]
                or any(solved[jp] != im for jp, im in shared)):
            sys.exit(f"{first} and {second}: the threshold searches differ")
        print(f"{first} and {second}: {len(shared)} shared solves agree")


if __name__ == "__main__":
    main(sys.argv[1:])
