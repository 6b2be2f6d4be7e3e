#!/usr/bin/env python3
"""Wall time of single large Kasteleyn Pfaffians, outside the workloads.

    python3 bench/pfaffian_sizes.py [rows x cols x rank ...]

Defaults to the two sizes quoted in ROADMAP.md: 8x8 at rank 1 (dim 128)
and 6x6 at rank 2 (dim 144), unit weights.  Prints the median of three
`kasteleyn` calls per size, wall time and corrected for other load as in
run.py, and checks |pf| = Z^(2n).
"""

import statistics
import sys

import inputs as gen
import run

SIZES = ["8x8x1", "6x6x2"]


def main(argv):
    cli = run.import_spwebs()
    from workloads import Op, power_check
    with run.workdir("pfaffian_sizes", 0) as path:
        for size in argv or SIZES:
            rows, cols, n = map(int, size.split("x"))
            g = gen.grid(rows, cols)
            gp = gen.write_json(path / ("grid-%s.json" % size), g.to_dict())
            z = gen.grid_dimers(rows, cols, g)
            op = Op(size, ["kasteleyn", "--graph", gp, "--n", n],
                    power_check("pf", z ** (2 * n)))
            res = run.drive(cli, [[op]], n_cycles=3)
            if res.failed:
                print("%s failed: %s" % (size, res.failures[0]))
                return 1
            print("kasteleyn %dx%d rank %d (dim %d): median %.2f s corrected,"
                  " %.2f s wall" % (rows, cols, n, 2 * n * rows * cols,
                                    statistics.median(res.corrected()),
                                    statistics.median(res.latencies)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
