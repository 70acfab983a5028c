"""T3 (Fig 5a): ratio-estimation error, HISTOGRAM-BASED+EO vs RANDOM-WALK,
per join of UQ1."""
import sys

sys.path.insert(0, ".")
from _common import base_parser  # noqa: E402

from repro.experiments.tables import print_table, t3_ratio_error_rw  # noqa: E402

if __name__ == "__main__":
    args = base_parser(__doc__).parse_args()
    rows = t3_ratio_error_rw(sf=args.sf, seed=args.seed)
    print_table(rows, "T3: HISTOGRAM-BASED vs RANDOM-WALK error (Fig 5a)")
