"""T1 (Fig 4a/4b): |J_i|/|U| ratio-estimation error of HISTOGRAM-BASED+EO
on UQ1 and UQ3 across overlap scales."""
import sys

sys.path.insert(0, ".")
from _common import base_parser  # noqa: E402

from repro.experiments.tables import print_table, t1_ratio_error_hist  # noqa: E402

if __name__ == "__main__":
    args = base_parser(__doc__).parse_args()
    rows = t1_ratio_error_hist(sf=args.sf)
    print_table(rows, "T1: ratio error, HISTOGRAM-BASED + EO (Fig 4a/4b)")
