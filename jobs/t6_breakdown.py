"""T6 (Fig 5f-h): time breakdown — parameter estimation / accepted /
rejected — per workload and instantiation."""
import sys

sys.path.insert(0, ".")
from _common import base_parser  # noqa: E402

from repro.experiments.tables import print_table, t6_breakdown  # noqa: E402

if __name__ == "__main__":
    p = base_parser(__doc__)
    p.add_argument("--n", type=int, default=200)
    args = p.parse_args()
    rows = t6_breakdown(sf=args.sf, n=args.n, seed=args.seed)
    print_table(rows, "T6: time breakdown (Fig 5f-h)")
