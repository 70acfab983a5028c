"""T4 (Fig 5b): SetUnion sampling time vs data scale on UQ1, for
HIST+EW / HIST+EO / RW+EW."""
import sys

sys.path.insert(0, ".")
from _common import base_parser  # noqa: E402

from repro.experiments.tables import print_table, t4_scale_data  # noqa: E402

if __name__ == "__main__":
    p = base_parser(__doc__)
    p.add_argument("--n", type=int, default=200)
    args = p.parse_args()
    rows = t4_scale_data(
        sfs=(args.sf / 4, args.sf / 2, args.sf), n=args.n, seed=args.seed
    )
    print_table(rows, "T4: sampling time vs data scale (Fig 5b)")
