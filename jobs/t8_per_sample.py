"""T8 (Fig 6b): per-accepted-sample time in the reuse phase vs the
regular phase of ONLINE-UNION."""
import sys

sys.path.insert(0, ".")
from _common import base_parser  # noqa: E402

from repro.experiments.tables import T8_N, print_table, t8_per_sample  # noqa: E402

if __name__ == "__main__":
    p = base_parser(__doc__)
    p.add_argument("--n", type=int, default=T8_N)
    args = p.parse_args()
    rows = t8_per_sample(sf=args.sf, n=args.n, seed=args.seed)
    print_table(rows, "T8: per-sample time, reuse vs regular phase (Fig 6b)")
