"""T2 (Fig 4c/4d): union-size estimation runtime, HISTOGRAM-BASED vs
FullJoinUnion, on UQ1 and UQ3."""
import sys

sys.path.insert(0, ".")
from _common import base_parser  # noqa: E402

from repro.experiments.tables import print_table, t2_union_size_runtime  # noqa: E402

if __name__ == "__main__":
    args = base_parser(__doc__).parse_args()
    rows = t2_union_size_runtime(sf=args.sf)
    print_table(rows, "T2: union size estimation runtime (Fig 4c/4d)")
