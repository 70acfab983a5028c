"""Run every table harness (T1–T8) in one process and print all tables —
the source of the measured numbers in EXPERIMENTS.md.

Usage: python jobs/run_all_tables.py [--sf 0.1] [--seed 0] > results.txt
"""
import argparse
import sys
import time

sys.path.insert(0, ".")

from repro.experiments import tables as T  # noqa: E402

if __name__ == "__main__":
    p = argparse.ArgumentParser()
    p.add_argument("--sf", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    t_start = time.time()

    specs = [
        ("T1 (Fig 4a/4b): ratio error, HISTOGRAM-BASED+EO",
         lambda: T.t1_ratio_error_hist(sf=args.sf,
                                       overlaps=(0.05, 0.2, 0.4, 0.6, 0.8))),
        ("T2 (Fig 4c/4d): union size estimation runtime",
         lambda: T.t2_union_size_runtime(sf=args.sf,
                                         overlaps=(0.1, 0.2, 0.4, 0.8))),
        ("T3 (Fig 5a): HISTOGRAM-BASED vs RANDOM-WALK ratio error",
         lambda: T.t3_ratio_error_rw(sf=args.sf, seed=args.seed)),
        ("T4 (Fig 5b): sampling time vs data scale",
         lambda: T.t4_scale_data(sfs=(args.sf / 4, args.sf / 2, args.sf),
                                 n=200, seed=args.seed)),
        ("T5 (Fig 5c-e): sampling time vs sample count",
         lambda: T.t5_scale_samples(sf=args.sf,
                                    ns=(100, 200, 400, 800), seed=args.seed)),
        ("T6 (Fig 5f-h): time breakdown",
         lambda: T.t6_breakdown(sf=args.sf, n=300, seed=args.seed)),
        ("T7 (Fig 6a): online union sampling, reuse vs no reuse",
         lambda: T.t7_reuse(sf=args.sf, ns=(100, 200, 400), seed=args.seed)),
        ("T8 (Fig 6b): per-sample time, reuse vs regular phase",
         lambda: T.t8_per_sample(sf=args.sf, n=T.T8_N, seed=args.seed)),
    ]
    for title, fn in specs:
        t0 = time.time()
        rows = fn()
        T.print_table(rows, f"{title}  [sf={args.sf}, {time.time() - t0:.0f}s]")
        sys.stdout.flush()
    print(f"total: {time.time() - t_start:.0f}s")
