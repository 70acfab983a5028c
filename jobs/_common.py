"""Shared CLI plumbing for the per-table jobs.

Each job prints the rows behind one evaluation table (see DESIGN.md §4)
and runs as a plain Python script (``python jobs/t1_... --sf 0.01``).
"""
import argparse


def base_parser(desc: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--sf", type=float, default=0.01, help="scale factor")
    p.add_argument("--seed", type=int, default=0)
    return p
