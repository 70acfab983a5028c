"""Experiment harnesses reproducing the paper's evaluation (§9).

One function per table (T1–T8, see DESIGN.md §4); each returns the rows
the corresponding figure panel plots. ``jobs/`` wraps them as
command-line scripts.
"""
