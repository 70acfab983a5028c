"""Standard template selection (§8.1.1–8.1.2).

A template is an ordering A_1, …, A_m of the output attributes; the split
chain's i-th sub-relation holds the pair (A_i, A_{i+1}). The paper scores a
pair of attributes by the summed tree distance between their relations
across all joins — pairs that live together in the original relations get
low scores — and picks the template minimizing the total score of
consecutive pairs. That is a minimum-cost Hamiltonian path over the
attributes, solved exactly here with Held–Karp (attribute counts are
small).

``zero_weight`` is the §8.1.2 "alternating score" hyper-parameter: the
score contributed by co-located pairs (distance 0), tunable to favour
keeping attributes in their original relations.
"""
from __future__ import annotations

import numpy as np

from repro.core.join_spec import Join


def _score_matrix(joins: list[Join], attrs: list[str], zero_weight: float) -> np.ndarray:
    """Symmetric C[i, k] = score(attrs[i], attrs[k]) (diagonal unused)."""
    c = np.zeros((len(attrs), len(attrs)))
    for j in joins:
        nodes = j.nodes()
        pos = {id(nd): i for i, nd in enumerate(nodes)}
        at = [pos[id(j.node_of_attr(a))] for a in attrs]
        hops = np.array([[len(j.path(x, y)) - 1 for y in nodes] for x in nodes], dtype=float)
        d = hops[np.ix_(at, at)]
        c += np.where(d == 0, zero_weight, d)
    return c


def _walk(h: np.ndarray, c: np.ndarray, mask: int, i: int, pick: int) -> list[int]:
    """An optimal path over ``mask`` from ``i``, stepping each time to the
    ``pick``-th (0: lowest, -1: highest index) j with c[i, j] + h[mask − i, j]
    == h[mask, i] (exact: the table holds these very sums)."""
    out = [i]
    while mask != 1 << i:
        rest = mask ^ (1 << i)
        mask, i = rest, int(np.flatnonzero(c[i] + h[rest] == h[mask, i])[pick])
        out.append(i)
    return out


def best_templates(
    joins: list[Join],
    prefixes: list[tuple[str, str] | None],
    attrs: list[str] | None = None,
    *,
    zero_weight: float = 0.0,
) -> list[list[str]]:
    """The best template for each entry of ``prefixes``, all read from one
    Held–Karp table: ``h[mask, i]`` is the minimum cost of a path visiting
    exactly ``mask`` with one end at ``i`` (scores are symmetric, so start
    and end are interchangeable), filled one popcount layer at a time.

    ``None`` asks for the unconstrained optimum, walked back from its end
    (the highest index among equal-cost ends). ``(a, b)`` asks for the best
    template starting a → b, of cost C[a, b] + h[all − a, b]; any such
    template still yields a sound Theorem 4 bound, and starting at a join
    condition puts its per-value histogram into the K(1) stage. The
    tie-breaks are pinned by the UQ3 candidates in ``tests/test_split.py``.
    """
    attrs = attrs or joins[0].value_cols
    n = len(attrs)
    if n > 18:
        raise ValueError("template search supports up to 18 attributes")
    c = _score_matrix(joins, attrs, zero_weight)
    masks = np.arange(1 << n)
    size = sum((masks >> i) & 1 for i in range(n))
    h = np.full((1 << n, n), np.inf)
    h[1 << np.arange(n), np.arange(n)] = 0.0
    for s in range(2, n + 1):
        layer = masks[size == s]
        for i in range(n):
            m = layer[(layer & (1 << i)) > 0]
            h[m, i] = (c[i] + h[m ^ (1 << i)]).min(axis=1)  # j → i after a path ending at j
    full, out = (1 << n) - 1, []
    for prefix in prefixes:
        if prefix is None:
            end = int(np.flatnonzero(h[full] == h[full].min())[-1])
            order = _walk(h, c, full, end, -1)[::-1]
        else:
            a, b = attrs.index(prefix[0]), attrs.index(prefix[1])
            order = [a, *_walk(h, c, full ^ (1 << a), b, 0)]
        out.append([attrs[i] for i in order])
    return out


def best_template(
    joins: list[Join],
    attrs: list[str] | None = None,
    *,
    zero_weight: float = 0.0,
    fixed_prefix: tuple[str, str] | None = None,
) -> list[str]:
    """Minimum-total-score attribute ordering, optionally starting
    ``fixed_prefix`` (see :func:`best_templates`)."""
    return best_templates(joins, [fixed_prefix], attrs, zero_weight=zero_weight)[0]

