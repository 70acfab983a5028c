"""Core algorithms of the union-of-joins sampling framework.

Modules
-------
join_spec        join descriptions (chain / acyclic trees), composition helpers
stats            degree histograms and max-degree statistics (DataFrame aggs)
olken            extended Olken join-size upper bound + Yannakakis reduction
weights          Exact-Weight (EW) dynamic program of Zhao et al.
walker           walk plans (driver-side join indexes) and batched random walks
join_sampler     i.i.d. uniform sampling from a single join (EW / EO)
membership       tuple-in-join membership: exact index + semijoin reference
koverlap         Theorem 3 k-overlaps, Eq. 1 union size, cover sizes
exact            FullJoinUnion ground truth (sizes, overlaps, covers)
histogram_union  HISTOGRAM-BASED warm-up (Theorem 4)
randomwalk_union RANDOM-WALK warm-up (wander-join HT estimates + probes)
union_sampler    Algorithm 1 union sampling (+ Bernoulli and lazy variants)
online_union     Algorithm 2 online union sampling (reuse + backtracking)
cyclic           skeleton / residual decomposition for cyclic joins
"""
