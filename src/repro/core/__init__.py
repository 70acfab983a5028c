"""Core algorithms of the union-of-joins sampling framework.

Modules
-------
join_spec        join descriptions (chain / acyclic trees), composition helpers
stats            degree histograms and max-degree statistics
walker           walk plans (Yannakakis reduction, EW weights, max degrees)
                 and batched random walks
join_sampler     i.i.d. uniform sampling from a single join (EW / EO), and
                 the extended Olken bound
membership       tuple-in-join membership: exact index over the relations
koverlap         Theorem 3 k-overlaps, Eq. 1 union size, cover sizes
exact            FullJoinUnion ground truth (sizes, overlaps, covers)
histogram_union  HISTOGRAM-BASED warm-up (Theorem 4)
randomwalk_union RANDOM-WALK warm-up (wander-join HT estimates + probes)
union_sampler    Algorithm 1 union sampling (+ Bernoulli and lazy variants)
online_union     Algorithm 2 online union sampling (reuse + backtracking)
cyclic           skeleton / residual decomposition for cyclic joins
"""
