"""Clique counting on Erdos-Renyi hypergraphs and a worst-case to
average-case counting reduction, runnable end to end at desk scale."""

from .cliques import (CutoffExceeded, SparsityProfile, brute_force_count,
                      brute_force_count_kpartite, expected_clique_count,
                      greedy_random_sampling, it_gen_cliques,
                      matrix_mult_count, parity_count, required_iterations)
from .expansion import (ExpansionSpec, exact_distribution, required_t_mod_2,
                        required_t_mod_p, tv_to_uniform)
from .fields import (DecodeFailure, ExtFieldCtx, PrimeFieldCtx, ResidueVector,
                     berlekamp_welch_decode, crt_combine, find_normal_basis,
                     select_primes)
from .hypergraph import (EdgeIndex, Hypergraph, KPartiteHypergraph,
                         blow_up_k_partite, common_neighbors, read_hypergraph,
                         sample_er, sample_er_kpartite, write_hypergraph)
from .polynomial import (WeightedKPartiteInput, eval_clique_poly,
                         ext_to_base_reduce, random_self_reduce,
                         weighted_to_unweighted_batch)
from .reduction import (AverageCaseOracle, ParityReport, ReductionParams,
                        ReductionReport, SlowdownParams, compute_slowdowns,
                        decide_via_parity, kpartite_to_general_count,
                        kpartite_to_general_parity, to_er_count, to_er_parity)

__version__ = "0.1.0"
