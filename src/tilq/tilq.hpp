// Umbrella header: the whole tilq public API.
//
//   #include "tilq/tilq.hpp"
//
//   auto graph = tilq::make_collection_graph("GAP-road");
//   tilq::Config config;                       // the paper's 3 dimensions
//   config.strategy = tilq::MaskStrategy::kHybrid;
//   auto c = tilq::masked_spgemm<tilq::PlusPair<std::int64_t>>(
//       mask, a, b, config);
//
// See README.md for the guided tour and DESIGN.md for the architecture.
#pragma once

// Support substrate.
#include "support/common.hpp"
#include "support/env.hpp"
#include "support/errors.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/panic.hpp"
#include "support/parallel.hpp"
#include "support/perf.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

// Sparse matrix substrate.
#include "sparse/build.hpp"
#include "sparse/coo.hpp"
#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/ops.hpp"
#include "sparse/reorder.hpp"
#include "sparse/serialize.hpp"
#include "sparse/stats.hpp"
#include "sparse/validate.hpp"
#include "sparse/vector.hpp"

// Graph generators and the synthetic collection.
#include "gen/circuit.hpp"
#include "gen/collection.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "gen/road_network.hpp"
#include "gen/watts_strogatz.hpp"
#include "gen/web_graph.hpp"

// Accumulators.
#include "accum/accumulator.hpp"
#include "accum/dense_accumulator.hpp"
#include "accum/hash_accumulator.hpp"
#include "accum/workspace_pool.hpp"

// Core masked-SpGEMM.
#include "core/column_spgemm.hpp"
#include "core/config.hpp"
#include "core/engine.hpp"
#include "core/kernels.hpp"
#include "core/masked_spgemm.hpp"
#include "core/plan.hpp"
#include "core/model.hpp"
#include "core/semiring.hpp"
#include "core/spgemm.hpp"
#include "core/spmv.hpp"
#include "core/tiling.hpp"
#include "core/tuner.hpp"
#include "core/work_estimate.hpp"

// GraphBLAS-flavoured facade.
#include "grb/grb.hpp"

// Baseline policies.
#include "baselines/baselines.hpp"

// Graph algorithms.
#include "algos/betweenness.hpp"
#include "algos/bfs.hpp"
#include "algos/bfs_la.hpp"
#include "algos/components.hpp"
#include "algos/kcore.hpp"
#include "algos/ktruss.hpp"
#include "algos/pagerank.hpp"
#include "algos/triangle_count.hpp"
