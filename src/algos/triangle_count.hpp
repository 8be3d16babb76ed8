// Triangle counting via masked-SpGEMM — the paper's benchmark workload
// (§IV-A: "C = A ⊙ (A x A), the main kernel used in triangle counting").
// Three standard linear-algebraic formulations are provided; all use the
// PLUS_PAIR semiring so only the adjacency pattern matters.
//
//   kBurkhardt — sum(A ⊙ (A·A)) / 6 : full adjacency both sides; counts
//                each triangle six times. This is exactly the kernel shape
//                every tilq benchmark runs.
//   kCohen     — sum(L ⊙ (L·U)) / 2 : lower x upper, halves the redundancy.
//   kSandia    — sum(L ⊙ (L·L))     : lower triangle only; each triangle
//                counted exactly once, the cheapest variant.
#pragma once

#include <cstdint>

#include "core/config.hpp"
#include "core/plan.hpp"
#include "core/semiring.hpp"
#include "sparse/csr.hpp"

namespace tilq {

enum class TriangleMethod { kBurkhardt, kCohen, kSandia };

[[nodiscard]] const char* to_string(TriangleMethod method) noexcept;

/// Plan cache for the PLUS_PAIR support kernel shared by triangle counting
/// and k-truss. One cache amortizes tiling and accumulator workspaces
/// across repeated calls: identical sparsity reuses the plan outright, and
/// even after a structure change (k-truss's shrinking iterates) the pooled
/// accumulators survive the replan.
using TrianglePlanCache = PlanCache<PlusPair<std::int64_t>>;

/// Counts triangles in the undirected graph with symmetric adjacency matrix
/// `adj` (values ignored; self-loops must already be removed). `config`
/// selects the masked-SpGEMM implementation.
std::int64_t count_triangles(const Csr<double, std::int64_t>& adj,
                             TriangleMethod method = TriangleMethod::kSandia,
                             const Config& config = {});

/// As above, running the masked product through `cache` so repeated counts
/// (same graph, or a sequence of related graphs) reuse plans and pooled
/// accumulator workspaces.
std::int64_t count_triangles(const Csr<double, std::int64_t>& adj,
                             TriangleMethod method, const Config& config,
                             TrianglePlanCache& cache);

/// Per-edge triangle support: support[e] = number of triangles containing
/// edge e, laid out in the same order as adj's entries. Computed as
/// A ⊙ (A·A) with PLUS_PAIR. The building block for k-truss.
Csr<std::int64_t, std::int64_t> edge_support(
    const Csr<double, std::int64_t>& adj, const Config& config = {});

/// As above, through `cache` (the k-truss inner loop calls this every
/// iteration; the cache keeps accumulator workspaces warm across them).
Csr<std::int64_t, std::int64_t> edge_support(
    const Csr<double, std::int64_t>& adj, const Config& config,
    TrianglePlanCache& cache);

}  // namespace tilq
