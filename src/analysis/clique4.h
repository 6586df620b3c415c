// 4-clique counting — the concrete "subgraph listing" extension the
// paper's conclusion points to as future work. Built on the same
// ordered edge-iterator machinery: a 4-clique {a<b<c<d} is found once,
// at its lowest edge (a, b), as an adjacent pair inside
// n_succ(a) ∩ n_succ(b).
#ifndef OPT_ANALYSIS_CLIQUE4_H_
#define OPT_ANALYSIS_CLIQUE4_H_

#include <cstdint>

#include "graph/csr_graph.h"

namespace opt {

/// Exact 4-clique count.
uint64_t Count4Cliques(const CSRGraph& g, uint32_t num_threads = 1);

}  // namespace opt

#endif  // OPT_ANALYSIS_CLIQUE4_H_
