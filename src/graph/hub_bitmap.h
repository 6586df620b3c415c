// DODG-style hub routing for the bitmap intersection kernels. On skewed
// graphs a handful of hub vertices dominate intersected elements; this
// layer picks a degree split point from the degree histogram (the
// `--hub_split` knob), materializes a DenseBitmap of each hub's full
// adjacency, and routes hub–hub pairs to dense × dense AND+popcount and
// hub–tail pairs to sparse bit-probes, while the long tail keeps the
// merge/galloping kernels.
//
// Correctness invariant (why the clamping below is exact): every span
// the iterator models intersect — succ(v), prec(v), or any page-frame
// slice — is a *contiguous* slice of v's full sorted adjacency. So a
// span equals n(v) ∩ [span.front(), span.back()], and intersecting two
// spans equals intersecting the full adjacencies clamped to the overlap
// of their value ranges. The bitmap holds full n(v); the clamp
// re-creates the slice boundary.
#ifndef OPT_GRAPH_HUB_BITMAP_H_
#define OPT_GRAPH_HUB_BITMAP_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/intersect.h"
#include "util/status.h"

namespace opt {

/// Degree threshold meaning "no vertex is a hub" (the `off` split).
inline constexpr uint32_t kNoHubThreshold = 0xFFFFFFFFu;

/// The `--hub_split` knob: where the degree histogram is cut between
/// tail (merge kernels) and hub (bitmap kernels).
struct HubSplitSpec {
  enum class Mode : uint8_t {
    kOff,         // no hubs; bitmap kernels fall back to merge everywhere
    kAuto,        // percentile rule with a memory floor (see Resolve below)
    kPercentile,  // hubs = vertices at or above the pNN degree percentile
    kDegree,      // explicit threshold; 0 makes every vertex a hub
  };

  Mode mode = Mode::kAuto;
  double percentile = 0.0;  // kPercentile: 0 < percentile <= 100
  uint32_t degree = 0;      // kDegree: explicit degree threshold

  /// Parses "off" | "none" | "auto" | "pNN" (e.g. "p90", "p99.9") | a
  /// bare non-negative integer degree threshold.
  static Result<HubSplitSpec> Parse(const std::string& text);
  std::string ToString() const;
};

/// Turns a split spec into a concrete degree threshold for a graph with
/// the given full-degree histogram. The `auto` rule is
///   max(p99 degree, universe/64, 8):
/// p99 keeps the bitmap set small (~1% of vertices), universe/64 only
/// admits vertices whose adjacency has at least as many elements as the
/// bitmap has words (so a sparse probe touches no more memory than the
/// list it replaces), and the floor of 8 keeps trivial graphs on the
/// merge path. kOff returns kNoHubThreshold.
uint32_t ResolveHubDegreeThreshold(const HubSplitSpec& spec,
                                   std::span<const uint32_t> degrees,
                                   VertexId universe);

/// Per-hub bitmaps over the vertex id space. Built once per run (or per
/// iteration from the in-memory page view) and read-only while worker
/// threads intersect through it.
class HubBitmapIndex {
 public:
  HubBitmapIndex() = default;
  HubBitmapIndex(VertexId universe, uint32_t degree_threshold) {
    Reset(universe, degree_threshold);
  }

  /// Drops all bitmaps and re-dimensions for `universe` vertices.
  void Reset(VertexId universe, uint32_t degree_threshold);

  /// Materializes v's bitmap from its FULL sorted adjacency (not a
  /// slice). A no-op when the degree is below the threshold; replaces
  /// any bitmap v already has.
  void Add(VertexId v, std::span<const VertexId> full_adjacency);

  /// v's bitmap, or nullptr when v is not a (materialized) hub.
  const DenseBitmap* Get(VertexId v) const {
    if (v >= slot_.size()) return nullptr;
    const int32_t s = slot_[v];
    return s < 0 ? nullptr : &bitmaps_[static_cast<size_t>(s)];
  }

  /// Drops the bitmaps but keeps dimensions (per-iteration rebuild).
  void Clear();

  size_t num_hubs() const { return bitmaps_.size(); }
  uint32_t degree_threshold() const { return degree_threshold_; }
  VertexId universe() const { return universe_; }
  /// Heap bytes: bitmap words plus the per-vertex slot table.
  size_t memory_bytes() const;

  /// Builds the index for an in-memory graph: resolves the split against
  /// the graph's degree histogram, then materializes every hub.
  static HubBitmapIndex Build(const CSRGraph& graph, const HubSplitSpec& spec);

 private:
  VertexId universe_ = 0;
  uint32_t degree_threshold_ = kNoHubThreshold;
  std::vector<int32_t> slot_;  // per-vertex index into bitmaps_, -1 = tail
  std::vector<DenseBitmap> bitmaps_;
};

// ---------------------------------------------------------------------------
// Routed entry points. `a` / `b` must be contiguous slices of va's / vb's
// full sorted adjacency (see the header comment). When this thread's
// IntersectScope (intersect.h) holds a bitmap kernel and a hub index,
// hub pairs take the bitmap path; otherwise these behave exactly like
// the span-only Intersect / IntersectCount (adaptive merge/galloping).
// Results are identical either way on duplicate-free inputs.
// ---------------------------------------------------------------------------

size_t Intersect(VertexId va, VertexId vb, std::span<const VertexId> a,
                 std::span<const VertexId> b, std::vector<VertexId>* out);
uint64_t IntersectCount(VertexId va, VertexId vb, std::span<const VertexId> a,
                        std::span<const VertexId> b);

}  // namespace opt

#endif  // OPT_GRAPH_HUB_BITMAP_H_
