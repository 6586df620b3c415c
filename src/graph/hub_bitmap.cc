#include "graph/hub_bitmap.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace opt {

namespace {

/// The degree at the given percentile of the histogram (nearest-rank on
/// the sorted copy). Empty histogram → 0.
uint32_t DegreeAtPercentile(std::span<const uint32_t> degrees, double pct) {
  if (degrees.empty()) return 0;
  std::vector<uint32_t> sorted(degrees.begin(), degrees.end());
  const double clamped = std::min(100.0, std::max(0.0, pct));
  size_t rank = static_cast<size_t>(clamped / 100.0 *
                                    static_cast<double>(sorted.size() - 1));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  std::nth_element(sorted.begin(), sorted.begin() + rank, sorted.end());
  return sorted[rank];
}

}  // namespace

Result<HubSplitSpec> HubSplitSpec::Parse(const std::string& text) {
  HubSplitSpec spec;
  if (text == "off" || text == "none") {
    spec.mode = Mode::kOff;
    return spec;
  }
  if (text == "auto") {
    spec.mode = Mode::kAuto;
    return spec;
  }
  if (text.size() > 1 && text[0] == 'p') {
    char* end = nullptr;
    const double pct = std::strtod(text.c_str() + 1, &end);
    if (end != nullptr && *end == '\0' && pct > 0.0 && pct <= 100.0) {
      spec.mode = Mode::kPercentile;
      spec.percentile = pct;
      return spec;
    }
    return Status::InvalidArgument("bad hub_split percentile '" + text +
                                   "' (expected p1..p100, e.g. p99)");
  }
  if (!text.empty() &&
      std::all_of(text.begin(), text.end(),
                  [](unsigned char c) { return std::isdigit(c); })) {
    const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
    if (value < kNoHubThreshold) {
      spec.mode = Mode::kDegree;
      spec.degree = static_cast<uint32_t>(value);
      return spec;
    }
  }
  return Status::InvalidArgument(
      "bad hub_split '" + text +
      "' (expected off|auto|pNN|<degree threshold>)");
}

std::string HubSplitSpec::ToString() const {
  switch (mode) {
    case Mode::kOff:
      return "off";
    case Mode::kAuto:
      return "auto";
    case Mode::kPercentile: {
      std::string s = "p" + std::to_string(percentile);
      // Trim trailing zeros / dot from the double rendering (p99, p99.9).
      while (!s.empty() && s.back() == '0') s.pop_back();
      if (!s.empty() && s.back() == '.') s.pop_back();
      return s;
    }
    case Mode::kDegree:
      return std::to_string(degree);
  }
  return "?";
}

uint32_t ResolveHubDegreeThreshold(const HubSplitSpec& spec,
                                   std::span<const uint32_t> degrees,
                                   VertexId universe) {
  switch (spec.mode) {
    case HubSplitSpec::Mode::kOff:
      return kNoHubThreshold;
    case HubSplitSpec::Mode::kDegree:
      return spec.degree;
    case HubSplitSpec::Mode::kPercentile:
      return DegreeAtPercentile(degrees, spec.percentile);
    case HubSplitSpec::Mode::kAuto: {
      uint32_t threshold = DegreeAtPercentile(degrees, 99.0);
      threshold = std::max(threshold, universe / 64);
      threshold = std::max(threshold, 8u);
      return threshold;
    }
  }
  return kNoHubThreshold;
}

void HubBitmapIndex::Reset(VertexId universe, uint32_t degree_threshold) {
  universe_ = universe;
  degree_threshold_ = degree_threshold;
  slot_.assign(universe, -1);
  bitmaps_.clear();
}

void HubBitmapIndex::Add(VertexId v, std::span<const VertexId> full_adjacency) {
  if (v >= universe_) return;
  if (full_adjacency.size() < degree_threshold_) return;
  const int32_t existing = slot_[v];
  DenseBitmap* bitmap;
  if (existing >= 0) {
    bitmap = &bitmaps_[static_cast<size_t>(existing)];
    bitmap->Reset(universe_);
  } else {
    slot_[v] = static_cast<int32_t>(bitmaps_.size());
    bitmap = &bitmaps_.emplace_back(universe_);
  }
  bitmap->SetFrom(full_adjacency);
}

void HubBitmapIndex::Clear() {
  std::fill(slot_.begin(), slot_.end(), -1);
  bitmaps_.clear();
}

size_t HubBitmapIndex::memory_bytes() const {
  size_t total = slot_.capacity() * sizeof(int32_t);
  for (const DenseBitmap& b : bitmaps_) total += b.memory_bytes();
  return total;
}

HubBitmapIndex HubBitmapIndex::Build(const CSRGraph& graph,
                                     const HubSplitSpec& spec) {
  const VertexId n = graph.num_vertices();
  std::vector<uint32_t> degrees(n);
  for (VertexId v = 0; v < n; ++v) degrees[v] = graph.degree(v);
  HubBitmapIndex index(n, ResolveHubDegreeThreshold(spec, degrees, n));
  if (index.degree_threshold() == kNoHubThreshold) return index;
  for (VertexId v = 0; v < n; ++v) {
    if (degrees[v] >= index.degree_threshold()) {
      index.Add(v, graph.Neighbors(v));
    }
  }
  return index;
}

// ---------------------------------------------------------------------------
// Routed entry points.
// ---------------------------------------------------------------------------

namespace {

/// Narrows `probe` to the value range of the hub's span: bitmap
/// membership means "in the hub's FULL adjacency", so values outside
/// [hub_span.front(), hub_span.back()] must not be probed.
std::span<const VertexId> ClampToRange(std::span<const VertexId> probe,
                                       VertexId lo, VertexId hi) {
  const VertexId* first =
      std::lower_bound(probe.data(), probe.data() + probe.size(), lo);
  const VertexId* last =
      std::upper_bound(first, probe.data() + probe.size(), hi);
  return {first, last};
}

}  // namespace

uint64_t IntersectCount(VertexId va, VertexId vb, std::span<const VertexId> a,
                        std::span<const VertexId> b) {
  if (a.empty() || b.empty()) return 0;
  const IntersectKernel kernel = ActiveIntersectKernel();
  const HubBitmapIndex* index;
  if (IsBitmapKernel(kernel) && (index = CurrentHubBitmapIndex()) != nullptr) {
    const DenseBitmap* ba = index->Get(va);
    const DenseBitmap* bb = index->Get(vb);
    if (ba != nullptr && bb != nullptr) {
      return IntersectCountBitmapDenseWith(
          kernel, *ba, *bb, std::max(a.front(), b.front()),
          std::min(a.back(), b.back()));
    }
    if (ba != nullptr || bb != nullptr) {
      const DenseBitmap* dense = ba != nullptr ? ba : bb;
      const std::span<const VertexId> hub_span = ba != nullptr ? a : b;
      const std::span<const VertexId> probe = ba != nullptr ? b : a;
      return IntersectCountBitmapSparseWith(
          kernel, ClampToRange(probe, hub_span.front(), hub_span.back()),
          *dense);
    }
  }
  return IntersectCount(a, b);
}

size_t Intersect(VertexId va, VertexId vb, std::span<const VertexId> a,
                 std::span<const VertexId> b, std::vector<VertexId>* out) {
  if (a.empty() || b.empty()) return 0;
  const IntersectKernel kernel = ActiveIntersectKernel();
  const HubBitmapIndex* index;
  if (IsBitmapKernel(kernel) && (index = CurrentHubBitmapIndex()) != nullptr) {
    const DenseBitmap* ba = index->Get(va);
    const DenseBitmap* bb = index->Get(vb);
    if (ba != nullptr && bb != nullptr) {
      return IntersectBitmapDenseWith(kernel, *ba, *bb,
                                      std::max(a.front(), b.front()),
                                      std::min(a.back(), b.back()), out);
    }
    if (ba != nullptr || bb != nullptr) {
      const DenseBitmap* dense = ba != nullptr ? ba : bb;
      const std::span<const VertexId> hub_span = ba != nullptr ? a : b;
      const std::span<const VertexId> probe = ba != nullptr ? b : a;
      return IntersectBitmapSparseWith(
          kernel, ClampToRange(probe, hub_span.front(), hub_span.back()),
          *dense, out);
    }
  }
  return Intersect(a, b, out);
}

}  // namespace opt
