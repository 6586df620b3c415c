// Slotted-page codec for the on-disk graph representation (paper §3.2:
// "OPT uses the slotted page structure which is widely used in database
// systems"). Each page stores a sequence of adjacency-list *segments*;
// an adjacency list larger than one page spans consecutive pages as a
// chain of segments.
//
// Page layout (all integers little-endian u32):
//   [0]  magic
//   [4]  page id
//   [8]  number of slots
//   [12] flags (bit 0: first segment continues a record from the
//        previous page)
//   [16] CRC-32C over the whole page with this field zeroed
//   [20.. ] segment data, densely packed
//   [end-4*num_slots .. end) slot directory: byte offset of each segment
//
// Segment layout:
//   vertex id | total degree | segment offset | segment count |
//   neighbors (segment count * u32, sorted ascending)
#ifndef OPT_STORAGE_PAGE_H_
#define OPT_STORAGE_PAGE_H_

#include <cstdint>
#include <span>

#include "graph/csr_graph.h"
#include "util/status.h"

namespace opt {

inline constexpr uint32_t kPageMagic = 0x4F505450u;  // "OPTP"
inline constexpr uint32_t kPageHeaderSize = 20;
inline constexpr uint32_t kSegmentHeaderSize = 16;
inline constexpr uint32_t kSlotSize = 4;
inline constexpr uint32_t kMinPageSize = 64;
inline constexpr uint32_t kDefaultPageSize = 4096;

/// One adjacency-list segment as read from a page.
struct Segment {
  VertexId vertex = kInvalidVertex;
  uint32_t total_degree = 0;  // full |n(vertex)| across all segments
  uint32_t offset = 0;        // index of neighbors[0] within the full list
  std::span<const VertexId> neighbors;

  bool IsFirstSegment() const { return offset == 0; }
  bool IsLastSegment() const {
    return offset + neighbors.size() == total_degree;
  }
};

/// Incrementally fills one page buffer. The caller owns the buffer
/// (page_size bytes).
class PageBuilder {
 public:
  PageBuilder(char* buffer, uint32_t page_size, uint32_t page_id);

  /// Bytes still available for one more segment's header + neighbors.
  uint32_t FreeNeighborCapacity() const;

  /// Appends a segment. Neighbor span must fit (see FreeNeighborCapacity).
  void AddSegment(VertexId vertex, uint32_t total_degree, uint32_t offset,
                  std::span<const VertexId> neighbors);

  uint32_t num_slots() const { return num_slots_; }

  /// Finalizes header + CRC. The buffer is then a valid page image.
  void Finish();

 private:
  char* buffer_;
  uint32_t page_size_;
  uint32_t page_id_;
  uint32_t num_slots_ = 0;
  uint32_t data_end_;  // next free byte for segment data
  bool continues_ = false;
};

/// Read-only view over a page image. Validates magic, CRC and layout on
/// demand.
class PageView {
 public:
  PageView(const char* data, uint32_t page_size)
      : data_(data), page_size_(page_size) {}

  /// Checks magic, page id and CRC, and that every segment lies between
  /// the header and the slot directory. Call once after a page is read.
  Status Validate(uint32_t expected_page_id) const;

  uint32_t page_id() const;
  uint32_t num_slots() const;
  /// True if the first segment continues an adjacency list begun on the
  /// previous page.
  bool first_segment_is_continuation() const;

  /// Returns the i-th segment. No bounds check beyond assert.
  Segment GetSegment(uint32_t i) const;

 private:
  const char* data_;
  uint32_t page_size_;
};

/// Computes the page CRC over a finished page image (crc field zeroed).
uint32_t ComputePageCrc(const char* data, uint32_t page_size);

}  // namespace opt

#endif  // OPT_STORAGE_PAGE_H_
