// Decoding of a GraphStore's records, in one place: RecordDecoder
// reassembles the adjacency lists that span pages from their segment
// chains and validates every record before any reader sees it. The
// internal area (SuccessorIndex), OptRunner's loaded external chunks and
// ScanRecords — the synchronous full scan behind the scan-based
// baselines (MGT, Chu–Cheng, GraphChi-Tri), the streaming delta path and
// the tools — all read records through it.
#ifndef OPT_STORAGE_RECORD_SCANNER_H_
#define OPT_STORAGE_RECORD_SCANNER_H_

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "storage/graph_store.h"
#include "storage/page.h"
#include "util/status.h"

namespace opt {

/// A decoded adjacency list: the full sorted n(v) plus the boundary
/// between n_prec(v) and n_succ(v).
struct AdjacencyRef {
  std::span<const VertexId> all;
  uint32_t succ_begin = 0;  // index of the first neighbor with id > v

  std::span<const VertexId> succ() const { return all.subspan(succ_begin); }
  std::span<const VertexId> prec() const { return all.first(succ_begin); }
};

/// Decodes the records of consecutive page images, fed one page at a
/// time in page order. Segments before the first record's first segment
/// (the tail of a record begun before the fed pages) are skipped, and a
/// record still open when feeding stops is never handed out. Everything
/// else must form valid records: Feed returns Corruption, naming the page
/// and vertex, when
///  - a record's vertex is ≥ |V| or not above the previous record's;
///  - a segment does not continue the open record at its offset, or a
///    record holds more or fewer ids than its total degree;
///  - an id is ≥ |V|, equals the vertex, or does not strictly increase.
/// A decoder built with a `wanted` list reassembles, checks and hands out
/// only those records; the segments of the others get the first two
/// checks and are skipped.
class RecordDecoder {
 public:
  explicit RecordDecoder(const GraphStore& store)
      : num_vertices_(store.num_vertices()), page_size_(store.page_size()) {}
  /// `wanted` is sorted ascending and must outlive the decoder.
  RecordDecoder(const GraphStore& store, std::span<const VertexId> wanted)
      : RecordDecoder(store) {
    filter_ = true;
    wanted_ = wanted;
  }

  /// Decodes the page image `data` of page `pid`, the page after the one
  /// fed last, calling `on_record(v, adj)` — which returns a Status — for
  /// each record the page completes. `adj` is valid during the call only.
  /// A non-OK status from `on_record` stops decoding and is returned.
  template <typename OnRecord>
  Status Feed(const char* data, uint32_t pid, OnRecord&& on_record) {
    const PageView page(data, page_size_);
    const uint32_t slots = page.num_slots();
    for (uint32_t s = 0; s < slots; ++s) {
      AdjacencyRef adj;
      bool complete = false;
      OPT_RETURN_IF_ERROR(Take(page.GetSegment(s), pid, &adj, &complete));
      if (complete) OPT_RETURN_IF_ERROR(on_record(vertex_, adj));
    }
    return Status::OK();
  }

 private:
  /// Adds one segment to the chain. Sets `*complete` and `*adj` when the
  /// segment ends a valid record.
  Status Take(const Segment& seg, uint32_t pid, AdjacencyRef* adj,
              bool* complete);
  /// Validates the ids of vertex_'s whole record.
  Status Check(uint32_t pid, std::span<const VertexId> all,
               AdjacencyRef* adj) const;
  Status Corrupt(uint32_t pid, VertexId v, const std::string& what) const;
  /// Whether v's record is to be handed out. Called in ascending v.
  bool Wanted(VertexId v);

  const VertexId num_vertices_;
  const uint32_t page_size_;
  bool filter_ = false;  // hand out only the records in wanted_
  std::span<const VertexId> wanted_;
  bool started_ = false;  // a record's first segment has been seen
  bool open_ = false;     // vertex_'s record has segments still to come
  bool skip_ = false;     // vertex_'s record is not wanted
  VertexId vertex_ = 0;   // the vertex of the latest record begun
  uint32_t degree_ = 0;   // its total degree
  uint32_t consumed_ = 0;          // its ids seen so far
  std::vector<VertexId> pending_;  // those ids, while open and wanted
};

/// Calls `fn(vertex, adj)` for every record in id order, reading pages
/// [first_pid, last_pid] (inclusive; pass 0, num_pages-1 for all) with
/// synchronous reads and decoding them with a RecordDecoder. Records
/// whose first segment lies outside the range are skipped; records whose
/// chain continues past last_pid are skipped too. `pages_read`
/// (optional) accumulates the number of page reads issued.
Status ScanRecords(
    const GraphStore& store, uint32_t first_pid, uint32_t last_pid,
    const std::function<void(VertexId, const AdjacencyRef&)>& fn,
    uint64_t* pages_read = nullptr, bool validate_pages = true);

/// Point lookup: reads n(v) into `*out` (sorted, possibly empty) by
/// scanning the page run [FirstPageOfVertex(v), LastPageOfVertex(v)].
/// Costs O(pages of v) synchronous reads — the streaming delta path
/// uses this to intersect endpoint neighborhoods per applied edge.
Status ReadAdjacency(const GraphStore& store, VertexId v,
                     std::vector<VertexId>* out,
                     uint64_t* pages_read = nullptr);

}  // namespace opt

#endif  // OPT_STORAGE_RECORD_SCANNER_H_
