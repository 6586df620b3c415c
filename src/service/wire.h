// Length-prefixed binary protocol for opt_server / opt_client, over TCP
// or Unix-domain stream sockets.
//
// Frame layout (little-endian, via util/coding.h):
//   [u32 frame_length] [u8 message_type] [payload: frame_length-1 bytes]
//
// Requests: COUNT, LIST, STATS, LOADGRAPH, ADD_EDGES, REMOVE_EDGES,
// SUBSCRIBE_COUNT. Responses: one COUNT_RESULT / STATS_RESULT /
// LOADGRAPH_RESULT / MUTATE_RESULT / SUBSCRIBE_COUNT_RESULT / ERROR
// frame per request, except LIST, which streams zero or more LIST_BATCH
// frames (nested representation: u, v, k, w1..wk per record) terminated
// by LIST_END or ERROR. Errors carry the Status code + message across
// the wire.
//
// Every peer (client, server, router, shards) is built from this tree,
// so every field of a message is mandatory: a payload that ends early
// or carries bytes past its last field decodes to Corruption.
#ifndef OPT_SERVICE_WIRE_H_
#define OPT_SERVICE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/triangle.h"
#include "obs/flight_recorder.h"
#include "util/status.h"
#include "util/trace.h"

namespace opt {

enum class MessageType : uint8_t {
  // Requests.
  kCountRequest = 1,
  kListRequest = 2,
  kStatsRequest = 3,
  kLoadGraphRequest = 4,
  /// COUNT with the overlap profiler enabled; same payload shape as
  /// kCountRequest, answered with kProfileResult.
  kProfileRequest = 5,
  /// Streaming edge deltas: both share the MutateRequest payload shape
  /// and are answered with kMutateResult (or kError — the batch is all
  /// or nothing).
  kAddEdgesRequest = 6,
  kRemoveEdgesRequest = 7,
  /// Long-poll on the graph's epoch; answered with kSubscribeCountResult
  /// when the epoch advances past `after_epoch` or the timeout elapses.
  kSubscribeCountRequest = 8,
  /// Router-only: per-shard health/latency breakdown (empty payload).
  /// Plain opt_server answers kError(NotSupported).
  kShardStatsRequest = 9,
  /// Drains the process's bounded trace-span ring; answered with
  /// kTracePullResult. A router fans the pull out and concatenates its
  /// shards' sections after its own, so one pull at the front door
  /// collects the whole fleet.
  kTracePullRequest = 10,
  // Responses.
  kCountResult = 64,
  kListBatch = 65,
  kListEnd = 66,
  kStatsResult = 67,
  kLoadGraphResult = 68,
  kError = 69,
  kProfileResult = 70,
  kMutateResult = 71,
  kSubscribeCountResult = 72,
  kShardStatsResult = 73,
  kTracePullResult = 74,
};

struct WireMessage {
  MessageType type = MessageType::kError;
  std::string payload;
};

/// COUNT and LIST share one request shape.
struct QueryRequest {
  std::string graph;
  uint32_t memory_pages = 0;    // 0 = server default
  uint32_t num_threads = 0;     // 0 = server default
  uint64_t deadline_millis = 0; // 0 = none
  /// Distributed tracing: the request tree's id and the caller's span
  /// (both 0 = untraced).
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
};

struct CountResult {
  uint64_t triangles = 0;
  double seconds = 0;
  uint8_t source = 0;  // ResultSource
  uint64_t pool_hits = 0;
  uint64_t pages_read = 0;
  uint32_t iterations = 0;
  /// Sharded-router fields (zero from a plain opt_server). Bit i set
  /// means shard i failed and its contribution is missing from
  /// `triangles` — 0 is a complete answer. `num_shards` sizes the mask
  /// (0 = unsharded).
  uint64_t partial_shards = 0;
  uint32_t num_shards = 0;
};

struct LoadGraphRequest {
  std::string name;
  std::string base_path;
};

/// ADD_EDGES / REMOVE_EDGES: one batch of undirected edges. Validation
/// (self-loops, duplicates, presence, id range) happens server-side so
/// every client gets the same typed InvalidArgument rejections.
struct MutateRequest {
  std::string graph;
  std::vector<std::pair<VertexId, VertexId>> edges;
  /// Trace ids — see QueryRequest.
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
};

struct MutateResult {
  uint64_t epoch = 0;  // epoch the batch published under
  int64_t batch_triangle_delta = 0;
  int64_t total_triangle_delta = 0;  // residual overlay delta vs base
  uint64_t edges_applied = 0;
  double seconds = 0;
  uint8_t approx_valid = 0;  // sampling estimator enabled and untainted
  double approx_triangles = 0;
  /// Router fields: shards whose sub-batch did NOT commit (their edges
  /// are retryable verbatim — per-shard batches stay all-or-nothing).
  uint64_t partial_shards = 0;
  uint32_t num_shards = 0;
};

struct SubscribeCountRequest {
  std::string graph;
  /// Return immediately once the graph's epoch exceeds this (pass the
  /// last seen epoch; 0 returns the current state right away).
  uint64_t after_epoch = 0;
  /// Long-poll budget; the reply carries `timed_out` when it elapsed
  /// without an epoch advance.
  uint64_t timeout_millis = 0;
  /// Trace ids — see QueryRequest.
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
};

struct SubscribeCountResult {
  uint64_t epoch = 0;
  uint8_t timed_out = 0;
  /// Exact total (base + delta) is only known once a full COUNT has run
  /// against this incarnation of the store; `delta_triangles` and the
  /// edge counters are always exact.
  uint8_t exact_known = 0;
  uint64_t triangles = 0;
  int64_t delta_triangles = 0;
  uint64_t edges_added = 0;
  uint64_t edges_removed = 0;
  uint8_t approx_valid = 0;
  double approx_triangles = 0;
  /// Router fields: shards whose snapshot could not be fetched (their
  /// contribution is missing from the merged totals).
  uint64_t partial_shards = 0;
  uint32_t num_shards = 0;
};

/// STATS reply. `text` renders the stats as newline-separated key=value
/// lines (what opt_client prints and perfbench parses). The structured
/// fields carry the live metrics registry: per-query latency histogram
/// quantiles and counters (Δin/Δex page savings, pool fetch outcomes,
/// I/O totals).
struct StatsHistogram {
  std::string name;
  uint64_t count = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

struct StatsCounter {
  std::string name;
  uint64_t value = 0;
};

struct StatsResult {
  std::string text;
  std::vector<StatsHistogram> histograms;
  std::vector<StatsCounter> counters;
};

struct ErrorResult {
  uint32_t code = 0;  // StatusCode
  std::string message;
  /// Flight-recorder tail of the failed query — filled for degraded
  /// (Unavailable) queries so the response ships its own postmortem.
  std::vector<FlightEvent> events;
  /// The failed request's trace id (0 = untraced), so the terminal
  /// error, its flight-recorder postmortem, the [trace=...] log lines,
  /// and the assembled trace tree all correlate.
  uint64_t trace_id = 0;

  Status ToStatus() const {
    return Status(static_cast<StatusCode>(code), message);
  }
};

/// PROFILE reply: the run's answer plus the sampled overlap accounting
/// and fitted cost model (OverlapReport flattened for the wire).
struct ProfileResult {
  uint64_t triangles = 0;
  double seconds = 0;
  uint32_t iterations = 0;
  // Sampler accounting.
  uint64_t period_micros = 0;
  uint64_t samples = 0;
  uint64_t micro_overlap_samples = 0;
  uint64_t macro_overlap_samples = 0;
  uint64_t cpu_active_samples = 0;
  uint64_t io_inflight_samples = 0;
  uint64_t stalled_samples = 0;
  uint64_t morph_events = 0;
  std::vector<uint64_t> role_samples;  // indexed by ThreadRole
  double micro_overlap = 0;  // fractions of samples
  double macro_overlap = 0;
  // Cost model (§3.3): Cost(ideal) + c(Δex − Δin) vs measured.
  double cost_c_seconds_per_page = 0;
  uint64_t delta_in_pages = 0;
  uint64_t delta_ex_pages = 0;
  double cost_ideal_seconds = 0;
  double cost_predicted_seconds = 0;
  double cost_measured_seconds = 0;
  double cost_residual_seconds = 0;
};

/// One LIST_BATCH frame: nested-representation records.
struct ListBatch {
  struct Record {
    VertexId u = 0;
    VertexId v = 0;
    std::vector<VertexId> ws;
  };
  std::vector<Record> records;
};

struct ListEnd {
  uint64_t triangles = 0;
  double seconds = 0;
  /// Router fields: see CountResult.
  uint64_t partial_shards = 0;
  uint32_t num_shards = 0;
};

/// SHARD_STATS reply: one entry per shard with the router-side view —
/// address, liveness, vertex range, epoch, request/failure/retry totals,
/// and latency quantiles measured at the router (micros).
struct ShardStatsEntry {
  uint32_t id = 0;
  std::string address;  // host:port
  uint8_t healthy = 0;
  uint64_t pid = 0;  // 0 when attached to an externally managed process
  VertexId range_lo = 0;
  VertexId range_hi = 0;  // exclusive
  uint64_t epoch = 0;     // restart-monotonic virtual epoch
  uint64_t restarts = 0;
  uint64_t requests = 0;
  uint64_t failures = 0;
  uint64_t retries = 0;
  uint64_t ghost_triangles = 0;
  double latency_p50_micros = 0;
  double latency_p95_micros = 0;
  double latency_p99_micros = 0;
};

struct ShardStatsResult {
  std::string graph;
  std::vector<ShardStatsEntry> shards;
};

/// TRACE_PULL request: `drain` (the default) empties the ring so spans
/// are reported exactly once across repeated pulls; 0 peeks.
struct TracePullRequest {
  uint8_t drain = 1;
};

/// TRACE_PULL reply: one ProcessTrace section per process. A plain
/// opt_server sends exactly one (itself, or zero when tracing is off);
/// a router sends its own followed by every shard's, relabelled
/// "shard<i>", ready for AssembleTrace().
struct TracePullResult {
  std::vector<ProcessTrace> processes;
};

// ---- payload primitives ----
void PutU32(std::string* dst, uint32_t value);
void PutU64(std::string* dst, uint64_t value);
void PutDouble(std::string* dst, double value);
void PutString(std::string* dst, std::string_view value);

/// Cursor over a received payload; every Get fails with Corruption on
/// truncation instead of reading past the end.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : data_(payload) {}

  Status GetU8(uint8_t* value);
  Status GetU32(uint32_t* value);
  Status GetU64(uint64_t* value);
  Status GetDouble(double* value);
  Status GetString(std::string* value);
  /// Reads a u32 item count and fails with Corruption unless the rest
  /// of the payload could hold that many items of at least
  /// `min_bytes_per_item` bytes each, so a hostile count can never
  /// drive an allocation past the frame size.
  Status GetCount(size_t min_bytes_per_item, uint32_t* count);
  /// The last call of every decoder: Corruption unless the payload was
  /// consumed exactly.
  Status Finish() const;

 private:
  size_t remaining() const { return data_.size() - pos_; }

  std::string_view data_;
  size_t pos_ = 0;
};

// ---- message encode/decode ----
std::string EncodeQueryRequest(const QueryRequest& request);
Status DecodeQueryRequest(std::string_view payload, QueryRequest* out);

std::string EncodeCountResult(const CountResult& result);
Status DecodeCountResult(std::string_view payload, CountResult* out);

std::string EncodeLoadGraphRequest(const LoadGraphRequest& request);
Status DecodeLoadGraphRequest(std::string_view payload,
                              LoadGraphRequest* out);

std::string EncodeMutateRequest(const MutateRequest& request);
Status DecodeMutateRequest(std::string_view payload, MutateRequest* out);

std::string EncodeMutateResult(const MutateResult& result);
Status DecodeMutateResult(std::string_view payload, MutateResult* out);

std::string EncodeSubscribeCountRequest(const SubscribeCountRequest& request);
Status DecodeSubscribeCountRequest(std::string_view payload,
                                   SubscribeCountRequest* out);

std::string EncodeSubscribeCountResult(const SubscribeCountResult& result);
Status DecodeSubscribeCountResult(std::string_view payload,
                                  SubscribeCountResult* out);

/// Degraded queries pass their flight-recorder tail and every request
/// its trace id (0 = untraced).
std::string EncodeError(const Status& status,
                        const std::vector<FlightEvent>& events = {},
                        uint64_t trace_id = 0);
Status DecodeError(std::string_view payload, ErrorResult* out);

std::string EncodeProfileResult(const ProfileResult& result);
Status DecodeProfileResult(std::string_view payload, ProfileResult* out);

std::string EncodeListBatch(const ListBatch& batch);
Status DecodeListBatch(std::string_view payload, ListBatch* out);

std::string EncodeListEnd(const ListEnd& end);
Status DecodeListEnd(std::string_view payload, ListEnd* out);

std::string EncodeStatsResult(const StatsResult& stats);
Status DecodeStatsResult(std::string_view payload, StatsResult* out);

std::string EncodeShardStatsResult(const ShardStatsResult& stats);
Status DecodeShardStatsResult(std::string_view payload,
                              ShardStatsResult* out);

std::string EncodeTracePullRequest(const TracePullRequest& request);
Status DecodeTracePullRequest(std::string_view payload,
                              TracePullRequest* out);

std::string EncodeTracePullResult(const TracePullResult& result);
Status DecodeTracePullResult(std::string_view payload, TracePullResult* out);

// ---- framed socket I/O ----
/// Writes [len][type][payload] with a retry loop (EINTR, short writes).
/// A peer that hung up yields IOError, never SIGPIPE.
Status WriteMessage(int fd, MessageType type, std::string_view payload);

/// Answers a request with one kError frame. Degraded queries pass their
/// flight-recorder tail and the request's trace id (see EncodeError).
Status SendError(int fd, const Status& status,
                 const std::vector<FlightEvent>& events = {},
                 uint64_t trace_id = 0);

/// Reads one frame. NotFound signals clean EOF at a frame boundary
/// (peer closed); IOError/Corruption anything else. `max_payload`
/// bounds a hostile or corrupt length prefix.
Status ReadMessage(int fd, WireMessage* out,
                   size_t max_payload = 64u << 20);

}  // namespace opt

#endif  // OPT_SERVICE_WIRE_H_
