// Shared helpers for the test suite.
#ifndef OPT_TESTS_TEST_HELPERS_H_
#define OPT_TESTS_TEST_HELPERS_H_

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <memory>
#include <string>

#include "baselines/inmemory.h"
#include "core/triangle_sink.h"
#include "graph/csr_graph.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/graph_store.h"

namespace opt {
namespace testutil {

/// A per-process scratch directory under the gtest temp dir. ctest -j
/// runs every test case in its own process, so paths derived only from
/// a tag or a static counter collide across concurrently running cases;
/// anything materialized on disk must live under a pid-unique root.
inline const std::string& ProcessTempDir() {
  static const std::string dir = [] {
    std::string d =
        testing::TempDir() + "/opt_p" + std::to_string(::getpid());
    ::mkdir(d.c_str(), 0755);
    return d;
  }();
  return dir;
}

/// Creates a GraphStore for `g` under a unique temp base path and
/// returns that path (the service registry opens stores by path).
inline std::string CreateStore(const CSRGraph& g, Env* env,
                               const std::string& tag,
                               uint32_t page_size = 256) {
  static std::atomic<int> counter{0};
  const std::string base = ProcessTempDir() + "/store_" + tag + "_" +
                           std::to_string(counter.fetch_add(1));
  GraphStoreOptions options;
  options.page_size = page_size;
  Status s = GraphStore::Create(g, env, base, options);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return base;
}

/// Opens the store at `base` through `env`. Aborts the test on failure.
inline std::unique_ptr<GraphStore> OpenStore(Env* env,
                                             const std::string& base) {
  auto store = GraphStore::Open(env, base);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store.value());
}

/// Creates a GraphStore for `g` under a unique temp base path and opens
/// it. Aborts the test on failure.
inline std::unique_ptr<GraphStore> MakeStore(const CSRGraph& g, Env* env,
                                             const std::string& tag,
                                             uint32_t page_size = 256) {
  return OpenStore(env, CreateStore(g, env, tag, page_size));
}

/// A plan under which every read fails and never heals: a dead device,
/// switched on and off with FaultInjectingEnv::set_enabled().
inline FaultPlan EveryReadFails() {
  FaultPlan plan;
  plan.read_error_p = 1;
  plan.transient = 0;
  return plan;
}

/// A plan under which the page-file reads of a store succeed `n` times
/// and then all fail. Metadata reads neither fail nor count, so a store
/// opened through the env still has `n` good page reads left.
inline FaultPlan FailPageReadsAfter(int64_t n) {
  FaultPlan plan;
  plan.fail_reads_after = n;
  plan.path_filter = ".pages";
  return plan;
}

/// Minimal JSON syntax checker (objects, arrays, strings, numbers,
/// true/false/null) — enough to prove trace files parse. Shared by the
/// observability and shard suites, which both assert Perfetto output.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek() == '}') { ++pos_; return true; }
    for (;;) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (Peek() != ':') return false;
      ++pos_;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') { ++pos_; return true; }
    for (;;) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* word) {
    const size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

/// Reference triangle list via the in-memory edge iterator.
inline std::vector<Triangle> OracleTriangles(const CSRGraph& g) {
  VectorSink sink;
  EdgeIteratorInMemory(g, &sink);
  return sink.Sorted();
}

inline uint64_t OracleCount(const CSRGraph& g) {
  CountingSink sink;
  EdgeIteratorInMemory(g, &sink);
  return sink.count();
}

}  // namespace testutil
}  // namespace opt

#endif  // OPT_TESTS_TEST_HELPERS_H_
