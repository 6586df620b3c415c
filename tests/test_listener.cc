// Connection lifecycle of the three socket daemons — OptServer,
// QueryRouter and MetricsHttpServer — which all serve through one
// Listener (util/listener.h). Each test drives a daemon only through its
// public API and checks the listener contract from the outside:
//   - a connection's fd and thread are released when its handler
//     returns, so long-lived daemons stay flat (/proc/self/fd count,
//     Threads: and VmSize: return to baseline after a 10k-connection
//     soak);
//   - the fd is closed exactly once, also on a handler's error path;
//   - one idle client neither stalls other clients nor Stop();
//   - fd exhaustion pauses the accept loop instead of ending it.
// Client sockets carry 2 s send/receive timeouts, so a stalled daemon
// fails a test instead of hanging it.
#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <functional>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics_http.h"
#include "service/graph_registry.h"
#include "service/query_scheduler.h"
#include "service/server.h"
#include "service/wire.h"
#include "shard/router.h"
#include "shard/shard_set.h"
#include "storage/env.h"

namespace opt {
namespace {

constexpr int kSoakConnections = 10000;

/// Allowed VmSize growth across a soak. As concurrent handler threads
/// contend, glibc reserves up to 8 malloc arenas per online CPU at 64 MiB
/// of address space each; the thread-stack cache and allocator slack add
/// a little more. That bound does not scale with connections, while one
/// leaked 8 MiB thread stack per connection would add ~80 GB.
long VmSlackKb() {
  return (8L * ::sysconf(_SC_NPROCESSORS_ONLN) * 64 + 256) * 1024;
}

struct ProcessSnapshot {
  int fds = 0;
  int threads = 0;
  long vm_size_kb = 0;
};

int OpenFdCount() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int entries = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++entries;
  }
  ::closedir(dir);
  return entries - 1;  // the directory stream's own fd
}

ProcessSnapshot Snapshot() {
  ProcessSnapshot snapshot;
  {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      std::istringstream fields(line);
      std::string key;
      fields >> key;
      if (key == "Threads:") fields >> snapshot.threads;
      if (key == "VmSize:") fields >> snapshot.vm_size_kb;
    }
  }
  snapshot.fds = OpenFdCount();
  return snapshot;
}

std::string Describe(const ProcessSnapshot& snapshot) {
  return "fds=" + std::to_string(snapshot.fds) +
         " threads=" + std::to_string(snapshot.threads) +
         " vm_size_kb=" + std::to_string(snapshot.vm_size_kb);
}

/// Polls for up to 10 s until every thread but the caller is asleep in a
/// blocking call ('S' in /proc/self/task/<tid>/stat) at two polls in a
/// row: each thread a daemon started is then past its start-up code.
::testing::AssertionResult OtherThreadsAsleep() {
  const std::string self = std::to_string(::syscall(SYS_gettid));
  int quiet_polls = 0;
  for (int i = 0; i < 1000 && quiet_polls < 2; ++i) {
    bool all_asleep = true;
    DIR* dir = ::opendir("/proc/self/task");
    if (dir == nullptr) return ::testing::AssertionFailure() << "no /proc";
    while (const dirent* entry = ::readdir(dir)) {
      const std::string tid = entry->d_name;
      if (tid[0] == '.' || tid == self) continue;
      std::ifstream stat("/proc/self/task/" + tid + "/stat");
      std::string line;
      std::getline(stat, line);
      // The state letter follows the parenthesised thread name.
      const size_t name_end = line.rfind(')');
      if (name_end == std::string::npos || name_end + 2 >= line.size() ||
          line[name_end + 2] != 'S') {
        all_asleep = false;
      }
    }
    ::closedir(dir);
    quiet_polls = all_asleep ? quiet_polls + 1 : 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (quiet_polls >= 2) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "threads still starting after 10 s";
}

/// Polls for up to 10 s until fds and threads are back to `base` and
/// VmSize is within VmSlackKb() of it.
::testing::AssertionResult SettlesTo(const ProcessSnapshot& base) {
  ProcessSnapshot now;
  for (int i = 0; i < 200; ++i) {
    now = Snapshot();
    if (now.fds == base.fds && now.threads == base.threads &&
        now.vm_size_kb <= base.vm_size_kb + VmSlackKb()) {
      return ::testing::AssertionSuccess();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return ::testing::AssertionFailure()
         << "baseline " << Describe(base) << ", now " << Describe(now);
}

void SetTimeouts(int fd) {
  timeval timeout{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
}

/// Loopback connection with 2 s timeouts (connect honours SO_SNDTIMEO);
/// -1 on failure.
int Dial(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  SetTimeouts(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Hangs up with RST, so soaks leave no TIME_WAIT sockets behind.
void Abort(int fd) {
  const linger hard{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  ::close(fd);
}

/// One empty-payload request; true when the reply has type `expect`.
bool WireExchange(int fd, MessageType request, MessageType expect) {
  WireMessage reply;
  return WriteMessage(fd, request, std::string_view()).ok() &&
         ReadMessage(fd, &reply).ok() && reply.type == expect;
}

/// Opens kSoakConnections short-lived connections while one idle client
/// stays connected. Every 50th connection runs `exchange` (one
/// request/reply) and closes cleanly; the rest hang up at once. Stops at
/// the first failure.
::testing::AssertionResult Soak(uint16_t port,
                                const std::function<bool(int)>& exchange) {
  const int idle = Dial(port);
  if (idle < 0) return ::testing::AssertionFailure() << "idle dial failed";
  for (int i = 0; i < kSoakConnections; ++i) {
    const int fd = Dial(port);
    if (fd < 0) {
      ::close(idle);
      return ::testing::AssertionFailure() << "connection " << i
                                           << " failed to connect";
    }
    if (i % 50 == 0) {
      const bool ok = exchange(fd);
      ::close(fd);
      if (!ok) {
        ::close(idle);
        return ::testing::AssertionFailure() << "connection " << i
                                             << " got no reply";
      }
    } else {
      Abort(fd);
    }
  }
  ::close(idle);
  return ::testing::AssertionSuccess();
}

/// Stops a daemon on another thread while `idle` holds a connection;
/// true when Stop() returned within 5 s. Closing `idle` afterwards
/// releases a Stop() that is stuck on the idle handler.
bool StopsPromptly(int idle, const std::function<void()>& stop) {
  auto stopped = std::async(std::launch::async, stop);
  const bool prompt = stopped.wait_for(std::chrono::seconds(5)) ==
                      std::future_status::ready;
  ::close(idle);
  stopped.wait();
  return prompt;
}

/// An OptServer with no graphs, listening on an ephemeral TCP port.
struct ServerUnderTest {
  ServerUnderTest() : registry(Env::Default()), scheduler(&registry, {}),
                      server(&scheduler) {
    EXPECT_TRUE(server.ListenTcp(0).ok());
    EXPECT_TRUE(server.Start().ok());
  }
  GraphRegistry registry;
  QueryScheduler scheduler;
  OptServer server;
};

ShardManifest OneShardManifest() {
  ShardManifest manifest;
  manifest.graph = "g";
  manifest.num_vertices = 16;
  ShardInfo shard;
  shard.range_hi = 16;
  manifest.shards.push_back(shard);
  return manifest;
}

/// A router over one shard that is never attached: its endpoint is
/// 127.0.0.1:0, so every fan-out fails after the connect retries
/// (~50-100 ms of backoff) and the router answers with an error.
struct RouterUnderTest {
  static RouterOptions Options() {
    RouterOptions options;
    options.workers = 2;
    options.connect_retry.max_attempts = 2;
    options.connect_retry.backoff_base_micros = 100000;
    options.connect_retry.backoff_max_micros = 100000;
    return options;
  }
  RouterUnderTest() : shards(OneShardManifest()), router(&shards, Options()) {
    EXPECT_TRUE(router.ListenTcp(0).ok());
    EXPECT_TRUE(router.Start().ok());
  }
  ShardSet shards;
  QueryRouter router;
};

bool ServerStats(int fd) {
  return WireExchange(fd, MessageType::kStatsRequest,
                      MessageType::kStatsResult);
}

/// LOADGRAPH is answered at once with a typed NotSupported error.
bool RouterRefusesLoad(int fd) {
  return WireExchange(fd, MessageType::kLoadGraphRequest,
                      MessageType::kError);
}

/// GET /metrics; true when the reply starts with a 200 status line.
bool MetricsGet(int fd) {
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    return false;
  }
  char buffer[64];
  const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
  return n > 0 && std::string(buffer, static_cast<size_t>(n)).find("200") !=
                      std::string::npos;
}

void ExpectFlatAcrossSoak(uint16_t port,
                          const std::function<bool(int)>& exchange) {
  const ProcessSnapshot base = Snapshot();
  ASSERT_TRUE(Soak(port, exchange));
  EXPECT_TRUE(SettlesTo(base));
}

TEST(ListenerSoak, ServerReturnsToBaseline) {
  ServerUnderTest fixture;
  ExpectFlatAcrossSoak(fixture.server.bound_port(), ServerStats);
}

TEST(ListenerSoak, RouterReturnsToBaseline) {
  RouterUnderTest fixture;
  ExpectFlatAcrossSoak(fixture.router.bound_port(), RouterRefusesLoad);
}

TEST(ListenerSoak, MetricsReturnsToBaseline) {
  MetricsHttpServer metrics([] { return std::string("x 1\n"); });
  ASSERT_TRUE(metrics.Start(0).ok());
  ExpectFlatAcrossSoak(metrics.port(), MetricsGet);
}

TEST(ListenerContract, StopReturnsWhileAnIdleClientIsConnected) {
  {
    ServerUnderTest fixture;
    const int idle = Dial(fixture.server.bound_port());
    ASSERT_GE(idle, 0);
    ASSERT_TRUE(ServerStats(idle));  // its handler is now blocked in read
    EXPECT_TRUE(StopsPromptly(idle, [&] { fixture.server.Stop(); }))
        << "OptServer";
  }
  {
    RouterUnderTest fixture;
    const int idle = Dial(fixture.router.bound_port());
    ASSERT_GE(idle, 0);
    ASSERT_TRUE(RouterRefusesLoad(idle));
    EXPECT_TRUE(StopsPromptly(idle, [&] { fixture.router.Stop(); }))
        << "QueryRouter";
  }
  {
    MetricsHttpServer metrics([] { return std::string("x 1\n"); });
    ASSERT_TRUE(metrics.Start(0).ok());
    const int idle = Dial(metrics.port());
    ASSERT_GE(idle, 0);
    // Half a request head: the handler waits for the rest.
    const std::string partial = "GET /metrics HTTP/1.0\r\n";
    ASSERT_EQ(::send(idle, partial.data(), partial.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(partial.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_TRUE(StopsPromptly(idle, [&] { metrics.Stop(); }))
        << "MetricsHttpServer";
  }
}

TEST(ListenerContract, MetricsAnswersScrapesWhileAnIdleClientIsConnected) {
  MetricsHttpServer metrics([] { return std::string("x 1\n"); });
  ASSERT_TRUE(metrics.Start(0).ok());
  const int idle = Dial(metrics.port());
  ASSERT_GE(idle, 0);
  for (int i = 0; i < 20; ++i) {
    const int fd = Dial(metrics.port());
    const bool answered = fd >= 0 && MetricsGet(fd);
    if (fd >= 0) ::close(fd);
    if (!answered) {
      ADD_FAILURE() << "scrape " << i << " got no 200 reply";
      break;
    }
  }
  ::close(idle);
}

TEST(ListenerContract, RouterErrorPathClosesTheConnectionOnce) {
  RouterUnderTest fixture;
  const int base_fds = OpenFdCount();
  const int fd = Dial(fixture.router.bound_port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(RouterRefusesLoad(fd));  // a handler now serves `fd`
  QueryRequest request;
  request.graph = "g";
  ASSERT_TRUE(WriteMessage(fd, MessageType::kCountRequest,
                           EncodeQueryRequest(request))
                  .ok());
  // Hang up before the fan-out gives up: the router's error reply fails
  // to write, which ends the handler on its error path.
  Abort(fd);
  for (int i = 0; i < 200 && OpenFdCount() != base_fds; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ASSERT_EQ(OpenFdCount(), base_fds) << "router never closed the connection";

  // The router's fd number is free again and the next open() reuses it.
  // Stop() must not close that number a second time.
  std::vector<int> reused;
  for (int i = 0; i < 16; ++i) {
    reused.push_back(::open("/dev/null", O_RDONLY | O_CLOEXEC));
  }
  fixture.router.Stop();
  for (const int other : reused) {
    EXPECT_NE(::fcntl(other, F_GETFD), -1) << "fd " << other
                                           << " was closed by Stop()";
    ::close(other);
  }
}

TEST(ListenerContract, AcceptLoopOutlivesFdExhaustion) {
  ServerUnderTest fixture;
  const uint16_t port = fixture.server.bound_port();
  // While the limit is capped no thread can open a descriptor, and the
  // sanitizers need some: UBSan's vptr check probes memory through a
  // pipe and reports a false "invalid vptr" when it cannot make one. So
  // one exchange first runs the accept-and-serve path with descriptors
  // free (its checks are then cached), and every thread the fixture
  // started must be running before the cap. The warm-up connection
  // stays open, so no descriptor below the cap is freed during it.
  const int warm = Dial(port);
  ASSERT_GE(warm, 0);
  ASSERT_TRUE(ServerStats(warm));
  ASSERT_TRUE(OtherThreadsAsleep());
  // socket() takes the lowest free numbers, so capping the soft limit
  // just above `second` leaves no descriptor free. A blocked accept4
  // has already reserved one, though: `first` may be accepted into it,
  // and `second` then waits while the accept loop meets EMFILE.
  const int first = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  const int second = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(first, 0);
  ASSERT_GE(second, 0);
  SetTimeouts(second);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(second) + 1;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const auto* peer = reinterpret_cast<sockaddr*>(&addr);
  const int first_connected = ::connect(first, peer, sizeof(addr));
  const int second_connected = ::connect(second, peer, sizeof(addr));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));  // EMFILE
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_EQ(first_connected, 0);
  ASSERT_EQ(second_connected, 0);
  EXPECT_TRUE(ServerStats(second)) << "accept loop ended on EMFILE";
  ::close(second);
  ::close(first);
  ::close(warm);
}

}  // namespace
}  // namespace opt
