// Black-box protocol test for the p2pd experiment-serving daemon.
//
// Each test forks the real daemon binary ($P2PD_BIN, injected by ctest)
// with a fresh result-cache directory, drives it through an actual
// AF_UNIX socket, and asserts on the bytes that come back — the same
// surface a production client sees. Covers: byte-identity of served
// results with the batch path, exactly-once cache fill under duplicate
// concurrent requests, structured errors for malformed/oversized/
// truncated input, and crash isolation (an injected worker crash answers
// one seed with an error and leaves the daemon serving). The line-limit
// boundary cases drive the same read loop (serve::run_session) in-process
// over a socketpair, with a limit small enough to hit exactly.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "scenario/experiment.hpp"
#include "scenario/parameters.hpp"
#include "scenario/telemetry.hpp"
#include "serve/metrics.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"

namespace {

using namespace p2p;

// Small scenario so every test seed simulates in well under a second.
const char* kTinyConfig =
    "{\"num_nodes\":20,\"duration_s\":120,\"overlay_sample_interval_s\":50}";

scenario::Parameters tiny_params(std::uint64_t seed) {
  scenario::Parameters p;
  p.num_nodes = 20;
  p.duration_s = 120.0;
  p.overlay_sample_interval_s = 50.0;
  p.seed = seed;
  return p;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read exactly `count` newline-terminated lines (without newlines).
std::vector<std::string> read_lines(int fd, std::size_t count) {
  std::vector<std::string> lines;
  std::string buffer;
  char chunk[4096];
  while (lines.size() < count) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or timeout — return what we have
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0, nl;
    while (lines.size() < count &&
           (nl = buffer.find('\n', start)) != std::string::npos) {
      lines.push_back(buffer.substr(start, nl - start));
      start = nl + 1;
    }
    buffer.erase(0, start);
  }
  return lines;
}

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* bin = std::getenv("P2PD_BIN");
    ASSERT_NE(bin, nullptr) << "P2PD_BIN not set (run via ctest)";
    bin_ = bin;

    char tmpl[] = "/tmp/p2pd_cache_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    cache_dir_ = tmpl;
    // Keep the socket path short: sun_path caps out around 107 bytes.
    socket_path_ = cache_dir_ + "/s";

    daemon_pid_ = ::fork();
    ASSERT_GE(daemon_pid_, 0);
    if (daemon_pid_ == 0) {
      ::setenv("P2P_BENCH_CACHE", (cache_dir_ + "/cache").c_str(), 1);
      ::execl(bin_.c_str(), "p2pd", "--socket", socket_path_.c_str(),
              "--workers", "1", nullptr);
      _exit(127);  // exec failed
    }
  }

  void TearDown() override {
    if (daemon_pid_ > 0) {
      // The daemon must still be alive at the end of every test — a crash
      // mid-test would otherwise just look like connection errors.
      EXPECT_EQ(::waitpid(daemon_pid_, nullptr, WNOHANG), 0)
          << "daemon died during the test";
      ::kill(daemon_pid_, SIGKILL);
      ::waitpid(daemon_pid_, nullptr, 0);
    }
    std::error_code ec;
    std::filesystem::remove_all(cache_dir_, ec);
  }

  /// Connect, retrying while the daemon starts up. Returns fd >= 0.
  int connect_daemon() {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path_.c_str(),
                socket_path_.size() + 1);
    for (int attempt = 0; attempt < 200; ++attempt) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) return -1;
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0) {
        timeval tv{60, 0};  // a stuck daemon fails the test, not ctest
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        return fd;
      }
      ::close(fd);
      ::usleep(50 * 1000);
    }
    return -1;
  }

  /// One request on a fresh connection; expect `expect` response lines.
  std::vector<std::string> request(const std::string& line,
                                   std::size_t expect) {
    const int fd = connect_daemon();
    EXPECT_GE(fd, 0) << "cannot connect to daemon";
    if (fd < 0) return {};
    EXPECT_TRUE(send_all(fd, line + "\n"));
    auto lines = read_lines(fd, expect);
    ::close(fd);
    return lines;
  }

  /// Counter value out of a STATS response line (-1 when absent).
  static long long stat_value(const std::string& stats_line,
                              const std::string& name) {
    const std::string needle = "\"" + name + "\":";
    const auto pos = stats_line.find(needle);
    if (pos == std::string::npos) return -1;
    return std::atoll(stats_line.c_str() + pos + needle.size());
  }

  std::string bin_;
  std::string cache_dir_;
  std::string socket_path_;
  pid_t daemon_pid_ = -1;
};

TEST_F(DaemonTest, ServedResultMatchesBatchByteForByte) {
  const std::string req =
      std::string("{\"config\":") + kTinyConfig + ",\"seeds\":[3,4]}";
  const auto lines = request(req, 3);
  ASSERT_EQ(lines.size(), 3U);
  EXPECT_EQ(lines[2],
            "{\"type\":\"done\",\"requested\":2,\"served\":2,\"errors\":0}");

  // Batch path: the same (config, seed) through run_experiment, one seed
  // per experiment (the daemon's unit), serialized with timing off. The
  // served line must be these exact bytes.
  const std::uint64_t seeds[] = {3, 4};
  for (std::size_t i = 0; i < 2; ++i) {
    scenario::RunTelemetry telemetry;
    scenario::run_experiment(tiny_params(seeds[i]), 1, 1, {}, &telemetry);
    ASSERT_EQ(telemetry.per_seed().size(), 1U);
    EXPECT_EQ(lines[i], scenario::seed_line_json(telemetry.per_seed()[0],
                                                 /*include_timing=*/false))
        << "seed " << seeds[i];
  }

  // Replay from cache: still the same bytes.
  const auto replay = request(req, 3);
  ASSERT_EQ(replay.size(), 3U);
  EXPECT_EQ(replay[0], lines[0]);
  EXPECT_EQ(replay[1], lines[1]);
}

TEST_F(DaemonTest, DuplicateConcurrentRequestsFillCacheOnce) {
  const std::string req =
      std::string("{\"config\":") + kTinyConfig + ",\"seeds\":[9]}";

  // Two clients race the same (config, seed). Whatever the interleaving —
  // in-flight join, disk hit, or fully serialized — the miss that computes
  // must happen exactly once.
  std::vector<std::string> a, b;
  std::thread ta([&] { a = request(req, 2); });
  std::thread tb([&] { b = request(req, 2); });
  ta.join();
  tb.join();
  ASSERT_EQ(a.size(), 2U);
  ASSERT_EQ(b.size(), 2U);
  EXPECT_EQ(a[0], b[0]) << "duplicate requests served different bytes";

  const auto stats = request("STATS", 1);
  ASSERT_EQ(stats.size(), 1U);
  EXPECT_EQ(stat_value(stats[0], "cache_misses"), 1);
  EXPECT_EQ(stat_value(stats[0], "runs_completed"), 1);
  EXPECT_EQ(stat_value(stats[0], "cache_hits") +
                stat_value(stats[0], "dedup_joins"),
            1);
}

TEST_F(DaemonTest, MalformedRequestsGetStructuredErrors) {
  struct Case {
    const char* request;
    const char* code;
  };
  const Case cases[] = {
      {"this is not json", "\"code\":\"bad_json\""},
      {"[1,2,3]", "\"code\":\"bad_request\""},
      {"{\"config\":{},\"bogus\":1}", "\"code\":\"bad_request\""},
      {"{\"seeds\":\"7\"}", "\"code\":\"bad_request\""},
      {"{\"seeds\":[-1]}", "\"code\":\"bad_request\""},
      {"{\"config\":{\"no_such_key\":1}}", "\"code\":\"bad_config\""},
      {"{\"config\":{\"num_nodes\":\"fifty\"}}", "\"code\":\"bad_config\""},
      {"{\"config\":{\"num_nodes\":0}}", "\"code\":\"bad_config\""},
      {"{\"config\":{\"mac_loss_probability\":1.5}}",
       "\"code\":\"bad_config\""},
      // Well-formed, but the run layer cannot execute it (per-frame
      // invariant checking under sharding): refused before any worker.
      {"{\"config\":{\"num_nodes\":20,\"duration_s\":5,\"sim_shards\":2,"
       "\"invariant_check_interval\":1},\"seeds\":[1]}",
       "\"code\":\"bad_config\""},
      {"{\"config\":{\"num_nodes\":[5]}}", "\"code\":\"bad_request\""},
  };

  // All on ONE connection: every error must leave the session usable.
  const int fd = connect_daemon();
  ASSERT_GE(fd, 0);
  for (const Case& c : cases) {
    ASSERT_TRUE(send_all(fd, std::string(c.request) + "\n"));
    const auto lines = read_lines(fd, 1);
    ASSERT_EQ(lines.size(), 1U) << c.request;
    EXPECT_NE(lines[0].find("\"type\":\"error\""), std::string::npos)
        << c.request << " -> " << lines[0];
    EXPECT_NE(lines[0].find(c.code), std::string::npos)
        << c.request << " -> " << lines[0];
  }
  // The same connection still serves real work afterwards.
  ASSERT_TRUE(send_all(
      fd, std::string("{\"config\":") + kTinyConfig + ",\"seeds\":[1]}\n"));
  const auto lines = read_lines(fd, 2);
  ASSERT_EQ(lines.size(), 2U);
  EXPECT_NE(lines[0].find("\"type\":\"seed\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"served\":1"), std::string::npos);
  ::close(fd);
}

TEST_F(DaemonTest, OversizedAndTruncatedRequestsDoNotKillTheDaemon) {
  // Oversized: a line longer than the daemon's limit (default 1 MiB) gets
  // a structured error, the tail is drained, and the NEXT line on the
  // same connection is served normally.
  const int fd = connect_daemon();
  ASSERT_GE(fd, 0);
  const std::string huge(2u << 20, 'x');
  ASSERT_TRUE(send_all(fd, huge + "\n"));
  auto lines = read_lines(fd, 1);
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_NE(lines[0].find("\"code\":\"too_large\""), std::string::npos)
      << lines[0];
  ASSERT_TRUE(send_all(fd, "STATS\n"));
  lines = read_lines(fd, 1);
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_NE(lines[0].find("\"type\":\"stats\""), std::string::npos);
  ::close(fd);

  // Truncated: half a request then an abrupt close. The daemon must shrug
  // and keep accepting.
  const int fd2 = connect_daemon();
  ASSERT_GE(fd2, 0);
  ASSERT_TRUE(send_all(fd2, "{\"config\":{\"num_no"));
  ::close(fd2);
  const auto stats = request("STATS", 1);
  ASSERT_EQ(stats.size(), 1U);
  EXPECT_NE(stats[0].find("\"type\":\"stats\""), std::string::npos);
}

TEST(SessionLineLimit, BoundaryLinesAreAnsweredByLength) {
  // max_line counts the newline. "STATS" padded with trailing blanks is a
  // valid request at any length, so a reply tells parsed (stats) from
  // refused (too_large) without running a simulation.
  serve::Metrics metrics;
  serve::Scheduler scheduler(1, 4, &metrics);
  serve::SessionLimits limits;
  limits.max_line = 64;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  timeval tv{60, 0};
  ::setsockopt(fds[0], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  std::thread server(
      [&] { serve::run_session(fds[1], &scheduler, &metrics, limits); });

  // One request, one reply line ("" when none came). No ASSERTs until
  // the session thread is joined below.
  const auto exchange = [&](const std::string& data) {
    if (!send_all(fds[0], data)) return std::string();
    const auto lines = read_lines(fds[0], 1);
    return lines.empty() ? std::string() : lines[0];
  };
  const auto padded = [](std::size_t bytes_with_newline) {
    std::string line = "STATS";
    line.resize(bytes_with_newline - 1, ' ');
    return line + "\n";
  };
  const std::string stats = "\"type\":\"stats\"";
  const std::string too_large = "\"code\":\"too_large\"";
  // Exactly the limit: parsed.
  std::string reply = exchange(padded(64));
  EXPECT_NE(reply.find(stats), std::string::npos) << reply;
  // One byte over, complete in a single write: refused.
  reply = exchange(padded(65));
  EXPECT_NE(reply.find(too_large), std::string::npos) << reply;
  // Far over the limit, split across writes: refused once, tail drained.
  EXPECT_TRUE(send_all(fds[0], std::string(100, 'x')));
  reply = exchange(std::string(100, 'x') + "\n");
  EXPECT_NE(reply.find(too_large), std::string::npos) << reply;
  // The connection keeps answering.
  reply = exchange("STATS\n");
  EXPECT_NE(reply.find(stats), std::string::npos) << reply;

  ::shutdown(fds[0], SHUT_WR);  // EOF ends run_session
  server.join();
  ::close(fds[0]);
  ::close(fds[1]);
  scheduler.stop();
}

TEST_F(DaemonTest, WorkerCrashAnswersSeedAndDaemonKeepsServing) {
  // crash_run_at injects a thrown exception inside the simulation run —
  // the worker catches it via the batch path's crash isolation and the
  // session reports a per-seed error instead of dying.
  const std::string req =
      "{\"config\":{\"num_nodes\":20,\"duration_s\":120,"
      "\"crash_run_at\":10},\"seeds\":[5]}";
  const auto lines = request(req, 2);
  ASSERT_EQ(lines.size(), 2U);
  EXPECT_NE(lines[0].find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"seed\":5"), std::string::npos);
  EXPECT_NE(lines[0].find("\"code\":\"run_failed\""), std::string::npos);
  EXPECT_NE(lines[0].find("injected worker crash"), std::string::npos);
  EXPECT_EQ(lines[1],
            "{\"type\":\"done\",\"requested\":1,\"served\":0,\"errors\":1}");

  // Failed runs are not cached: a second attempt recomputes (and fails
  // again), and a healthy request is served by the same worker after.
  const auto again = request(req, 2);
  ASSERT_EQ(again.size(), 2U);
  EXPECT_NE(again[0].find("\"code\":\"run_failed\""), std::string::npos);

  const auto ok = request(
      std::string("{\"config\":") + kTinyConfig + ",\"seeds\":[5]}", 2);
  ASSERT_EQ(ok.size(), 2U);
  EXPECT_NE(ok[0].find("\"type\":\"seed\""), std::string::npos);

  const auto stats = request("STATS", 1);
  ASSERT_EQ(stats.size(), 1U);
  EXPECT_EQ(stat_value(stats[0], "worker_crashes"), 2);
  EXPECT_EQ(stat_value(stats[0], "cache_misses"), 3);
  EXPECT_EQ(stat_value(stats[0], "runs_completed"), 1);
}

TEST_F(DaemonTest, StatsVerbExposesTheCounterRegistry) {
  const auto stats = request("STATS", 1);
  ASSERT_EQ(stats.size(), 1U);
  for (const char* name :
       {"requests", "stats_requests", "cache_hits", "cache_misses",
        "dedup_joins", "queue_depth", "in_flight", "worker_crashes",
        "runs_completed", "seed_results", "request_errors", "connections"}) {
    EXPECT_GE(stat_value(stats[0], name), 0) << "missing counter " << name;
  }
}

TEST_F(DaemonTest, FieldProjectionSplicesRequestedFields) {
  const std::string req = std::string("{\"config\":") + kTinyConfig +
                          ",\"seeds\":[2],\"fields\":[\"seed\",\"events\"]}";
  const auto lines = request(req, 2);
  ASSERT_EQ(lines.size(), 2U);

  scenario::SeedTelemetry telemetry;
  scenario::run_single_seed(tiny_params(2), &telemetry);
  EXPECT_EQ(lines[0], "{\"seed\":2,\"events\":" +
                          std::to_string(telemetry.events_processed) + "}");
}

}  // namespace
