// Cross-process contention on the per-seed result cache.
//
// The serving daemon's whole dedup story rests on two properties of the
// checksummed cache entry (scenario/cache.cpp): racing writers publish by
// atomic rename so exactly one complete file wins, and a reader that
// catches a torn/truncated/corrupt file treats it as a miss rather than
// serving garbage. These tests exercise both with REAL processes — two
// forked writers hammering the same (config, seed) entry while the parent
// reads concurrently — not just interleaved threads.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "scenario/cache.hpp"
#include "scenario/parameters.hpp"
#include "sim/rng.hpp"

namespace {

using namespace p2p;

class CacheRaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/p2pd_cache_race_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    ::setenv("P2P_BENCH_CACHE", dir_.c_str(), 1);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  static scenario::Parameters params_for(std::uint64_t seed) {
    scenario::Parameters p;
    p.num_nodes = 25;
    p.duration_s = 200.0;
    p.seed = seed;
    return p;
  }

  std::string dir_;
};

TEST_F(CacheRaceTest, RacingWritersAlwaysLeaveOneValidEntry) {
  const auto params = params_for(42);
  const std::string line_a = "{\"type\":\"seed\",\"seed\":42,\"writer\":\"a\"}";
  const std::string line_b = "{\"type\":\"seed\",\"seed\":42,\"writer\":\"b\"}";

  // Two child processes store conflicting content for the same key as
  // fast as they can; distinct pids give them distinct temp files, so
  // every publish is a whole-file rename.
  const auto spawn_writer = [&](const std::string& line) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      for (int i = 0; i < 300; ++i) {
        scenario::store_cached_seed_line(params, line);
      }
      _exit(0);
    }
    return pid;
  };
  const pid_t writer_a = spawn_writer(line_a);
  ASSERT_GE(writer_a, 0);
  const pid_t writer_b = spawn_writer(line_b);
  ASSERT_GE(writer_b, 0);

  // Concurrent reads for as long as the writers run (yielding so the
  // children actually get scheduled on a single-core host): each read
  // must be a miss or one of the two complete lines — never a tear,
  // never a mix.
  bool a_alive = true, b_alive = true;
  while (a_alive || b_alive) {
    std::string line;
    if (scenario::load_cached_seed_line(params, &line)) {
      EXPECT_TRUE(line == line_a || line == line_b)
          << "torn read: " << line;
    }
    int status = 0;
    if (a_alive && ::waitpid(writer_a, &status, WNOHANG) == writer_a) {
      a_alive = false;
      EXPECT_EQ(status, 0);
    }
    if (b_alive && ::waitpid(writer_b, &status, WNOHANG) == writer_b) {
      b_alive = false;
      EXPECT_EQ(status, 0);
    }
    ::usleep(100);
  }

  // After the dust settles: exactly one valid entry, one of the two.
  std::string line;
  ASSERT_TRUE(scenario::load_cached_seed_line(params, &line));
  EXPECT_TRUE(line == line_a || line == line_b);

  // No leftover temp files — every publish either renamed or cleaned up.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".txt") << entry.path();
  }
  EXPECT_EQ(files, 1U);
}

TEST_F(CacheRaceTest, TornOrCorruptFilesReadAsMiss) {
  const auto params = params_for(7);
  const std::string line = "{\"type\":\"seed\",\"seed\":7,\"events\":123}";
  scenario::store_cached_seed_line(params, line);
  const std::string path = scenario::seed_cache_path(params);

  std::string stored;
  ASSERT_TRUE(scenario::load_cached_seed_line(params, &stored));
  EXPECT_EQ(stored, line);

  // Read the published bytes so corruptions below are realistic slices.
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    ASSERT_TRUE(f);
    bytes.assign(std::istreambuf_iterator<char>(f), {});
  }
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes.rfind("p2pmanet-cache seed-v2 ", 0), 0U)
      << "entry header changed — bump the version instead";

  const auto overwrite = [&](const std::string& content) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << content;
  };

  // Truncated mid-payload (a crashed writer that bypassed the rename).
  overwrite(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(scenario::load_cached_seed_line(params, &stored));

  // Flipped payload byte: checksum must catch it.
  std::string flipped = bytes;
  flipped[flipped.size() - 3] ^= 0x20;
  overwrite(flipped);
  EXPECT_FALSE(scenario::load_cached_seed_line(params, &stored));

  // Garbage header.
  overwrite("not a cache entry at all\n");
  EXPECT_FALSE(scenario::load_cached_seed_line(params, &stored));

  // Empty file.
  overwrite("");
  EXPECT_FALSE(scenario::load_cached_seed_line(params, &stored));

  // A fresh store repairs the entry.
  scenario::store_cached_seed_line(params, line);
  ASSERT_TRUE(scenario::load_cached_seed_line(params, &stored));
  EXPECT_EQ(stored, line);
}

// Served lines changed bytes (queue and routing-memory counters) without a
// key change, so an intact entry of the previous format must read as a
// miss, never be replayed as this code's answer.
TEST_F(CacheRaceTest, SeedV1EntriesReadAsMiss) {
  const auto params = params_for(9);
  const std::string path = scenario::seed_cache_path(params);
  const std::string payload = "{\"type\":\"seed\",\"seed\":9}\n";
  std::filesystem::create_directories(dir_);
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "p2pmanet-cache seed-v1 " << std::hex << sim::fnv1a(payload) << '\n'
      << payload;
  }
  std::string stored;
  EXPECT_FALSE(scenario::load_cached_seed_line(params, &stored));

  // The same payload under the current tag is a hit, so only the tag made
  // the difference; the fresh store overwrites the old entry.
  scenario::store_cached_seed_line(params, "{\"type\":\"seed\",\"seed\":9}");
  ASSERT_TRUE(scenario::load_cached_seed_line(params, &stored));
  EXPECT_EQ(stored + "\n", payload);
  std::ifstream f(path, std::ios::binary);
  std::string header;
  std::getline(f, header);
  EXPECT_EQ(header.rfind("p2pmanet-cache seed-v2 ", 0), 0U) << header;
}

TEST_F(CacheRaceTest, DistinctSeedsGetDistinctEntries) {
  const auto p1 = params_for(1);
  const auto p2 = params_for(2);
  EXPECT_NE(scenario::seed_cache_path(p1), scenario::seed_cache_path(p2));
  scenario::store_cached_seed_line(p1, "line-one");
  std::string line;
  EXPECT_FALSE(scenario::load_cached_seed_line(p2, &line))
      << "seed 2 hit seed 1's entry";
  ASSERT_TRUE(scenario::load_cached_seed_line(p1, &line));
  EXPECT_EQ(line, "line-one");
}

}  // namespace
