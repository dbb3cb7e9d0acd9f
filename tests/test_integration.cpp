// End-to-end integration: full paper-style runs (scaled down) for every
// algorithm, checking cross-module invariants and the paper's headline
// qualitative claims.
#include <gtest/gtest.h>

#include "core/hybrid.hpp"
#include "scenario/run.hpp"

namespace {

using namespace p2p;
using core::AlgorithmKind;
using scenario::Parameters;
using scenario::SimulationRun;

Parameters small_paper_scenario(AlgorithmKind kind, std::uint64_t seed = 3) {
  Parameters params;
  params.num_nodes = 40;
  params.duration_s = 900.0;
  params.algorithm = kind;
  params.seed = seed;
  return params;
}

class AlgorithmIntegration
    : public ::testing::TestWithParam<AlgorithmKind> {};

TEST_P(AlgorithmIntegration, FullRunSatisfiesInvariants) {
  const Parameters params = small_paper_scenario(GetParam());
  SimulationRun run(params);
  const auto result = run.run();

  // Capacity invariants per algorithm.
  for (std::size_t i = 0; i < run.member_count(); ++i) {
    const auto& servent = run.servent(i);
    const auto& conns = servent.connections();
    if (GetParam() == AlgorithmKind::kHybrid) {
      const auto& hybrid = static_cast<const core::HybridServent&>(servent);
      EXPECT_LE(conns.count(core::ConnKind::kMaster),
                static_cast<std::size_t>(params.p2p.maxnconn));
      EXPECT_LE(conns.count(core::ConnKind::kSlave),
                hybrid.state() == core::HybridState::kSlave
                    ? 1U
                    : static_cast<std::size_t>(params.p2p.maxnslaves));
      if (hybrid.state() == core::HybridState::kSlave) {
        EXPECT_EQ(conns.size(), conns.count(core::ConnKind::kSlave));
      }
    } else {
      EXPECT_LE(conns.size(), static_cast<std::size_t>(params.p2p.maxnconn))
          << "member " << i;
      if (GetParam() == AlgorithmKind::kRandom) {
        EXPECT_LE(conns.count(core::ConnKind::kRandom), 1U);
      }
    }
    // Connections point at p2p members only, never at self.
    for (const auto peer : conns.peers()) {
      EXPECT_NE(peer, servent.self());
      bool is_member = false;
      for (std::size_t j = 0; j < run.member_count(); ++j) {
        if (run.servent(j).self() == peer) is_member = true;
      }
      EXPECT_TRUE(is_member) << "connection to non-member " << peer;
    }
  }

  // Global accounting.
  EXPECT_GT(result.frames_transmitted, 0U);
  EXPECT_GE(result.frames_transmitted, result.frames_lost);
  EXPECT_GT(result.energy_consumed_j, 0.0);
  std::uint64_t queries = 0;
  for (const auto& f : result.per_file) queries += f.requests;
  EXPECT_GT(queries, 0U);

  // Every answered request reported sane distances.
  for (const auto& f : result.per_file) {
    EXPECT_LE(f.answered, f.requests);
    EXPECT_LE(f.physical_samples, f.answered);
    if (f.physical_samples > 0) {
      EXPECT_GE(f.mean_min_physical(), 0.0);
      EXPECT_LT(f.mean_min_physical(), 40.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmIntegration,
                         ::testing::Values(AlgorithmKind::kBasic,
                                           AlgorithmKind::kRegular,
                                           AlgorithmKind::kRandom,
                                           AlgorithmKind::kHybrid),
                         [](const auto& info) {
                           return core::algorithm_name(info.param);
                         });

TEST(PaperClaims, BasicGeneratesMostConnectTraffic) {
  // §7.4: "the Basic algorithm, which uses broadcasts indiscriminately,
  // presents greater values for all nodes".
  std::uint64_t basic = 0, regular = 0;
  {
    SimulationRun run(small_paper_scenario(AlgorithmKind::kBasic));
    for (const auto& c : run.run().counters) basic += c.connect_received();
  }
  {
    SimulationRun run(small_paper_scenario(AlgorithmKind::kRegular));
    for (const auto& c : run.run().counters) regular += c.connect_received();
  }
  EXPECT_GT(basic, 2 * regular)
      << "basic=" << basic << " regular=" << regular;
}

TEST(PaperClaims, BasicGeneratesMorePingTraffic) {
  // §7.4: symmetric connections + one-sided pinging cut ping volume.
  std::uint64_t basic = 0, regular = 0;
  {
    SimulationRun run(small_paper_scenario(AlgorithmKind::kBasic));
    for (const auto& c : run.run().counters) basic += c.ping_received();
  }
  {
    SimulationRun run(small_paper_scenario(AlgorithmKind::kRegular));
    for (const auto& c : run.run().counters) regular += c.ping_received();
  }
  EXPECT_GT(basic, regular) << "basic=" << basic << " regular=" << regular;
}

TEST(PaperClaims, HybridConcentratesLoadOnMasters) {
  // §7.4: "masters get more ping and query messages".
  SimulationRun run(small_paper_scenario(AlgorithmKind::kHybrid, 5));
  const auto result = run.run();
  std::uint64_t master_load = 0, master_count = 0;
  std::uint64_t slave_load = 0, slave_count = 0;
  for (std::size_t i = 0; i < run.member_count(); ++i) {
    const auto& hybrid =
        static_cast<const core::HybridServent&>(run.servent(i));
    const auto load = hybrid.counters().query_received() +
                      hybrid.counters().ping_received();
    if (hybrid.state() == core::HybridState::kMaster) {
      master_load += load;
      ++master_count;
    } else if (hybrid.state() == core::HybridState::kSlave) {
      slave_load += load;
      ++slave_count;
    }
  }
  ASSERT_GT(master_count, 0U);
  ASSERT_GT(slave_count, 0U);
  const double per_master =
      static_cast<double>(master_load) / static_cast<double>(master_count);
  const double per_slave =
      static_cast<double>(slave_load) / static_cast<double>(slave_count);
  EXPECT_GT(per_master, per_slave);
  (void)result;
}

TEST(PaperClaims, AnswersDecayWithFileRank) {
  // Figures 5/6: "the number of answers decreases as the requested file
  // becomes unpopular, reflecting the Zipf distribution".
  Parameters params = small_paper_scenario(AlgorithmKind::kRegular);
  params.num_nodes = 60;  // denser => enough answered requests
  SimulationRun run(params);
  const auto result = run.run();
  const double head = result.per_file[0].answers_per_request() +
                      result.per_file[1].answers_per_request();
  const double tail = result.per_file[18].answers_per_request() +
                      result.per_file[19].answers_per_request();
  EXPECT_GT(head, tail);
}

}  // namespace
