// Scenario layer: parameter overrides, run construction, result
// extraction, determinism, and the experiment cache round-trip.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "scenario/cache.hpp"
#include "scenario/experiment.hpp"
#include "scenario/run.hpp"
#include "util/config.hpp"

namespace {

using namespace p2p;
using scenario::Parameters;
using scenario::SimulationRun;

Parameters tiny_scenario(core::AlgorithmKind kind, std::uint64_t seed = 1) {
  Parameters params;
  params.num_nodes = 20;
  params.duration_s = 300.0;
  params.algorithm = kind;
  params.seed = seed;
  params.overlay_sample_interval_s = 100.0;
  return params;
}

TEST(Parameters, DefaultsMatchPaperTable2) {
  const Parameters params;
  EXPECT_EQ(params.num_nodes, 50U);
  EXPECT_DOUBLE_EQ(params.p2p_fraction, 0.75);
  EXPECT_DOUBLE_EQ(params.radio_range, 10.0);
  EXPECT_DOUBLE_EQ(params.area_width, 100.0);
  EXPECT_DOUBLE_EQ(params.duration_s, 3600.0);
  EXPECT_EQ(params.num_files, 20U);
  EXPECT_DOUBLE_EQ(params.max_frequency, 0.40);
  EXPECT_DOUBLE_EQ(params.max_speed, 1.0);
  EXPECT_DOUBLE_EQ(params.max_pause, 100.0);
}

TEST(Parameters, NumMembersRounds) {
  Parameters params;
  params.num_nodes = 50;
  EXPECT_EQ(params.num_members(), 38U);  // round(37.5)
  params.num_nodes = 150;
  EXPECT_EQ(params.num_members(), 113U);  // round(112.5)
  params.p2p_fraction = 1.0;
  EXPECT_EQ(params.num_members(), 150U);
}

TEST(Parameters, ApplyOverrides) {
  Parameters params;
  util::Config config;
  config.set("num_nodes", "150");
  config.set("algorithm", "hybrid");
  config.set("maxnconn", "5");
  config.set("timer_initial", "12.5");
  config.set("mobile", "false");
  EXPECT_EQ(params.apply(config), "");
  EXPECT_EQ(params.num_nodes, 150U);
  EXPECT_EQ(params.algorithm, core::AlgorithmKind::kHybrid);
  EXPECT_EQ(params.p2p.maxnconn, 5);
  EXPECT_DOUBLE_EQ(params.p2p.timer_initial, 12.5);
  EXPECT_FALSE(params.mobile);
}

TEST(Parameters, ApplyRejectsBadValues) {
  Parameters params;
  util::Config config;
  config.set("algorithm", "bittorrent");
  EXPECT_NE(params.apply(config), "");

  util::Config config2;
  config2.set("num_nodes", "0");
  EXPECT_NE(Parameters{}.apply(config2), "");

  util::Config config3;
  config3.set("p2p_fraction", "1.5");
  EXPECT_NE(Parameters{}.apply(config3), "");
}

TEST(Parameters, ApplyRejectsUnknownKeys) {
  // Daemon hardening: a typo'd key used to silently keep the default —
  // the worst failure mode for network-supplied configs. It must be a
  // named error now, and the message must point at the offending key.
  //
  // sim_threads / sim_shards selected the deleted intra-run parallel
  // executor, and churn_death_rate_per_hour / churn_down_time were the
  // deleted aliases of churn_rate / mean_downtime; old clients sending
  // them get a named error, not a silently different run.
  for (const char* key : {"num_nodez", "sim_threads", "sim_shards",
                          "churn_death_rate_per_hour", "churn_down_time"}) {
    util::Config config;
    config.set(key, "1");
    const std::string err = Parameters{}.apply(config);
    ASSERT_NE(err, "") << key;
    EXPECT_NE(err.find(key), std::string::npos) << err;
  }
}

TEST(Parameters, ApplyRejectsNonFiniteNumbers) {
  // NaN compares false against every range rule, so unchecked it reaches
  // asserts (a "nan" radio_range aborts p2pd) or never finishes (a "nan"
  // duration_s). Every double-typed key refuses nan/inf by name; "1" is
  // the control that each key is real and valid.
  const char* const keys[] = {
      "area_width", "area_height", "radio_range", "p2p_fraction",
      "duration_s", "max_speed", "min_speed", "max_pause", "max_frequency",
      "timer_initial", "maxtimer", "maxtimer_master", "ping_interval",
      "pong_timeout", "silence_timeout", "offer_window", "handshake_timeout",
      "query_response_wait", "query_gap_min", "query_gap_max",
      "aodv_active_route_timeout", "dsdv_update_interval",
      "dsdv_stale_timeout", "mac_bandwidth_bps", "mac_loss_probability",
      "mac_gray_zone_fraction", "battery_j", "churn_rate", "mean_uptime",
      "mean_downtime", "link_blackout_rate", "link_blackout_duration",
      "loss_burst_rate", "loss_burst_duration", "loss_burst_loss",
      "crash_run_at", "invariant_check_interval", "fault_monitor_interval",
      "overlay_sample_interval_s", "join_stagger_s"};
  for (const char* key : keys) {
    util::Config valid;
    valid.set(key, "1");
    EXPECT_EQ(Parameters{}.apply(valid), "") << key;
    for (const char* value : {"nan", "inf", "-inf"}) {
      util::Config config;
      config.set(key, value);
      const std::string err = Parameters{}.apply(config);
      EXPECT_NE(err.find(key), std::string::npos) << key << "=" << value;
      EXPECT_NE(err.find("non-finite"), std::string::npos) << err;
    }
  }
}

TEST(Parameters, ApplyRejectsUnparsableValues) {
  // Same rationale: "fifty" used to parse as "keep the default". Every
  // typed getter must report the key and the rejected text.
  const auto expect_rejects = [](const char* key, const char* value) {
    util::Config config;
    config.set(key, value);
    const std::string err = Parameters{}.apply(config);
    ASSERT_NE(err, "") << key << "=" << value << " was accepted";
    EXPECT_NE(err.find(key), std::string::npos) << err;
    EXPECT_NE(err.find(value), std::string::npos) << err;
  };
  expect_rejects("num_nodes", "fifty");
  expect_rejects("duration_s", "1h");
  expect_rejects("seed", "-3");
  expect_rejects("mobile", "maybe");
  expect_rejects("maxnconn", "3.5");
}

TEST(Parameters, ApplyRejectsOutOfRangeValues) {
  const auto expect_rejects = [](const char* key, const char* value) {
    util::Config config;
    config.set(key, value);
    EXPECT_NE(Parameters{}.apply(config), "")
        << key << "=" << value << " was accepted";
  };
  expect_rejects("area_width", "0");
  expect_rejects("radio_range", "-5");
  expect_rejects("duration_s", "0");
  expect_rejects("max_frequency", "0");
  expect_rejects("mac_loss_probability", "1.01");
  expect_rejects("mac_bandwidth_bps", "0");
  expect_rejects("battery_j", "-1");
  expect_rejects("loss_burst_loss", "2");
  expect_rejects("num_files", "0");
  expect_rejects("churn_rate", "-0.5");
  // min_speed > max_speed (default max_speed = 1.0).
  expect_rejects("min_speed", "5");
}

TEST(Parameters, ApplyRejectsAreaBeyondNeighborGridCap) {
  // The spatial index lays a grid of radio_range-sized cells over the
  // area. A finite but huge area (1e300 m) used to overflow the cell count
  // and crash the run; any grid past the cap is now a named error.
  const auto apply = [](const char* width, const char* height,
                        const char* range) {
    util::Config config;
    config.set("area_width", width);
    config.set("area_height", height);
    config.set("radio_range", range);
    return Parameters{}.apply(config);
  };
  const std::string err = apply("1e300", "100", "10");
  EXPECT_NE(err.find("area"), std::string::npos) << err;
  EXPECT_NE(err.find("radio_range"), std::string::npos) << err;
  EXPECT_NE(apply("100", "100", "1e-300"), "");
  // Exactly at the cap (2048 x 2048 cells) is fine, one column more is not.
  EXPECT_EQ(apply("20480", "20480", "10"), "");
  EXPECT_NE(apply("20490", "20480", "10"), "");
  // The 100k-node megascale tier at paper density: ~447 x 447 cells.
  EXPECT_EQ(apply("4472.2", "4472.2", "10"), "");
}

TEST(Parameters, ApplyReportsFirstProblemAndAppliesNothingAfter) {
  // A config with both a bad value and a later unknown key reports the
  // parse problem (getters run first), not a misleading unknown-key
  // message for something it never got to.
  util::Config config;
  config.set("num_nodes", "abc");
  config.set("zzz_unknown", "1");
  const std::string err = Parameters{}.apply(config);
  ASSERT_NE(err, "");
  EXPECT_NE(err.find("num_nodes"), std::string::npos) << err;
}

TEST(Parameters, CrashRunAtEnablesTheInjectedCrash) {
  util::Config config;
  config.set("crash_run_at", "10");
  Parameters params;
  EXPECT_EQ(params.apply(config), "");
  EXPECT_TRUE(params.fault.crash_run_enabled());
}

TEST(Parameters, SummaryMentionsKeyFacts) {
  const Parameters params;
  const std::string s = params.summary();
  EXPECT_NE(s.find("50 nodes"), std::string::npos);
  EXPECT_NE(s.find("Regular"), std::string::npos);
}

TEST(SimulationRun, BuildCreatesMembersAndPlacement) {
  const Parameters params = tiny_scenario(core::AlgorithmKind::kRegular);
  SimulationRun run(params);
  run.build();
  EXPECT_EQ(run.member_count(), params.num_members());
  EXPECT_EQ(run.placement().num_members(), params.num_members());
  EXPECT_EQ(run.placement().num_files(), params.num_files);
  for (std::size_t i = 0; i < run.member_count(); ++i) {
    EXPECT_EQ(run.servent(i).algorithm(), core::AlgorithmKind::kRegular);
    EXPECT_LT(run.servent(i).self(), params.num_nodes);
  }
}

TEST(SimulationRun, ProducesPlausibleResults) {
  const Parameters params = tiny_scenario(core::AlgorithmKind::kRegular);
  SimulationRun run(params);
  const auto result = run.run();
  EXPECT_EQ(result.num_nodes, 20U);
  EXPECT_EQ(result.num_members, 15U);
  EXPECT_EQ(result.counters.size(), 15U);
  EXPECT_EQ(result.per_file.size(), 20U);
  EXPECT_GT(result.frames_transmitted, 0U);
  EXPECT_GT(result.energy_consumed_j, 0.0);
  EXPECT_GT(result.events_processed, 0U);
  EXPECT_FALSE(result.overlay_samples.empty());
  // Extract helpers match counters.
  const auto connect = result.connect_received_per_member();
  ASSERT_EQ(connect.size(), 15U);
  for (std::size_t i = 0; i < connect.size(); ++i) {
    EXPECT_DOUBLE_EQ(connect[i],
                     static_cast<double>(result.counters[i].connect_received()));
  }
}

TEST(SimulationRun, DeterministicForSameSeed) {
  const Parameters params = tiny_scenario(core::AlgorithmKind::kRandom, 7);
  const auto a = SimulationRun(params).run();
  const auto b = SimulationRun(params).run();
  EXPECT_EQ(a.frames_transmitted, b.frames_transmitted);
  EXPECT_EQ(a.events_processed, b.events_processed);
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i].received, b.counters[i].received);
    EXPECT_EQ(a.counters[i].sent, b.counters[i].sent);
  }
}

TEST(SimulationRun, DifferentSeedsDiffer) {
  const auto a =
      SimulationRun(tiny_scenario(core::AlgorithmKind::kRegular, 1)).run();
  const auto b =
      SimulationRun(tiny_scenario(core::AlgorithmKind::kRegular, 2)).run();
  EXPECT_NE(a.frames_transmitted, b.frames_transmitted);
}

TEST(SimulationRun, HybridCensusCountsRoles) {
  const auto result =
      SimulationRun(tiny_scenario(core::AlgorithmKind::kHybrid)).run();
  EXPECT_GT(result.masters + result.slaves, 0U);
  EXPECT_LE(result.masters + result.slaves, result.num_members);
}

TEST(SimulationRun, RunsOverDsdv) {
  Parameters params = tiny_scenario(core::AlgorithmKind::kRegular);
  params.routing_protocol = scenario::RoutingProtocol::kDsdv;
  params.dsdv.periodic_update_interval = 5.0;
  SimulationRun run(params);
  const auto result = run.run();
  // The overlay still forms and queries still flow over proactive routing.
  EXPECT_GT(result.frames_transmitted, 0U);
  EXPECT_GT(result.routing_control_messages, 0U);
  std::uint64_t queries = 0;
  for (const auto& f : result.per_file) queries += f.requests;
  EXPECT_GT(queries, 0U);
}

TEST(SimulationRun, RunsUnderEveryMobilityModel) {
  for (const auto kind :
       {scenario::MobilityKind::kRandomWaypoint,
        scenario::MobilityKind::kRandomDirection,
        scenario::MobilityKind::kGaussMarkov}) {
    Parameters params = tiny_scenario(core::AlgorithmKind::kRegular);
    params.mobility_kind = kind;
    const auto result = SimulationRun(params).run();
    EXPECT_GT(result.frames_transmitted, 0U)
        << "mobility kind " << static_cast<int>(kind);
  }
}

TEST(SimulationRun, ChurnKillsAndRevivesNodes) {
  Parameters params = tiny_scenario(core::AlgorithmKind::kRegular);
  params.fault.churn_rate_per_hour = 30.0;  // ~2.5 deaths/node over 300 s
  params.fault.mean_downtime_s = 20.0;
  const auto result = SimulationRun(params).run();
  EXPECT_GT(result.churn_deaths, 0U);
  // The network survives: frames still flow and invariants held (no
  // assertion fired during the run).
  EXPECT_GT(result.frames_transmitted, 0U);
}

TEST(Parameters, MobilityAndRoutingOverrides) {
  Parameters params;
  util::Config config;
  config.set("mobility", "gauss_markov");
  config.set("routing_protocol", "dsdv");
  config.set("churn_rate", "5");
  config.set("mean_downtime", "20");
  EXPECT_EQ(params.apply(config), "");
  EXPECT_EQ(params.mobility_kind, scenario::MobilityKind::kGaussMarkov);
  EXPECT_EQ(params.routing_protocol, scenario::RoutingProtocol::kDsdv);
  EXPECT_DOUBLE_EQ(params.fault.churn_rate_per_hour, 5.0);
  EXPECT_DOUBLE_EQ(params.fault.mean_downtime_s, 20.0);

  util::Config bad;
  bad.set("mobility", "teleport");
  EXPECT_NE(Parameters{}.apply(bad), "");
  util::Config bad2;
  bad2.set("routing_protocol", "olsr");
  EXPECT_NE(Parameters{}.apply(bad2), "");
}

TEST(Cache, KeyChangesWithNewKnobs) {
  Parameters a = tiny_scenario(core::AlgorithmKind::kRegular);
  Parameters b = a;
  b.routing_protocol = scenario::RoutingProtocol::kDsdv;
  EXPECT_NE(scenario::cache_key(a, 3), scenario::cache_key(b, 3));
  Parameters c = a;
  c.mobility_kind = scenario::MobilityKind::kGaussMarkov;
  EXPECT_NE(scenario::cache_key(a, 3), scenario::cache_key(c, 3));
  Parameters d = a;
  d.fault.churn_rate_per_hour = 1.0;
  EXPECT_NE(scenario::cache_key(a, 3), scenario::cache_key(d, 3));
  Parameters e = d;
  e.fault.mean_downtime_s = 20.0;
  EXPECT_NE(scenario::cache_key(d, 3), scenario::cache_key(e, 3));
}

TEST(Experiment, AggregatesAcrossSeeds) {
  Parameters params = tiny_scenario(core::AlgorithmKind::kRegular);
  const auto result = scenario::run_experiment(params, 3, /*threads=*/2);
  EXPECT_EQ(result.runs, 3U);
  EXPECT_EQ(result.connect_curve.runs(), 3U);
  EXPECT_EQ(result.connect_curve.points(), params.num_members());
  EXPECT_EQ(result.ranks.size(), 20U);
  EXPECT_EQ(result.frames_transmitted.count(), 3U);
  EXPECT_GT(result.frames_transmitted.mean(), 0.0);
}

TEST(Experiment, ParallelMatchesSequential) {
  Parameters params = tiny_scenario(core::AlgorithmKind::kBasic);
  const auto seq = scenario::run_experiment(params, 3, 1);
  const auto par = scenario::run_experiment(params, 3, 3);
  EXPECT_EQ(seq.runs, par.runs);
  // Aggregation happens in seed order regardless of thread count, so
  // results are bit-identical — exact ==, not DOUBLE_EQ. The exhaustive
  // all-fields version of this check lives in test_determinism.cpp.
  ASSERT_EQ(seq.connect_curve.points(), par.connect_curve.points());
  for (std::size_t i = 0; i < seq.connect_curve.points(); ++i) {
    EXPECT_EQ(seq.connect_curve.mean_at(i), par.connect_curve.mean_at(i));
    EXPECT_EQ(seq.connect_curve.ci95_at(i), par.connect_curve.ci95_at(i));
  }
  EXPECT_EQ(seq.frames_transmitted.mean(), par.frames_transmitted.mean());
  EXPECT_EQ(seq.frames_transmitted.variance(),
            par.frames_transmitted.variance());
}

TEST(Cache, RoundTripsExperimentResults) {
  const std::string dir = ::testing::TempDir() + "/p2p_cache_test";
  std::filesystem::remove_all(dir);  // stale entries from earlier test runs
  ::setenv("P2P_BENCH_CACHE", dir.c_str(), 1);
  Parameters params = tiny_scenario(core::AlgorithmKind::kRegular);
  params.duration_s = 120.0;

  scenario::ExperimentResult miss;
  EXPECT_FALSE(scenario::load_cached(params, 2, &miss));

  const auto computed = scenario::run_experiment_cached(params, 2);
  scenario::ExperimentResult loaded;
  ASSERT_TRUE(scenario::load_cached(params, 2, &loaded));
  EXPECT_EQ(loaded.runs, computed.runs);
  ASSERT_EQ(loaded.connect_curve.points(), computed.connect_curve.points());
  for (std::size_t i = 0; i < loaded.connect_curve.points(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.connect_curve.mean_at(i),
                     computed.connect_curve.mean_at(i));
  }
  EXPECT_NEAR(loaded.ranks[0].answers_per_request.mean(),
              computed.ranks[0].answers_per_request.mean(), 1e-9);
  EXPECT_NEAR(loaded.frames_transmitted.ci95_halfwidth(),
              computed.frames_transmitted.ci95_halfwidth(), 1e-6);
  ::unsetenv("P2P_BENCH_CACHE");
}

TEST(Cache, KeyChangesWithParameters) {
  Parameters a = tiny_scenario(core::AlgorithmKind::kRegular);
  Parameters b = a;
  b.p2p.timer_initial += 1.0;
  EXPECT_NE(scenario::cache_key(a, 5), scenario::cache_key(b, 5));
  EXPECT_NE(scenario::cache_key(a, 5), scenario::cache_key(a, 6));
  EXPECT_EQ(scenario::cache_key(a, 5), scenario::cache_key(a, 5));
}

TEST(Cache, DefaultAndMegaScaleKeysArePinned) {
  // Existing cache entries stay valid only while sequential keys are
  // byte-stable; a change that moves one must bump the code tag instead.
  // (Last moved when the churn_rate/churn_down alias lines left the key:
  // older entries read as misses and are recomputed, identically.)
  EXPECT_EQ(scenario::cache_key(Parameters{}, 5),
            "46fdba4acb3baf0e-6b7d0ad26926e00a");
  Parameters mega;
  mega.num_nodes = 10000;
  mega.routing_protocol = scenario::RoutingProtocol::kAodv;
  EXPECT_EQ(scenario::cache_key(mega, 5),
            "3682bad868f01134-dc66f05dc367a5bc");
}

TEST(Experiment, BenchSeedCountReadsEnvironment) {
  ::setenv("P2P_BENCH_SEEDS", "7", 1);
  EXPECT_EQ(scenario::bench_seed_count(), 7U);
  ::setenv("P2P_BENCH_SEEDS", "garbage", 1);
  EXPECT_EQ(scenario::bench_seed_count(), scenario::kPaperSeeds);
  ::unsetenv("P2P_BENCH_SEEDS");
  EXPECT_EQ(scenario::bench_seed_count(), scenario::kPaperSeeds);
}

}  // namespace
