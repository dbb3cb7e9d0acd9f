// Shared scaffolding for the self-timed perf binaries (hotpath,
// aodv_storm, overlay_storm, megascale, serve_smoke): one JSON record per
// workload on stdout, also appended to the --out file when given, and the
// common command-line surface (--label/--out/--smoke/--repeat).
//
// Wall time is the only nondeterministic field — workloads are fixed-seed
// so counters (ops, events, frames_delivered, peak_queue) are reproducible
// across runs and machines, which is what the bench_guard ctest asserts
// (it runs every binary with --smoke --label guard --out <tmp>). Timing
// claims are perfbench's job (perfbench/run.py, perfbench/compare.py).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Options shared by every perf binary. `suite` is only meaningful for
/// binaries that host more than one suite (hotpath); single-workload
/// binaries ignore it.
struct Options {
  std::string suite = "all";
  std::string label = "dev";
  std::string out;       // empty = stdout only
  bool smoke = false;    // tiny scale, exercises the JSON path in ctest
  int repeat = 3;        // best-of-N wall time
};

/// Parse the common flags. Exits with a message on malformed input or,
/// when `allow_suite` is false, on --suite.
inline Options parse_options(int argc, char** argv, bool allow_suite) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (allow_suite && arg == "--suite") {
      opt.suite = value();
    } else if (arg == "--label") {
      opt.label = value();
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--smoke") {
      opt.smoke = true;
      opt.repeat = 1;
    } else if (arg == "--repeat") {
      opt.repeat = std::atoi(value().c_str());
    } else {
      std::cerr << "unknown argument " << arg << "\n";
      std::exit(1);
    }
  }
  return opt;
}

/// One benchmark record. Counter fields are emitted only when set.
struct Record {
  /// Extra fixed-seed counter beyond the headline unit (e.g. the overlay
  /// storm's answers / connect_msgs). `rate` additionally emits
  /// "<name>_per_sec" so secondary throughputs (msgs_per_sec) ride along
  /// beside the headline unit.
  struct Extra {
    std::string name;
    std::uint64_t value = 0;
    bool rate = false;
  };

  std::string bench;
  double wall_s = 0.0;
  std::uint64_t ops = 0;            // suite-specific unit (see ops_name)
  std::string ops_name = "ops";
  std::vector<Extra> extras;        // emitted right after the headline unit
  std::uint64_t events = 0;         // kernel events processed
  std::uint64_t frames_delivered = 0;
  std::size_t peak_queue = 0;
  double sim_time_s = 0.0;

  std::string to_json(const std::string& label) const {
    char buf[512];
    std::string json = "{\"bench\":\"" + bench + "\",\"label\":\"" + label +
                       "\"";
    std::snprintf(buf, sizeof(buf), ",\"wall_s\":%.6f", wall_s);
    json += buf;
    std::snprintf(buf, sizeof(buf), ",\"%s\":%llu", ops_name.c_str(),
                  static_cast<unsigned long long>(ops));
    json += buf;
    if (wall_s > 0.0) {
      std::snprintf(buf, sizeof(buf), ",\"%s_per_sec\":%.1f", ops_name.c_str(),
                    static_cast<double>(ops) / wall_s);
      json += buf;
    }
    for (const Extra& extra : extras) {
      std::snprintf(buf, sizeof(buf), ",\"%s\":%llu", extra.name.c_str(),
                    static_cast<unsigned long long>(extra.value));
      json += buf;
      if (extra.rate && wall_s > 0.0) {
        std::snprintf(buf, sizeof(buf), ",\"%s_per_sec\":%.1f",
                      extra.name.c_str(),
                      static_cast<double>(extra.value) / wall_s);
        json += buf;
      }
    }
    if (events > 0) {
      std::snprintf(buf, sizeof(buf), ",\"events\":%llu",
                    static_cast<unsigned long long>(events));
      json += buf;
      if (wall_s > 0.0) {
        std::snprintf(buf, sizeof(buf), ",\"events_per_sec\":%.1f",
                      static_cast<double>(events) / wall_s);
        json += buf;
      }
    }
    if (frames_delivered > 0) {
      std::snprintf(buf, sizeof(buf), ",\"frames_delivered\":%llu",
                    static_cast<unsigned long long>(frames_delivered));
      json += buf;
    }
    if (peak_queue > 0) {
      std::snprintf(buf, sizeof(buf), ",\"peak_queue\":%zu", peak_queue);
      json += buf;
    }
    if (sim_time_s > 0.0) {
      std::snprintf(buf, sizeof(buf), ",\"sim_time_s\":%.1f", sim_time_s);
      json += buf;
    }
    json += "}";
    return json;
  }
};

inline void emit(const Record& rec, const Options& opt) {
  const std::string line = rec.to_json(opt.label);
  std::cout << line << "\n";
  if (!opt.out.empty()) {
    std::ofstream os(opt.out, std::ios::app);
    if (!os) {
      std::cerr << "cannot open " << opt.out << " for append\n";
      std::exit(1);
    }
    os << line << "\n";
  }
}

}  // namespace bench
