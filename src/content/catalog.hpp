// File placement: which node holds which files.
#pragma once

#include <cstdint>
#include <vector>

#include "content/zipf.hpp"
#include "sim/rng.hpp"

namespace p2p::content {

/// Immutable per-run placement of the catalog onto the P2P member nodes.
class Placement {
 public:
  /// Assign files to `num_members` nodes: member m holds file of rank k
  /// with independent probability `law.frequency(k)`. To match the paper's
  /// wording exactly ("the most popular file will be present in 40% of all
  /// nodes"), `exact_quota` instead places the file on a uniform random
  /// subset of round(freq * members) nodes.
  Placement(const ZipfLaw& law, std::uint32_t num_members,
            sim::RngStream rng, bool exact_quota = true);

  std::uint32_t num_members() const noexcept {
    return static_cast<std::uint32_t>(holdings_.size());
  }
  std::uint32_t num_files() const noexcept { return num_files_; }

  bool holds(std::uint32_t member, FileId file) const;

  /// Number of members holding `file`.
  std::uint32_t copies_of(FileId file) const;

 private:
  std::uint32_t num_files_;
  // holdings_[member] is a bitmask over file ranks (catalog is small: the
  // paper uses 20 files; we support up to 64).
  std::vector<std::uint64_t> holdings_;
};

}  // namespace p2p::content
