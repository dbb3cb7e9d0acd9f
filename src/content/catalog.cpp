#include "content/catalog.hpp"

#include <cmath>
#include <numeric>

#include "util/assert.hpp"

namespace p2p::content {

Placement::Placement(const ZipfLaw& law, std::uint32_t num_members,
                     sim::RngStream rng, bool exact_quota)
    : num_files_(law.num_files()), holdings_(num_members, 0) {
  P2P_ASSERT_MSG(num_files_ <= 64, "Placement supports up to 64 files");
  if (num_members == 0) return;
  if (exact_quota) {
    std::vector<std::uint32_t> members(num_members);
    std::iota(members.begin(), members.end(), 0);
    for (FileId k = 1; k <= num_files_; ++k) {
      auto quota = static_cast<std::uint32_t>(
          std::lround(law.frequency(k) * static_cast<double>(num_members)));
      if (quota < 1) quota = 1;  // every file exists somewhere
      if (quota > num_members) quota = num_members;
      rng.shuffle(members);
      for (std::uint32_t i = 0; i < quota; ++i) {
        holdings_[members[i]] |= (1ULL << (k - 1));
      }
    }
  } else {
    for (FileId k = 1; k <= num_files_; ++k) {
      const double p = law.frequency(k);
      for (std::uint32_t m = 0; m < num_members; ++m) {
        if (rng.chance(p)) holdings_[m] |= (1ULL << (k - 1));
      }
    }
  }
}

bool Placement::holds(std::uint32_t member, FileId file) const {
  P2P_ASSERT(member < holdings_.size());
  P2P_ASSERT(file >= 1 && file <= num_files_);
  return (holdings_[member] >> (file - 1)) & 1ULL;
}

std::uint32_t Placement::copies_of(FileId file) const {
  P2P_ASSERT(file >= 1 && file <= num_files_);
  std::uint32_t count = 0;
  for (const std::uint64_t mask : holdings_) {
    count += static_cast<std::uint32_t>((mask >> (file - 1)) & 1ULL);
  }
  return count;
}

}  // namespace p2p::content
