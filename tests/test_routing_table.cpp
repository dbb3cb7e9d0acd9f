// RoutingTable freshness edge cases (RFC 3561 §6.2, §6.11).
//
// These tests pin the exact sequence-number/hop-count replacement rules
// and the lifecycle corners (expiry invalidates but keeps the sequence
// number, precursors survive updates, slots reset across clear()) so any
// representation change underneath the open-addressed map is verified
// against the same observable semantics. The last test drives the table
// and a std::map reference through one scripted history and asserts every
// observable output matches, ascending-destination order included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "routing/routing_table.hpp"

namespace {

using p2p::net::NodeId;
using p2p::routing::Route;
using p2p::routing::RoutingTable;

// The precursors of `dst`, in the order for_each_precursor visits them.
std::vector<NodeId> precursors_of(const RoutingTable& table, NodeId dst) {
  std::vector<NodeId> out;
  table.for_each_precursor(dst, [&](NodeId p) { out.push_back(p); });
  return out;
}

std::vector<NodeId> via(const RoutingTable& table, NodeId next_hop,
                        double now) {
  std::vector<NodeId> out;
  table.destinations_via(next_hop, now, &out);
  return out;
}

// ------------------------------------------------------- §6.2 freshness --

bool same_route(const Route& a, const Route& b) {
  return a.next_hop == b.next_hop && a.dst_seq == b.dst_seq &&
         a.hop_count == b.hop_count && a.seq_valid == b.seq_valid &&
         a.valid == b.valid && a.expires == b.expires;
}

// Offers (seq, seq_valid, hops) for destination 7 via next hop 9 to a copy
// of `table` at `now`, and returns whether the offer was installed. Checks
// the route it leaves behind: a rejected offer must leave the entry
// untouched, an installed one must carry exactly the offered route.
bool offered(const RoutingTable& table, std::uint32_t seq, bool seq_valid,
             std::uint8_t hops, double now) {
  RoutingTable copy = table;
  const bool installed =
      copy.offer(7, /*next_hop=*/9, hops, seq, seq_valid, now + 500.0, now);
  const Route* before = table.find(7);
  const Route* after = copy.find(7);
  EXPECT_NE(after, nullptr);
  if (after == nullptr) return installed;
  if (installed) {
    const Route expect{9, seq, hops, seq_valid, true, now + 500.0};
    EXPECT_TRUE(same_route(*after, expect));
  } else {
    EXPECT_TRUE(before != nullptr && same_route(*after, *before));
  }
  return installed;
}

TEST(RoutingTableFreshness, EqualSeqFewerHopsReplaces) {
  RoutingTable table;
  table.update(7, /*next_hop=*/3, /*hops=*/4, /*seq=*/10, true, 100.0);
  // Same sequence number: strictly fewer hops wins, ties and worse lose.
  EXPECT_TRUE(offered(table, 10, true, 3, 0.0));
  EXPECT_FALSE(offered(table, 10, true, 4, 0.0));
  EXPECT_FALSE(offered(table, 10, true, 5, 0.0));
}

TEST(RoutingTableFreshness, SequenceComparisonIsSigned32) {
  RoutingTable table;
  // Near the wrap point: 0x7fffffff + 1 is "newer" under signed rollover
  // arithmetic even though it is numerically smaller modulo 2^32.
  table.update(7, 3, 2, 0x7fffffffU, true, 100.0);
  EXPECT_TRUE(offered(table, 0x80000000U, true, 9, 0.0));
  table.update(7, 3, 2, 0xffffffffU, true, 100.0);
  EXPECT_TRUE(offered(table, 0U, true, 9, 0.0));   // wraps to newer
  EXPECT_FALSE(offered(table, 0xfffffff0U, true, 1, 0.0));
}

TEST(RoutingTableFreshness, InvalidSeqOnOfferLosesToValidRoute) {
  RoutingTable table;
  table.update(7, 3, 2, 10, /*seq_valid=*/true, 100.0);
  // An offer with no sequence information never displaces a valid,
  // sequence-numbered route — even with fewer hops.
  EXPECT_FALSE(offered(table, 0, /*seq_valid=*/false, 1, 0.0));
}

TEST(RoutingTableFreshness, InvalidSeqOnOwnRouteAlwaysLoses) {
  RoutingTable table;
  // Our route has no sequence info (hello-derived): any offer wins.
  table.update(7, 3, 1, 0, /*seq_valid=*/false, 100.0);
  EXPECT_TRUE(offered(table, 0, false, 9, 0.0));
  EXPECT_TRUE(offered(table, 1, true, 9, 0.0));
}

TEST(RoutingTableFreshness, InvalidOrExpiredRouteIsAlwaysReplaceable) {
  RoutingTable table;
  table.update(7, 3, 2, 10, true, 100.0);
  EXPECT_FALSE(offered(table, 9, true, 1, 50.0));  // valid: older seq loses
  EXPECT_TRUE(offered(table, 9, true, 9, 100.0));  // expired: anything wins
  table.invalidate(7);
  EXPECT_TRUE(offered(table, 1, true, 9, 0.0));    // invalid: anything wins
}

TEST(RoutingTableFreshness, OfferToUnknownDestinationInstalls) {
  RoutingTable table;
  EXPECT_TRUE(offered(table, 0, /*seq_valid=*/false, 9, 0.0));
  EXPECT_TRUE(table.offer(7, 3, 2, 10, true, 100.0, 0.0));
  EXPECT_EQ(table.size(), 1U);
}

TEST(RoutingTableFreshness, HintKeepsSeqAndLosesToShorterActiveRoute) {
  RoutingTable table;
  table.update(7, 3, 4, 10, true, 100.0);
  const Route before = *table.find(7);
  // An active route with fewer hops wins, and the entry is untouched.
  EXPECT_FALSE(table.offer_hint(7, 4, 5, 200.0, 0.0));
  EXPECT_TRUE(same_route(*table.find(7), before));
  // Fewer hops: installed, sequence number kept.
  EXPECT_TRUE(table.offer_hint(7, 4, 2, 150.0, 0.0));
  EXPECT_TRUE(same_route(*table.find(7), Route{4, 10, 2, true, true, 150.0}));
  // Equal hops: installed too.
  EXPECT_TRUE(table.offer_hint(7, 5, 2, 160.0, 0.0));
  EXPECT_EQ(table.find(7)->next_hop, 5U);
  // More hops over an expired route: installed, sequence number kept.
  EXPECT_TRUE(table.offer_hint(7, 6, 9, 300.0, 160.0));
  EXPECT_TRUE(same_route(*table.find(7), Route{6, 10, 9, true, true, 300.0}));
  // More hops over an invalidated route: installed with the bumped seq.
  table.invalidate(7);
  EXPECT_TRUE(table.offer_hint(7, 3, 12, 310.0, 170.0));
  EXPECT_TRUE(same_route(*table.find(7), Route{3, 11, 12, true, true, 310.0}));
  // Unknown destination: installed without sequence information.
  EXPECT_TRUE(table.offer_hint(8, 3, 4, 100.0, 0.0));
  EXPECT_TRUE(same_route(*table.find(8), Route{3, 0, 4, false, true, 100.0}));
}

// --------------------------------------------------------- expiry corner --

TEST(RoutingTableExpiry, ExpiryInvalidatesButKeepsSeq) {
  RoutingTable table;
  table.update(7, 3, 2, 10, true, 100.0);
  // find_active at/past the expiry invalidates as a side effect …
  EXPECT_EQ(table.find_active(7, 100.0), nullptr);
  const Route* r = table.find(7);
  ASSERT_NE(r, nullptr);
  EXPECT_FALSE(r->valid);
  // … but the sequence number survives for future freshness comparisons
  // (it was NOT bumped — that only happens on invalidate()).
  EXPECT_EQ(r->dst_seq, 10U);
  EXPECT_TRUE(r->seq_valid);
  EXPECT_TRUE(offered(table, 9, true, 1, 100.0));  // replaceable
}

TEST(RoutingTableExpiry, InvalidateBumpsSeqOnceAndOnlyWhileValid) {
  RoutingTable table;
  table.update(7, 3, 2, 10, true, 100.0);
  EXPECT_TRUE(table.invalidate(7));
  EXPECT_EQ(table.find(7)->dst_seq, 11U);  // §6.11 increment
  EXPECT_TRUE(table.invalidate(7));        // already invalid: entry exists …
  EXPECT_EQ(table.find(7)->dst_seq, 11U);  // … but no double bump
}

TEST(RoutingTableExpiry, UpdateOnlyExtendsLifetime) {
  RoutingTable table;
  table.update(7, 3, 2, 10, true, 100.0);
  // A re-install with a shorter lifetime must not shorten the route's life
  // (update() keeps the max expiry).
  table.update(7, 4, 1, 11, true, 50.0);
  EXPECT_NE(table.find_active(7, 99.0), nullptr);
  EXPECT_EQ(table.find_active(7, 99.0)->next_hop, 4U);
}

// ------------------------------------------------------------ precursors --

TEST(RoutingTablePrecursors, SurviveUpdate) {
  RoutingTable table;
  table.update(7, 3, 2, 10, true, 100.0);
  table.add_precursor(7, 5);
  table.add_precursor(7, 6);
  // A fresher install to the same destination keeps the precursor list:
  // the downstream nodes still route through us.
  table.update(7, 4, 1, 11, true, 200.0);
  ASSERT_NE(table.find(7), nullptr);
  EXPECT_EQ(precursors_of(table, 7), (std::vector<NodeId>{5, 6}));
}

TEST(RoutingTablePrecursors, AscendingUniqueAndPerDestination) {
  RoutingTable table;
  table.update(7, 3, 2, 10, true, 100.0);
  table.update(8, 3, 2, 10, true, 100.0);
  table.add_precursor(7, 9);
  table.add_precursor(8, 1);
  table.add_precursor(7, 2);
  table.add_precursor(7, 9);  // already known: no duplicate
  table.add_precursor(8, 0xfffffffdU);
  EXPECT_EQ(precursors_of(table, 7), (std::vector<NodeId>{2, 9}));
  EXPECT_EQ(precursors_of(table, 8), (std::vector<NodeId>{1, 0xfffffffdU}));
  EXPECT_TRUE(precursors_of(table, 6).empty());
  EXPECT_TRUE(precursors_of(table, 9).empty());
}

TEST(RoutingTablePrecursors, CountedInMemoryBytes) {
  RoutingTable table;
  table.update(7, 3, 2, 10, true, 100.0);
  const std::size_t slots_only = table.memory_bytes();
  for (NodeId p = 0; p < 20; ++p) table.add_precursor(7, p);
  EXPECT_GE(table.memory_bytes(), slots_only + 20 * sizeof(std::uint64_t));
}

TEST(RoutingTablePrecursors, AddToUnknownDestinationIsNoOp) {
  RoutingTable table;
  table.add_precursor(42, 5);
  EXPECT_EQ(table.find(42), nullptr);
  EXPECT_EQ(table.size(), 0U);
  EXPECT_TRUE(precursors_of(table, 42).empty());
}

// ------------------------------------------------------- slot lifecycle --

TEST(RoutingTableLifecycle, ClearResetsSlotStateForReuse) {
  RoutingTable table;
  table.update(7, 3, 2, 10, true, 100.0);
  table.add_precursor(7, 5);
  const std::size_t bytes = table.memory_bytes();
  table.clear();
  EXPECT_EQ(table.size(), 0U);
  EXPECT_EQ(table.find(7), nullptr);
  EXPECT_EQ(table.memory_bytes(), bytes);  // slots and pair capacity kept
  // Re-installing the same destination after a crash wipe must start from
  // a pristine slot: no leftover precursors, and a lifetime shorter than
  // the pre-crash one must stick (no stale max-expiry carryover).
  Route& r = table.update(7, 4, 1, 2, true, 30.0);
  EXPECT_TRUE(precursors_of(table, 7).empty());
  EXPECT_EQ(r.expires, 30.0);
  EXPECT_EQ(table.find_active(7, 50.0), nullptr);  // 30 s lifetime, not 100
}

// An offer or hint to a known destination never grows the map, even at
// the load threshold where the next insert would: a Route* taken before
// it stays valid.
TEST(RoutingTableLifecycle, OffersToKnownDestinationsNeverMoveSlots) {
  // n entries, such that inserting one more grows the slot arrays.
  NodeId n = 1;
  {
    RoutingTable probe;
    probe.update(0, 1, 2, 1, true, 100.0);
    for (;; ++n) {
      const std::size_t bytes = probe.memory_bytes();
      probe.update(n, 1, 2, 1, true, 100.0);
      if (probe.memory_bytes() > bytes) break;
    }
  }
  RoutingTable table;
  for (NodeId dst = 0; dst < n; ++dst) table.update(dst, 1, 2, 1, true, 100.0);
  const Route* r = table.find(0);
  const std::size_t bytes = table.memory_bytes();
  EXPECT_TRUE(table.offer(0, 2, 2, 2, true, 100.0, 0.0));    // newer seq
  EXPECT_FALSE(table.offer(0, 3, 1, 1, true, 100.0, 0.0));   // older seq
  EXPECT_TRUE(table.offer_hint(0, 4, 1, 100.0, 0.0));        // fewer hops
  EXPECT_FALSE(table.offer_hint(0, 5, 9, 100.0, 0.0));       // more hops
  EXPECT_EQ(table.memory_bytes(), bytes);
  EXPECT_EQ(table.find(0), r);
  EXPECT_EQ(r->next_hop, 4U);
}

TEST(RoutingTableLifecycle, SizeCountsEntriesNotValidity) {
  RoutingTable table;
  table.update(7, 3, 2, 10, true, 100.0);
  table.update(9, 3, 1, 1, true, 100.0);
  EXPECT_EQ(table.size(), 2U);
  table.invalidate(7);
  EXPECT_EQ(table.size(), 2U);  // invalid entries are still entries
}

TEST(RoutingTableLifecycle, AllViewSeesEveryEntry) {
  RoutingTable table;
  table.update(2, 3, 2, 10, true, 100.0);
  table.update(40, 3, 1, 1, true, 100.0);
  table.invalidate(40);
  std::size_t seen = 0;
  bool saw_invalid = false;
  for (const auto& [dst, route] : table.all()) {
    ++seen;
    if (dst == 40) saw_invalid = !route.valid;
  }
  EXPECT_EQ(seen, 2U);
  EXPECT_EQ(table.all().size(), 2U);
  EXPECT_TRUE(saw_invalid);
}

// ------------------------------------------------------ destinations_via --

TEST(RoutingTableVia, BufferOverloadMatchesAndSkipsInactive) {
  RoutingTable table;
  table.update(7, 3, 2, 1, true, 100.0);
  table.update(8, 3, 3, 1, true, 100.0);
  table.update(9, 4, 1, 1, true, 100.0);
  table.update(10, 3, 2, 1, true, 100.0);
  table.invalidate(10);                    // invalid: not "via" anymore
  table.update(11, 3, 2, 1, true, 20.0);   // expires before the query time

  std::vector<NodeId> buf{99, 99};         // stale contents must be cleared
  table.destinations_via(3, 50.0, &buf);
  EXPECT_EQ(buf, (std::vector<NodeId>{7, 8}));

  table.destinations_via(5, 50.0, &buf);
  EXPECT_TRUE(buf.empty());
}

// ------------------------------------------------------ reference model --

// Test-only oracle: the RFC 3561 table semantics over an ordered
// std::map<NodeId, Route>, whose iteration order is the ascending-
// destination contract of destinations_via and all(), with each route's
// precursors in a std::set.
struct MapRoutingTable {
  std::map<NodeId, Route> routes;
  std::map<NodeId, std::set<NodeId>> precursors;

  Route* find_active(NodeId dst, double now) {
    const auto it = routes.find(dst);
    if (it == routes.end() || !it->second.valid) return nullptr;
    if (it->second.expires <= now) {
      it->second.valid = false;
      return nullptr;
    }
    return &it->second;
  }
  bool is_better(NodeId dst, std::uint32_t seq, std::uint8_t hops,
                 double now) const {
    const auto it = routes.find(dst);
    if (it == routes.end()) return true;
    const Route& r = it->second;
    if (!r.valid || r.expires <= now || !r.seq_valid) return true;
    const auto newer = static_cast<std::int32_t>(seq - r.dst_seq);
    return newer > 0 || (newer == 0 && hops < r.hop_count);
  }
  void update(NodeId dst, NodeId via, std::uint8_t hops, std::uint32_t seq,
              double expires) {
    Route& r = routes[dst];
    r.next_hop = via;
    r.hop_count = hops;
    r.dst_seq = seq;
    r.seq_valid = true;
    r.valid = true;
    r.expires = std::max(r.expires, expires);
  }
  bool hint(NodeId dst, NodeId via, std::uint8_t hops, double expires,
            double now) {
    const auto it = routes.find(dst);
    if (it != routes.end() && it->second.valid && it->second.expires > now &&
        hops > it->second.hop_count) {
      return false;
    }
    Route& r = routes[dst];  // a new entry has seq 0, no seq information
    r.next_hop = via;
    r.hop_count = hops;
    r.valid = true;
    r.expires = std::max(r.expires, expires);
    return true;
  }
  void refresh(NodeId dst, double expires) {
    const auto it = routes.find(dst);
    if (it == routes.end() || !it->second.valid) return;
    it->second.expires = std::max(it->second.expires, expires);
  }
  bool invalidate(NodeId dst) {
    const auto it = routes.find(dst);
    if (it == routes.end()) return false;
    if (it->second.valid) {
      it->second.valid = false;
      ++it->second.dst_seq;
      it->second.seq_valid = true;
    }
    return true;
  }
  void add_precursor(NodeId dst, NodeId pre) {
    if (routes.count(dst) != 0) precursors[dst].insert(pre);
  }
  std::vector<NodeId> precursors_of(NodeId dst) const {
    const auto it = precursors.find(dst);
    if (it == precursors.end()) return {};
    return {it->second.begin(), it->second.end()};
  }
  void clear() {
    routes.clear();
    precursors.clear();
  }
  std::vector<NodeId> destinations_via(NodeId via, double now) const {
    std::vector<NodeId> out;
    for (const auto& [dst, r] : routes) {
      if (r.valid && r.expires > now && r.next_hop == via) out.push_back(dst);
    }
    return out;
  }
};

// Every observable output must match the reference: find, size,
// destinations_via order, and all() iteration order. One scripted
// pseudo-random history (offers, hints, refreshes, invalidations,
// precursors, expiries, a mid-run clear) is applied to both, comparing at checkpoints.
TEST(RoutingTable, MatchesMapReferenceUnderScriptedHistory) {
  RoutingTable table;
  MapRoutingTable model;

  const auto expect_same = [&](double now) {
    ASSERT_EQ(table.size(), model.routes.size());
    for (NodeId dst = 0; dst < 64; ++dst) {
      const Route* a = table.find(dst);
      const auto it = model.routes.find(dst);
      ASSERT_EQ(a == nullptr, it == model.routes.end()) << "dst " << dst;
      if (a == nullptr) continue;
      const Route& b = it->second;
      EXPECT_EQ(a->next_hop, b.next_hop);
      EXPECT_EQ(a->hop_count, b.hop_count);
      EXPECT_EQ(a->dst_seq, b.dst_seq);
      EXPECT_EQ(a->seq_valid, b.seq_valid);
      EXPECT_EQ(a->valid, b.valid);
      EXPECT_EQ(a->expires, b.expires);
    }
    for (NodeId dst = 0; dst < 64; ++dst) {
      EXPECT_EQ(precursors_of(table, dst), model.precursors_of(dst))
          << "dst " << dst;
    }
    for (NodeId hop = 0; hop < 8; ++hop) {
      EXPECT_EQ(via(table, hop, now), model.destinations_via(hop, now));
    }
    std::vector<NodeId> order;
    for (const auto& [dst, route] : table.all()) order.push_back(dst);
    std::vector<NodeId> expect_order;
    for (const auto& [dst, route] : model.routes) expect_order.push_back(dst);
    EXPECT_EQ(order, expect_order);
  };

  std::uint64_t x = 12345;  // deterministic LCG-driven op script
  const auto next = [&x](std::uint64_t mod) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint64_t>((x >> 33) % mod);
  };
  for (int step = 0; step < 800; ++step) {
    const double now = static_cast<double>(step);
    const auto dst = static_cast<NodeId>(next(64));
    switch (next(7)) {
      case 0:
      case 1: {
        const auto via = static_cast<NodeId>(next(8));
        const auto hops = static_cast<std::uint8_t>(1 + next(4));
        const auto seq = static_cast<std::uint32_t>(next(32));
        const double expires = now + static_cast<double>(1 + next(40));
        const bool better = model.is_better(dst, seq, hops, now);
        ASSERT_EQ(table.offer(dst, via, hops, seq, true, expires, now),
                  better);
        if (better) model.update(dst, via, hops, seq, expires);
        break;
      }
      case 6: {
        const auto via = static_cast<NodeId>(next(8));
        const auto hops = static_cast<std::uint8_t>(1 + next(4));
        const double expires = now + static_cast<double>(1 + next(40));
        ASSERT_EQ(table.offer_hint(dst, via, hops, expires, now),
                  model.hint(dst, via, hops, expires, now));
        break;
      }
      case 2:
        table.refresh(dst, now + 30.0);
        model.refresh(dst, now + 30.0);
        break;
      case 3:
        ASSERT_EQ(table.invalidate(dst), model.invalidate(dst));
        break;
      case 4: {
        const auto pre = static_cast<NodeId>(next(8));
        table.add_precursor(dst, pre);
        model.add_precursor(dst, pre);
        break;
      }
      case 5:
        // find_active has the lazy-expiry side effect; exercise it.
        ASSERT_EQ(table.find_active(dst, now) == nullptr,
                  model.find_active(dst, now) == nullptr);
        break;
    }
    if (step == 400) {  // crash/rebirth mid-history
      table.clear();
      model.clear();
    }
    if (step % 97 == 0) expect_same(now);
  }
  expect_same(800.0);
  EXPECT_GT(table.size(), 0U);  // the script actually exercised the table
}

}  // namespace
