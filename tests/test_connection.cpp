// ConnectionTable bookkeeping and message classification.
#include <gtest/gtest.h>

#include "core/connection.hpp"
#include "core/counters.hpp"
#include "core/hybrid.hpp"
#include "core/messages.hpp"
#include "core/params.hpp"

namespace {

using namespace p2p::core;

TEST(ConnectionTable, AddFindRemove) {
  ConnectionTable table;
  Connection& conn = table.add(7, ConnKind::kRegular, true, 1.5);
  EXPECT_EQ(conn.peer, 7U);
  EXPECT_TRUE(conn.initiator);
  EXPECT_DOUBLE_EQ(conn.established, 1.5);
  EXPECT_TRUE(table.connected(7));
  ASSERT_NE(table.find(7), nullptr);
  EXPECT_EQ(table.find(7)->kind, ConnKind::kRegular);
  EXPECT_TRUE(table.remove(7));
  EXPECT_FALSE(table.connected(7));
  EXPECT_FALSE(table.remove(7));
}

TEST(ConnectionTable, CountsByKind) {
  ConnectionTable table;
  table.add(1, ConnKind::kRegular, true, 0.0);
  table.add(2, ConnKind::kRegular, false, 0.0);
  table.add(3, ConnKind::kRandom, true, 0.0);
  table.add(4, ConnKind::kSlave, false, 0.0);
  EXPECT_EQ(table.size(), 4U);
  EXPECT_EQ(table.count(ConnKind::kRegular), 2U);
  EXPECT_EQ(table.count(ConnKind::kRandom), 1U);
  EXPECT_EQ(table.count(ConnKind::kMaster), 0U);
  EXPECT_TRUE(table.has(ConnKind::kSlave));
  EXPECT_FALSE(table.has(ConnKind::kBasic));
}

TEST(ConnectionTable, PeersAreSortedById) {
  ConnectionTable table;
  table.add(9, ConnKind::kRegular, true, 0.0);
  table.add(2, ConnKind::kRandom, true, 0.0);
  table.add(5, ConnKind::kRegular, true, 0.0);
  EXPECT_EQ(table.peers(), (std::vector<p2p::net::NodeId>{2, 5, 9}));
  EXPECT_EQ(table.peers_of_kind(ConnKind::kRegular),
            (std::vector<p2p::net::NodeId>{5, 9}));
}

TEST(ConnectionTable, ConstFind) {
  ConnectionTable table;
  table.add(1, ConnKind::kBasic, true, 0.0);
  const ConnectionTable& view = table;
  EXPECT_NE(view.find(1), nullptr);
  EXPECT_EQ(view.find(2), nullptr);
}

TEST(Names, EnumsHaveReadableNames) {
  EXPECT_STREQ(conn_kind_name(ConnKind::kBasic), "basic");
  EXPECT_STREQ(conn_kind_name(ConnKind::kRandom), "random");
  EXPECT_STREQ(close_reason_name(CloseReason::kTooFar), "too-far");
  EXPECT_STREQ(close_reason_name(CloseReason::kPeerClosed), "peer-closed");
  EXPECT_STREQ(algorithm_name(AlgorithmKind::kHybrid), "Hybrid");
}

TEST(Messages, ConnectClassificationMatchesFigure7) {
  EXPECT_TRUE(is_connect_message(MsgType::kConnectProbe));
  EXPECT_TRUE(is_connect_message(MsgType::kConnectOffer));
  EXPECT_TRUE(is_connect_message(MsgType::kConnectRequest));
  EXPECT_TRUE(is_connect_message(MsgType::kConnectAck));
  EXPECT_TRUE(is_connect_message(MsgType::kCapture));
  EXPECT_TRUE(is_connect_message(MsgType::kSlaveRequest));
  EXPECT_FALSE(is_connect_message(MsgType::kPing));
  EXPECT_FALSE(is_connect_message(MsgType::kQuery));
  EXPECT_FALSE(is_connect_message(MsgType::kBye));
}

TEST(Messages, PingClassificationMatchesFigure9) {
  EXPECT_TRUE(is_ping_message(MsgType::kPing));
  EXPECT_TRUE(is_ping_message(MsgType::kPong));
  EXPECT_FALSE(is_ping_message(MsgType::kQuery));
  EXPECT_FALSE(is_ping_message(MsgType::kConnectProbe));
}

TEST(Counters, AggregatesByCategory) {
  MessageCounters counters;
  counters.count_received(MsgType::kConnectProbe);
  counters.count_received(MsgType::kConnectOffer);
  counters.count_received(MsgType::kPing);
  counters.count_received(MsgType::kPong);
  counters.count_received(MsgType::kPong);
  counters.count_received(MsgType::kQuery);
  counters.count_sent(MsgType::kQuery);
  EXPECT_EQ(counters.connect_received(), 2U);
  EXPECT_EQ(counters.ping_received(), 3U);
  EXPECT_EQ(counters.query_received(), 1U);
  EXPECT_EQ(counters.received_of(MsgType::kPong), 2U);
  EXPECT_EQ(counters.sent_of(MsgType::kQuery), 1U);
  EXPECT_EQ(counters.sent_of(MsgType::kPing), 0U);
}

TEST(Messages, SizesAreGnutellaLike) {
  // Gnutella 0.4: 22-byte header + small bodies; pong carries more.
  EXPECT_EQ(Ping{}.size_bytes(), 23U);
  EXPECT_GT(Pong{}.size_bytes(), Ping{}.size_bytes());
  EXPECT_GT(QueryHit{}.size_bytes(), Query{}.size_bytes());
}

}  // namespace
