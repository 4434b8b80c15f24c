// Real-socket end-to-end tests: KeyServerDaemon and ClientFleet over
// actual UDP on 127.0.0.1 with ephemeral ports. The tier-1 cases keep N
// small; the soak case is the acceptance run — a full N = 2^15 churn
// batch where every client must recover.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "wire/daemon.h"
#include "wire/fleet.h"
#include "wire/udp.h"

namespace rekey::wire {
namespace {

constexpr std::uint32_t kLoopback = 0x7F000001;

struct UdpRun {
  DaemonStats daemon;
  std::vector<FleetStats> fleets;
};

UdpRun run_udp(DaemonConfig dc, const std::vector<FleetConfig>& fleet_configs,
               std::size_t mtu = 1500) {
  UdpWire daemon_wire(kLoopback, 0, mtu);
  const Endpoint server = daemon_wire.local_endpoint();
  KeyServerDaemon daemon(daemon_wire, dc);
  UdpRun r;
  r.fleets.resize(fleet_configs.size());
  std::thread daemon_thread([&] { r.daemon = daemon.run(); });
  std::vector<std::thread> fleet_threads;
  for (std::size_t i = 0; i < fleet_configs.size(); ++i) {
    fleet_threads.emplace_back([&, i] {
      UdpWire wire(kLoopback, 0, mtu);
      ClientFleet fleet(wire, server, fleet_configs[i]);
      r.fleets[i] = fleet.run();
    });
  }
  for (auto& t : fleet_threads) t.join();
  daemon_thread.join();
  return r;
}

FleetConfig slice(std::uint32_t first, std::uint32_t count) {
  FleetConfig fc;
  fc.first_uid = first;
  fc.count = count;
  fc.retry_ms = 20;
  fc.idle_timeout_ms = 60000;
  return fc;
}

TEST(WireUdp, EndpointPackingRoundtrips) {
  const Endpoint e = make_endpoint(0xC0A80164, 54321);
  EXPECT_EQ(endpoint_addr(e), 0xC0A80164u);
  EXPECT_EQ(endpoint_port(e), 54321);
  const auto parsed = parse_endpoint("192.168.1.100:54321");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->id, e.id);
  EXPECT_EQ(endpoint_to_string(e), "192.168.1.100:54321");
  const auto local = parse_endpoint(":9000");
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(endpoint_addr(*local), kLoopback);
  EXPECT_FALSE(parse_endpoint("no-port").has_value());
  EXPECT_FALSE(parse_endpoint("1.2.3.4:99999").has_value());
  EXPECT_FALSE(parse_endpoint("1.2.3:5").has_value());
}

TEST(WireUdp, DatagramsRoundtripThroughRealSockets) {
  UdpWire a(kLoopback, 0);
  UdpWire b(kLoopback, 0);
  EXPECT_EQ(a.max_payload(), 1500u - 28u - 1u);
  const Bytes payload{1, 2, 3, 4, 5};
  ASSERT_TRUE(a.send(b.local_endpoint(), kChanControl, payload));
  std::vector<Datagram> in;
  ASSERT_EQ(b.receive(in, 2000), 1u);
  EXPECT_EQ(in[0].channel, kChanControl);
  EXPECT_EQ(in[0].payload, payload);
  EXPECT_EQ(in[0].from.id, a.local_endpoint().id);
  // Reply addressing: the receiver can answer the sender's from-endpoint.
  ASSERT_TRUE(b.send(in[0].from, kChanData, payload));
  in.clear();
  ASSERT_EQ(a.receive(in, 2000), 1u);
  EXPECT_EQ(in[0].channel, kChanData);
}

TEST(WireUdp, BurstPreservesSendOrder) {
  UdpWire a(kLoopback, 0);
  UdpWire b(kLoopback, 0);
  // The fleet's shaping draws index arrivals, so the wire must not
  // reorder a burst. At 64 datagrams per call, 300 frames take five
  // sendmmsg calls and several recvmmsg drains.
  std::vector<Bytes> bodies;
  std::vector<const Bytes*> frames;
  for (unsigned i = 0; i < 300; ++i)
    bodies.push_back(Bytes{static_cast<std::uint8_t>(i >> 8),
                           static_cast<std::uint8_t>(i & 0xFF)});
  for (const Bytes& body : bodies) frames.push_back(&body);
  ASSERT_EQ(a.send_frames(b.local_endpoint(), kChanData, frames), 300u);
  std::vector<Datagram> in;
  while (in.size() < 300 && b.receive(in, 2000) > 0) {
  }
  ASSERT_EQ(in.size(), 300u);
  for (unsigned i = 0; i < 300; ++i) {
    ASSERT_EQ(in[i].payload.size(), 2u);
    EXPECT_EQ((unsigned{in[i].payload[0]} << 8) | in[i].payload[1], i);
  }
}

TEST(WireUdp, OversizePayloadIsRefusedNotTruncated) {
  UdpWire a(kLoopback, 0, 600);
  UdpWire b(kLoopback, 0, 600);
  EXPECT_EQ(a.max_payload(), 600u - 28u - 1u);
  const Bytes too_big(a.max_payload() + 1, 0xEE);
  EXPECT_FALSE(a.send(b.local_endpoint(), kChanData, too_big));
  const Bytes exact(a.max_payload(), 0xEE);
  EXPECT_TRUE(a.send(b.local_endpoint(), kChanData, exact));
  std::vector<Datagram> in;
  ASSERT_EQ(b.receive(in, 2000), 1u);
  EXPECT_EQ(in[0].payload.size(), exact.size());
}

TEST(WireUdp, SmallSessionRecoversOverRealSockets) {
  DaemonConfig dc;
  dc.clients = 256;
  dc.batches = 2;
  dc.churn_pool = 64;
  dc.churn_joins = 24;
  dc.churn_leaves = 24;
  dc.retry_ms = 20;
  dc.round_wait_ms = 20000;
  auto r = run_udp(dc, {slice(0, 128), slice(128, 128)});
  EXPECT_EQ(r.daemon.batches_run, 2u);
  EXPECT_EQ(r.daemon.recovered, 512u);
  EXPECT_EQ(r.daemon.gave_up, 0u);
  EXPECT_EQ(r.daemon.endpoints, 2u);
  for (const FleetStats& fs : r.fleets) {
    EXPECT_TRUE(fs.finished);
    EXPECT_EQ(fs.unrecovered, 0u);
  }
}

TEST(WireUdp, ShapedLossRecoversOverRealSockets) {
  DaemonConfig dc;
  dc.clients = 192;
  dc.batches = 1;
  dc.churn_pool = 128;
  dc.churn_joins = 64;
  dc.churn_leaves = 64;
  dc.protocol.packet_size = 300;  // several FEC blocks => real NACK traffic
  dc.retry_ms = 20;
  dc.round_wait_ms = 20000;
  auto fc = slice(0, 192);
  fc.shaping.down_loss = 0.2;
  fc.shaping.up_loss = 0.1;
  fc.shaping.seed = 0x51CC;
  auto r = run_udp(dc, {fc});
  EXPECT_EQ(r.daemon.recovered, 192u);
  EXPECT_EQ(r.daemon.gave_up, 0u);
  EXPECT_GT(r.fleets[0].shaped_off, 0u);
  EXPECT_TRUE(r.fleets[0].finished);
  EXPECT_EQ(r.fleets[0].unrecovered, 0u);
}

// Acceptance run: a full 2^15-client churn batch over UDP loopback with
// every client recovering. Four fleet endpoints multiplex 8192 virtual
// clients each — the tools/rekey_load architecture in miniature.
TEST(WireUdpSoak, FullChurnBatchAt32768Clients) {
  constexpr std::uint32_t kN = 1u << 15;
  DaemonConfig dc;
  dc.clients = kN;
  dc.batches = 1;
  dc.churn_pool = 1024;
  dc.churn_joins = 512;
  dc.churn_leaves = 512;
  dc.retry_ms = 50;
  dc.round_wait_ms = 120000;
  std::vector<FleetConfig> fleets;
  for (std::uint32_t i = 0; i < 4; ++i) {
    auto fc = slice(i * (kN / 4), kN / 4);
    fc.idle_timeout_ms = 180000;
    fleets.push_back(fc);
  }
  auto r = run_udp(dc, fleets);
  EXPECT_EQ(r.daemon.batches_run, 1u);
  EXPECT_EQ(r.daemon.endpoints, 4u);
  EXPECT_EQ(r.daemon.recovered, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(r.daemon.gave_up, 0u);
  for (const FleetStats& fs : r.fleets) {
    EXPECT_TRUE(fs.finished);
    EXPECT_EQ(fs.recovered, fs.clients);
    EXPECT_EQ(fs.unrecovered, 0u);
  }
}

}  // namespace
}  // namespace rekey::wire
