// rekey_load — the client-side load generator for rekeyd.
//
// Multiplexes `--clients` virtual rekey clients over `--threads` OS
// threads: each thread owns one UDP socket and one wire::ClientFleet
// speaking for a contiguous uid slice, so 10^5 clients cost ~8 sockets
// and ~8 receive loops, not 10^5 of either. (A single group is no longer
// bounded by 16-bit slot ids: the fleet advertises the wide-slot v2
// frames and the server picks the session version; --wire 1 emulates a
// legacy client.)
//
// Deterministic loss shaping (--down-loss / --up-loss / --shape-seed) is
// applied per virtual client inside the fleet, so a lossy run is exactly
// reproducible regardless of socket timing.
//
// Exit 0 iff every fleet saw the daemon's Fin and every client-batch
// recovered the group key (use --allow-unrecovered with lossy shaping
// where the daemon's give-up path is the expected outcome).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/stats.h"
#include "wire/fleet.h"
#include "wire/udp.h"

namespace {

using namespace rekey;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --server A.B.C.D:PORT --clients N [options]\n"
               "  --threads T           fleets/sockets to spread over "
               "(default 4)\n"
               "  --first-uid U         base uid of this process (default 0)\n"
               "  --down-loss P         P(client misses a data frame)\n"
               "  --up-loss P           P(client NACK suppressed per round)\n"
               "  --shape-seed S        shaping determinism seed\n"
               "  --mtu BYTES           datagram size cap (default 1500)\n"
               "  --idle-timeout-ms MS  abort if the server goes silent\n"
               "  --allow-unrecovered   don't fail on abandoned clients\n"
               "  --wire V              max wire version to advertise "
               "(default 2)\n"
               "  --failover A.B:PORT   standby endpoint to adopt on a "
               "higher-epoch BatchStart (repeatable)\n",
               argv0);
  std::exit(2);
}

long long arg_int(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage(argv[0]);
  char* end = nullptr;
  const long long v = std::strtoll(argv[++i], &end, 10);
  if (end == argv[i] || *end != '\0') usage(argv[0]);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string server_spec;
  std::uint32_t clients = 0;
  std::uint32_t first_uid = 0;
  unsigned threads = 4;
  std::size_t mtu = 1500;
  int idle_timeout_ms = 30000;
  bool allow_unrecovered = false;
  unsigned max_wire = wire::kMaxWireVersion;
  wire::ShapingConfig shaping;
  std::vector<wire::Endpoint> failover;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--server" && i + 1 < argc) {
      server_spec = argv[++i];
    } else if (a == "--clients") {
      clients = static_cast<std::uint32_t>(arg_int(argc, argv, i));
    } else if (a == "--threads") {
      threads = static_cast<unsigned>(arg_int(argc, argv, i));
    } else if (a == "--first-uid") {
      first_uid = static_cast<std::uint32_t>(arg_int(argc, argv, i));
    } else if (a == "--down-loss" && i + 1 < argc) {
      shaping.down_loss = std::atof(argv[++i]);
    } else if (a == "--up-loss" && i + 1 < argc) {
      shaping.up_loss = std::atof(argv[++i]);
    } else if (a == "--shape-seed") {
      shaping.seed = static_cast<std::uint64_t>(arg_int(argc, argv, i));
    } else if (a == "--mtu") {
      mtu = static_cast<std::size_t>(arg_int(argc, argv, i));
    } else if (a == "--idle-timeout-ms") {
      idle_timeout_ms = static_cast<int>(arg_int(argc, argv, i));
    } else if (a == "--allow-unrecovered") {
      allow_unrecovered = true;
    } else if (a == "--wire") {
      max_wire = static_cast<unsigned>(arg_int(argc, argv, i));
      if (max_wire < 1 || max_wire > wire::kMaxWireVersion) usage(argv[0]);
    } else if (a == "--failover" && i + 1 < argc) {
      const auto ep = wire::parse_endpoint(argv[++i]);
      if (!ep) {
        std::fprintf(stderr, "rekey_load: bad --failover %s\n", argv[i]);
        return 2;
      }
      failover.push_back(*ep);
    } else {
      usage(argv[0]);
    }
  }
  if (server_spec.empty() || clients == 0) usage(argv[0]);
  const auto server = wire::parse_endpoint(server_spec);
  if (!server) {
    std::fprintf(stderr, "rekey_load: bad --server %s\n", server_spec.c_str());
    return 2;
  }
  threads = std::max(1u, std::min(threads, clients));

  // Contiguous uid slices, remainder spread over the first fleets.
  struct Slice {
    std::uint32_t first, count;
  };
  std::vector<Slice> slices;
  const std::uint32_t base = clients / threads, extra = clients % threads;
  std::uint32_t uid = first_uid;
  for (unsigned t = 0; t < threads; ++t) {
    const std::uint32_t n = base + (t < extra ? 1 : 0);
    slices.push_back({uid, n});
    uid += n;
  }

  std::vector<wire::FleetStats> stats(slices.size());
  std::vector<std::thread> workers;
  workers.reserve(slices.size());
  for (std::size_t t = 0; t < slices.size(); ++t) {
    workers.emplace_back([&, t] {
      wire::UdpWire udp(0, 0, mtu);  // INADDR_ANY, ephemeral port
      wire::FleetConfig fc;
      fc.first_uid = slices[t].first;
      fc.count = slices[t].count;
      fc.shaping = shaping;
      fc.idle_timeout_ms = idle_timeout_ms;
      fc.max_version = static_cast<std::uint8_t>(max_wire);
      fc.failover = failover;
      wire::ClientFleet fleet(udp, *server, fc);
      stats[t] = fleet.run();
    });
  }
  for (auto& w : workers) w.join();

  wire::FleetStats sum;
  sum.finished = true;
  for (const wire::FleetStats& s : stats) {
    sum.clients += s.clients;
    sum.batches = std::max(sum.batches, s.batches);
    sum.recovered += s.recovered;
    sum.via_usr += s.via_usr;
    sum.unrecovered += s.unrecovered;
    sum.data_frames += s.data_frames;
    sum.shaped_off += s.shaped_off;
    sum.nacks_suppressed += s.nacks_suppressed;
    sum.reports_sent += s.reports_sent;
    sum.control_frames += s.control_frames;
    sum.wire_version = std::max(sum.wire_version, s.wire_version);
    sum.finished = sum.finished && s.finished;
    sum.epoch = std::max(sum.epoch, s.epoch);
    sum.failovers += s.failovers;
    sum.resubs_sent += s.resubs_sent;
    sum.recovery_ms.insert(sum.recovery_ms.end(), s.recovery_ms.begin(),
                           s.recovery_ms.end());
  }

  Json out = Json::object();
  out.set("tool", "rekey_load");
  out.set("clients", sum.clients);
  out.set("threads", static_cast<unsigned long long>(slices.size()));
  out.set("batches", sum.batches);
  out.set("recovered", sum.recovered);
  out.set("via_usr", sum.via_usr);
  out.set("unrecovered", sum.unrecovered);
  out.set("data_frames", sum.data_frames);
  out.set("shaped_off", sum.shaped_off);
  out.set("nacks_suppressed", sum.nacks_suppressed);
  out.set("reports_sent", sum.reports_sent);
  out.set("control_frames", sum.control_frames);
  out.set("wire_version", sum.wire_version);
  out.set("finished", sum.finished);
  out.set("epoch", sum.epoch);
  out.set("failovers", sum.failovers);
  out.set("resubs_sent", sum.resubs_sent);
  if (!sum.recovery_ms.empty()) {
    std::sort(sum.recovery_ms.begin(), sum.recovery_ms.end());
    const auto pct = [&](double p) {
      const std::size_t i = static_cast<std::size_t>(
          p * static_cast<double>(sum.recovery_ms.size() - 1));
      return sum.recovery_ms[i];
    };
    Json lat = Json::object();
    lat.set("p50_ms", pct(0.50));
    lat.set("p90_ms", pct(0.90));
    lat.set("p99_ms", pct(0.99));
    lat.set("max_ms", sum.recovery_ms.back());
    out.set("recovery_latency", std::move(lat));
  }
  std::printf("%s\n", out.dump(2).c_str());

  if (!sum.finished) return 1;
  if (sum.unrecovered > 0 && !allow_unrecovered) return 1;
  return 0;
}
