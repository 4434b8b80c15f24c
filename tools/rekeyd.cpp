// rekeyd — the batch-rekey key server on a real UDP socket.
//
// Binds one datagram socket, waits until load generators (rekey_load)
// have subscribed every uid in [0, clients), then runs `--batches` churn
// batches of the paper's protocol over the wire and prints a JSON stats
// document on stdout. Exit code 0 means the daemon met its contract:
// either every batch it was responsible for ran (a standby the primary
// retired with Fin also counts), or a --blackout window killed it on
// schedule; endpoints that died are reported in the stats, not fatal.
//
// Replication: `--replica-of HOST:PORT` names the peer. The primary
// ships a sealed full-state snapshot to it before every batch; a
// `--standby` process restores those snapshots and promotes itself —
// higher fencing epoch, same deterministic batch replay — once the
// primary has been silent past --elect-timeout-ms. `--blackout A:B`
// kills the process at protocol-clock ms A (deterministic: the clock
// advances --round-quantum-ms per lockstep step, never wall time).
//
// Group size is no longer bounded by the legacy 16-bit slot ids: the
// daemon negotiates the wide-slot (v2) control frames automatically when
// the tree's slot ids could outgrow u16, so one group instance scales to
// millions of members — see README "Wire protocol versions".
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/json.h"
#include "wire/daemon.h"
#include "wire/udp.h"

namespace {

using namespace rekey;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --clients N [options]\n"
               "  --bind A.B.C.D:PORT   listen address (default :9915)\n"
               "  --clients N           fleet size the daemon waits for\n"
               "  --batches B           churn batches to run (default 1)\n"
               "  --joins J             joins per batch (default 8)\n"
               "  --leaves L            leaves per batch (default 8)\n"
               "  --churn-pool P        silent churn members (default 64)\n"
               "  --degree D            key tree degree (default 4)\n"
               "  --packet-size S       ENC packet size (default 1027)\n"
               "  --rho R               initial proactivity factor\n"
               "  --no-adaptive-rho     freeze rho at its initial value\n"
               "  --max-rounds R        multicast rounds before unicast "
               "(default 8, at most the round cap, %d)\n"
               "  --round-wait-ms MS    report-collection deadline\n"
               "  --retry-ms MS         control retransmit cadence\n"
               "  --mtu BYTES           datagram size cap (default 1500)\n"
               "  --seed S              key material seed\n"
               "  --shards S            key-tree shards, power of two "
               "(default 1)\n"
               "  --workers W           rekey worker threads (0 = auto, "
               "default 1)\n"
               "  --wire V              wire version: 0 auto (default), "
               "1 legacy u16 slots, 2 wide\n"
               "  --replica-of A.B:PORT peer daemon for snapshot "
               "replication\n"
               "  --standby             run as warm standby (requires "
               "--replica-of)\n"
               "  --elect-timeout-ms MS standby promotes after this much "
               "primary silence\n"
               "  --heartbeat-ms MS     primary->standby heartbeat cadence "
               "(0 = retry-ms)\n"
               "  --blackout A:B        die at protocol-clock ms A "
               "(repeatable; B ends the window)\n"
               "  --round-quantum-ms MS protocol-clock advance per lockstep "
               "step (default 100)\n",
               argv0, transport::ProtocolConfig{}.max_rounds_cap);
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
  std::string bind_spec = ":9915";
  std::size_t mtu = 1500;
  bool churn_pool_set = false;
  wire::DaemonConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--bind" && i + 1 < argc) {
      bind_spec = argv[++i];
    } else if (a == "--clients") {
      cfg.clients = static_cast<std::uint32_t>(arg_int(argc, argv, i));
    } else if (a == "--batches") {
      cfg.batches = static_cast<std::uint32_t>(arg_int(argc, argv, i));
    } else if (a == "--joins") {
      cfg.churn_joins = static_cast<std::uint32_t>(arg_int(argc, argv, i));
    } else if (a == "--leaves") {
      cfg.churn_leaves = static_cast<std::uint32_t>(arg_int(argc, argv, i));
    } else if (a == "--churn-pool") {
      cfg.churn_pool = static_cast<std::uint32_t>(arg_int(argc, argv, i));
      churn_pool_set = true;
    } else if (a == "--degree") {
      cfg.degree = static_cast<unsigned>(arg_int(argc, argv, i));
    } else if (a == "--packet-size") {
      cfg.protocol.packet_size =
          static_cast<std::size_t>(arg_int(argc, argv, i));
    } else if (a == "--rho" && i + 1 < argc) {
      cfg.protocol.initial_rho = std::atof(argv[++i]);
    } else if (a == "--no-adaptive-rho") {
      cfg.protocol.adaptive_rho = false;
    } else if (a == "--max-rounds") {
      cfg.max_multicast_rounds = static_cast<int>(arg_int(argc, argv, i));
    } else if (a == "--round-wait-ms") {
      cfg.round_wait_ms = static_cast<int>(arg_int(argc, argv, i));
    } else if (a == "--retry-ms") {
      cfg.retry_ms = static_cast<int>(arg_int(argc, argv, i));
    } else if (a == "--mtu") {
      mtu = static_cast<std::size_t>(arg_int(argc, argv, i));
    } else if (a == "--seed") {
      cfg.key_seed = static_cast<std::uint64_t>(arg_int(argc, argv, i));
    } else if (a == "--shards") {
      cfg.shards = static_cast<unsigned>(arg_int(argc, argv, i));
    } else if (a == "--workers") {
      cfg.worker_threads = static_cast<unsigned>(arg_int(argc, argv, i));
    } else if (a == "--wire") {
      cfg.wire_version = static_cast<unsigned>(arg_int(argc, argv, i));
    } else if (a == "--replica-of" && i + 1 < argc) {
      const auto peer = wire::parse_endpoint(argv[++i]);
      if (!peer) {
        std::fprintf(stderr, "rekeyd: bad --replica-of %s\n", argv[i]);
        return 2;
      }
      cfg.peer = *peer;
    } else if (a == "--standby") {
      cfg.standby = true;
    } else if (a == "--elect-timeout-ms") {
      cfg.elect_timeout_ms = static_cast<int>(arg_int(argc, argv, i));
    } else if (a == "--heartbeat-ms") {
      cfg.heartbeat_ms = static_cast<int>(arg_int(argc, argv, i));
    } else if (a == "--blackout" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const auto colon = spec.find(':');
      char* e1 = nullptr;
      char* e2 = nullptr;
      double start = 0.0, end = 0.0;
      if (colon != std::string::npos) {
        start = std::strtod(spec.c_str(), &e1);
        end = std::strtod(spec.c_str() + colon + 1, &e2);
      }
      if (colon == std::string::npos || e1 != spec.c_str() + colon ||
          *e2 != '\0' || end <= start) {
        std::fprintf(stderr, "rekeyd: bad --blackout %s (want START:END)\n",
                     spec.c_str());
        return 2;
      }
      cfg.fault.blackouts.push_back({start, end});
    } else if (a == "--round-quantum-ms" && i + 1 < argc) {
      cfg.round_quantum_ms = std::atof(argv[++i]);
    } else {
      usage(argv[0]);
    }
  }
  if (cfg.clients == 0) usage(argv[0]);
  if (cfg.standby && !cfg.peer.has_value()) {
    std::fprintf(stderr, "rekeyd: --standby requires --replica-of\n");
    return 2;
  }
  // The silent pool must absorb each batch's leaves; grow the default to
  // fit large --joins/--leaves instead of aborting on the size check.
  if (!churn_pool_set)
    cfg.churn_pool = std::max(
        {cfg.churn_pool, 2 * cfg.churn_joins, 2 * cfg.churn_leaves});

  const auto bind_ep = wire::parse_endpoint(bind_spec);
  if (!bind_ep) {
    std::fprintf(stderr, "rekeyd: bad --bind %s\n", bind_spec.c_str());
    return 2;
  }

  wire::UdpWire udp(wire::endpoint_addr(*bind_ep),
                    wire::endpoint_port(*bind_ep), mtu);
  if (cfg.standby)
    std::fprintf(stderr, "rekeyd: standby on %s, watching primary %s\n",
                 wire::endpoint_to_string(udp.local_endpoint()).c_str(),
                 wire::endpoint_to_string(*cfg.peer).c_str());
  else
    std::fprintf(stderr, "rekeyd: listening on %s, waiting for %u clients\n",
                 wire::endpoint_to_string(udp.local_endpoint()).c_str(),
                 cfg.clients);

  wire::KeyServerDaemon daemon(udp, cfg);
  const wire::DaemonStats st = daemon.run();

  Json out = Json::object();
  out.set("tool", "rekeyd");
  out.set("clients", cfg.clients);
  out.set("endpoints", st.endpoints);
  out.set("batches_run", st.batches_run);
  out.set("enc_packets", st.enc_packets);
  out.set("slots", st.slots);
  out.set("data_frames", st.data_frames);
  out.set("data_bytes", st.data_bytes);
  out.set("proactive_parities", st.proactive_parities);
  out.set("reactive_parities", st.reactive_parities);
  out.set("rounds", st.rounds);
  out.set("unicast_waves", st.unicast_waves);
  out.set("usr_frags", st.usr_frags);
  out.set("control_frames", st.control_frames);
  out.set("control_retransmits", st.control_retransmits);
  out.set("reports", st.reports);
  out.set("nack_users", st.nack_users);
  out.set("recovered", st.recovered);
  out.set("via_usr", st.via_usr);
  out.set("gave_up", st.gave_up);
  out.set("gave_up_dead", st.gave_up_dead);
  out.set("endpoints_dropped", st.endpoints_dropped);
  out.set("endpoints_incompatible", st.endpoints_incompatible);
  out.set("wire_version", st.wire_version);
  out.set("rho_final", st.rho_final);
  out.set("snapshots_sent", st.snapshots_sent);
  out.set("snapshot_chunks", st.snapshot_chunks);
  out.set("snapshots_restored", st.snapshots_restored);
  out.set("resubs", st.resubs);
  out.set("epoch", st.epoch);
  out.set("promoted", st.promoted);
  out.set("died", st.died);
  out.set("died_at_ms", st.died_at_ms);
  out.set("completed", st.completed);
  std::cout << out.dump(2) << "\n";

  // A scheduled blackout death is a planned outcome, not a failure — the
  // CI failover smoke kills the primary this way and still wants exit 0.
  return st.completed || st.died ? 0 : 1;
}
