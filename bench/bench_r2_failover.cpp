// R2 — replicated key server: failover latency vs blackout onset phase.
//
// Runs a primary/standby rekeyd pair and a set of client fleets in one
// process, each on its own UDP loopback socket. The primary ships a
// sealed full-server snapshot to the standby before every batch and
// heartbeats between lockstep steps; a FaultPlan blackout window kills
// the primary at a chosen protocol-clock step (deterministic: the clock
// advances wire::kRoundQuantumMs per lockstep step, never wall time). The
// standby elects itself after elect_timeout_ms of silence, bumps the
// fencing epoch, re-syncs the fleet via Resub, and replays the
// interrupted batch.
//
// Scenarios vary *where inside a batch* the blackout lands: never
// (replicated baseline), at the batch boundary (before BatchStart), after
// BatchStart but before the data burst, and after the multicast rounds
// but before BatchDone. Protocol counters — batches run on each side,
// died_at_ms, epoch, resubs, recoveries — are exact and golden-diffable;
// wall-clock columns (wall_ms, and the failover latency floor elect_ms)
// are hardware/config-dependent and diffed with unbounded tolerance in
// CI.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "common/ensure.h"
#include "sweep.h"
#include "wire/daemon.h"
#include "wire/fleet.h"
#include "wire/udp.h"

namespace {

using namespace rekey;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kLoopback = 0x7F000001;  // 127.0.0.1

// Zero-loss lockstep: each batch costs exactly three protocol-clock steps
// (batch boundary, the single multicast round's burst, pre-BatchDone), so
// with quantum q the death points of batch b sit at 3qb + q, 3qb + 2q,
// 3qb + 3q. Narrow windows pin one exact step.
static_assert(wire::kRoundQuantumMs == 100.0,
              "the scenario onsets below assume a 100 ms quantum");

struct Scenario {
  const char* name;
  // Blackout window for the primary; {0, 0} = no blackout.
  double onset_ms;
  double end_ms;
};

struct FailoverRun {
  wire::DaemonStats primary;
  wire::DaemonStats standby;
  wire::FleetStats fleet;  // aggregated over all fleets
  double wall_ms = 0.0;
};

struct RunParams {
  std::uint32_t clients;
  unsigned endpoints;
  std::uint32_t batches;
  std::uint32_t churn;
  int elect_timeout_ms;
};

FailoverRun run_scenario(const Scenario& sc, const RunParams& p) {
  wire::DaemonConfig dc;
  dc.clients = p.clients;
  dc.churn_pool = std::max<std::uint32_t>(64, 2 * p.churn);
  dc.batches = p.batches;
  dc.churn_joins = p.churn;
  dc.churn_leaves = p.churn;
  dc.max_multicast_rounds = 8;
  dc.round_wait_ms = 20000;
  dc.retry_ms = 20;
  dc.elect_timeout_ms = p.elect_timeout_ms;

  wire::UdpWire primary_udp(kLoopback, 0);
  wire::UdpWire standby_udp(kLoopback, 0);
  const wire::Endpoint primary_ep = primary_udp.local_endpoint();
  const wire::Endpoint standby_ep = standby_udp.local_endpoint();

  wire::DaemonConfig pc = dc;
  pc.peer = standby_ep;
  if (sc.end_ms > sc.onset_ms)
    pc.fault.blackouts.push_back({sc.onset_ms, sc.end_ms});

  wire::DaemonConfig stc = dc;
  stc.peer = primary_ep;
  stc.standby = true;

  wire::KeyServerDaemon primary(primary_udp, pc);
  wire::KeyServerDaemon standby(standby_udp, stc);

  const auto t0 = Clock::now();
  FailoverRun r;
  std::thread primary_thread([&] { r.primary = primary.run(); });
  std::thread standby_thread([&] { r.standby = standby.run(); });

  std::vector<wire::FleetStats> fss(p.endpoints);
  std::vector<std::thread> fleets;
  const std::uint32_t base = p.clients / p.endpoints;
  const std::uint32_t extra = p.clients % p.endpoints;
  std::uint32_t uid = 0;
  for (unsigned t = 0; t < p.endpoints; ++t) {
    const std::uint32_t count = base + (t < extra ? 1 : 0);
    fleets.emplace_back([&, t, uid, count] {
      wire::UdpWire udp(kLoopback, 0);
      wire::FleetConfig fc;
      fc.first_uid = uid;
      fc.count = count;
      fc.failover.push_back(standby_ep);
      wire::ClientFleet fleet(udp, primary_ep, fc);
      fss[t] = fleet.run();
    });
    uid += count;
  }
  for (auto& f : fleets) f.join();
  primary_thread.join();
  standby_thread.join();

  r.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  r.fleet = wire::fold_fleets(fss);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rekey::bench;
  BenchCli cli = parse_bench_cli(argc, argv);
  FigureJson json("R2", cli);

  RunParams p;
  p.clients = cli.smoke ? 256 : (1u << 15);
  p.endpoints = cli.smoke ? 2 : 8;
  p.batches = 3;
  p.churn = cli.smoke ? 64 : 256;
  p.elect_timeout_ms = 250;

  // Batch 1's three death points at q = 100: boundary at 400,
  // pre-burst at 500, pre-BatchDone at 600 (batch 0 consumed 100..300).
  const Scenario scenarios[] = {
      {"replicated", 0.0, 0.0},
      {"boundary", 395.0, 405.0},
      {"mid-round", 495.0, 505.0},
      {"pre-done", 595.0, 605.0},
  };
  std::vector<FailoverRun> runs;
  for (const Scenario& sc : scenarios) runs.push_back(run_scenario(sc, p));

  json.header(std::cout, "R2 (failover)",
              "primary/standby handoff vs blackout onset phase within a "
              "batch",
              "N=" + std::to_string(p.clients) + ", batches=3, d=4, UDP "
              "loopback, quantum=100ms, elect=250ms, " +
                  std::to_string(p.endpoints) + " endpoints");
  {
    Table t({"scenario", "onset_ms", "died_at_ms", "p_batches", "s_batches",
             "promoted", "epoch", "snaps", "resubs", "recovered",
             "unrecovered", "failovers"});
    t.set_precision(3);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const FailoverRun& r = runs[i];
      t.add_row({std::string(scenarios[i].name), scenarios[i].onset_ms,
                 r.primary.died_at_ms,
                 static_cast<long long>(r.primary.batches_run),
                 static_cast<long long>(r.standby.batches_run),
                 static_cast<long long>(r.standby.promoted ? 1 : 0),
                 static_cast<long long>(r.fleet.epoch),
                 static_cast<long long>(r.primary.snapshots_sent),
                 static_cast<long long>(r.standby.resubs),
                 static_cast<long long>(r.fleet.recovered),
                 static_cast<long long>(r.fleet.unrecovered),
                 static_cast<long long>(r.fleet.failovers)});
    }
    json.table(std::cout, t);
  }

  json.header(std::cout, "R2 (latency)",
              "wall-clock handoff cost per scenario",
              "timing columns are hardware-dependent (CI tolerance "
              "unbounded)");
  {
    Table t({"scenario", "elect_ms", "wall_ms"});
    t.set_precision(3);
    for (std::size_t i = 0; i < runs.size(); ++i)
      t.add_row({std::string(scenarios[i].name),
                 static_cast<double>(p.elect_timeout_ms), runs[i].wall_ms});
    json.table(std::cout, t);
  }

  // Contract: every client finishes every scenario; every blackout
  // scenario promotes the standby to epoch 1 and replays to completion.
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const FailoverRun& r = runs[i];
    const bool blackout = scenarios[i].end_ms > scenarios[i].onset_ms;
    REKEY_ENSURE_MSG(r.fleet.finished && r.fleet.unrecovered == 0,
                     "a failover scenario left clients unrecovered");
    REKEY_ENSURE_MSG(blackout == r.primary.died,
                     "primary death did not match the blackout schedule");
    REKEY_ENSURE_MSG(blackout == (r.standby.promoted && r.fleet.epoch == 1),
                     "standby promotion did not match the blackout schedule");
    REKEY_ENSURE_MSG(r.primary.batches_run + r.standby.batches_run >=
                         p.batches,
                     "primary + standby ran fewer batches than configured");
  }
  json.note(std::cout,
            "Counters are deterministic: the primary's death is a pure "
            "function of (fault plan, protocol clock), and the standby's "
            "replay of the interrupted batch is bit-identical to what the "
            "primary would have run. Recoveries are counted at BatchDone "
            "finalization, so the replayed batch counts once even in the "
            "pre-done row where clients held its keys under both epochs — "
            "recovered is exactly N x batches in every scenario. elect_ms "
            "is the latency floor the standby waits before electing "
            "itself.");
  return json.write();
}
