// KS1 — key-server batch-rekey throughput on the flat arena key tree.
//
// For each group size N and J/L mix, a fresh tree of N users is built and
// one batch is driven through the full server pipeline — marking,
// encryption generation, UKA packet assignment — with each stage timed
// separately. The encryption counts are deterministic (fixed per-point
// seeds) and are cross-checked against the A1 analytic model
// (analysis/batch_cost.h); timings are hardware-dependent, so the CI
// golden diff gives the timing columns an unbounded tolerance
// (tools/bench_diff.py --col-rtol) while holding counts exact.
//
// The second section re-runs encryption generation on the worker pool
// (REKEY_THREADS / hardware concurrency), one shard per worker: the tasks
// write to fixed output slots, so the payload is bit-identical to the
// inline one — the bench asserts that — and only the wall time changes.
// The third section sweeps the shard count (keytree/shard.h): the whole
// batch pipeline — marking, encryption generation, and the run-packed
// UKA — runs at 1..8 shards on a fixed worker pool, with a baseline row
// (shards=0) of the plain calls: one shard, inline. The output is
// asserted bit-identical to the baseline at every shard count; only the
// wall time may move.
// The last section times small batches (J = L fixed) on growing groups:
// user needs are stored per frontier node and UKA packs runs, so payload
// + assignment should stay flat in N.
#include <chrono>
#include <iostream>

#include "analysis/batch_cost.h"
#include "common/ensure.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "keytree/marking.h"
#include "keytree/rekey_subtree.h"
#include "keytree/shard.h"
#include "packet/assign.h"
#include "sweep.h"

namespace {

using namespace rekey;
using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
      .count();
}

struct Mix {
  const char* name;
  std::size_t J, L;  // per unit N: J = N/j_div etc. (0 divisor = zero)
};

struct PointResult {
  std::size_t encryptions = 0;
  std::size_t enc_packets = 0;
  double mark_us = 0.0;
  double payload_us = 0.0;
  double assign_us = 0.0;
  double payload_parallel_us = 0.0;
  bool parallel_identical = true;
};

// Builds a fresh N-user tree, applies one (J, L) batch, and times each
// pipeline stage. `pool` (may be null) is used only for the extra
// payload-generation measurement on the pool, one shard per worker.
PointResult run_point(std::size_t N, std::size_t J, std::size_t L,
                      unsigned d, std::uint64_t seed, int trials,
                      ThreadPool* pool) {
  PointResult r;
  r.mark_us = r.payload_us = r.assign_us = r.payload_parallel_us = 1e300;
  for (int t = 0; t < trials; ++t) {
    Rng rng(bench::point_seed(seed, static_cast<std::uint64_t>(t)));
    tree::KeyTree kt(d, rng.next_u64());
    kt.populate(N);
    std::vector<tree::MemberId> leaves;
    leaves.reserve(L);
    for (const auto pick : rng.sample_without_replacement(N, L))
      leaves.push_back(static_cast<tree::MemberId>(pick));
    std::vector<tree::MemberId> joins;
    joins.reserve(J);
    for (std::size_t j = 0; j < J; ++j)
      joins.push_back(static_cast<tree::MemberId>(N + j));

    auto t0 = Clock::now();
    tree::Marker marker(kt);
    const auto upd = marker.run(joins, leaves);
    r.mark_us = std::min(r.mark_us, us_since(t0));

    t0 = Clock::now();
    const auto payload = tree::generate_rekey_payload(kt, upd, 1);
    r.payload_us = std::min(r.payload_us, us_since(t0));

    t0 = Clock::now();
    const auto assignment = packet::assign_keys(payload, 1027);
    r.assign_us = std::min(r.assign_us, us_since(t0));

    r.encryptions = payload.encryptions.size();
    r.enc_packets = assignment.packets.size();

    if (pool != nullptr) {
      unsigned shards = 1;
      while (shards < pool->size() && shards < 256) shards *= 2;
      const tree::ShardPlan plan = tree::ShardPlan::make(d, shards);
      TaskRunner runner(pool);
      tree::RekeyPayload par;
      t0 = Clock::now();
      tree::generate_rekey_payload_into(kt, upd, 1, par, plan, runner);
      r.payload_parallel_us = std::min(r.payload_parallel_us, us_since(t0));
      r.parallel_identical =
          r.parallel_identical &&
          par.encryptions.size() == payload.encryptions.size();
      for (std::size_t i = 0;
           r.parallel_identical && i < par.encryptions.size(); ++i)
        r.parallel_identical =
            par.encryptions[i].enc_id == payload.encryptions[i].enc_id &&
            par.encryptions[i].payload == payload.encryptions[i].payload;
    }
  }
  return r;
}

// One shard-axis configuration: shards == 0 is the baseline of the plain
// calls (one shard, inline), shards >= 1 the pipeline at that shard count
// on the pool.
struct ShardPoint {
  std::size_t encryptions = 0;
  std::size_t enc_packets = 0;
  double mark_us = 0.0;
  double payload_us = 0.0;
  double assign_us = 0.0;
  bool identical = true;  // artifacts match the serial baseline
};

// Baseline artifacts the shard-count runs are compared against
// (trial 0 only: trials differ only in seed, and one exact comparison
// per configuration is the determinism gate, not a statistics game).
struct ShardBaseline {
  std::vector<tree::Encryption> encryptions;
  std::vector<rekey::Bytes> packet_wires;
};

ShardPoint run_shard_point(std::size_t N, std::size_t J, std::size_t L,
                           unsigned d, unsigned shards, std::uint64_t seed,
                           int trials, ThreadPool* pool,
                           ShardBaseline* baseline) {
  ShardPoint r;
  r.mark_us = r.payload_us = r.assign_us = 1e300;
  for (int t = 0; t < trials; ++t) {
    // Identical tree/batch construction across shard counts: the rng
    // stream below depends only on (seed, t).
    Rng rng(bench::point_seed(seed, static_cast<std::uint64_t>(t)));
    tree::KeyTree kt(d, rng.next_u64());
    kt.populate(N);
    std::vector<tree::MemberId> leaves;
    leaves.reserve(L);
    for (const auto pick : rng.sample_without_replacement(N, L))
      leaves.push_back(static_cast<tree::MemberId>(pick));
    std::vector<tree::MemberId> joins;
    joins.reserve(J);
    for (std::size_t j = 0; j < J; ++j)
      joins.push_back(static_cast<tree::MemberId>(N + j));

    tree::Marker marker(kt);
    tree::RekeyPayload payload;
    packet::Assignment assignment;
    if (shards == 0) {
      auto t0 = Clock::now();
      const auto upd = marker.run(joins, leaves);
      r.mark_us = std::min(r.mark_us, us_since(t0));
      t0 = Clock::now();
      tree::generate_rekey_payload_into(kt, upd, 1, payload);
      r.payload_us = std::min(r.payload_us, us_since(t0));
      t0 = Clock::now();
      assignment = packet::assign_keys(payload, 1027);
      r.assign_us = std::min(r.assign_us, us_since(t0));
    } else {
      const tree::ShardPlan plan = tree::ShardPlan::make(d, shards);
      TaskRunner runner(pool);
      auto t0 = Clock::now();
      const auto upd = marker.run(joins, leaves, plan, runner);
      r.mark_us = std::min(r.mark_us, us_since(t0));
      t0 = Clock::now();
      tree::generate_rekey_payload_into(kt, upd, 1, payload, plan, runner);
      r.payload_us = std::min(r.payload_us, us_since(t0));
      t0 = Clock::now();
      assignment = packet::assign_keys(payload, 1027);
      r.assign_us = std::min(r.assign_us, us_since(t0));
    }
    r.encryptions = payload.encryptions.size();
    r.enc_packets = assignment.packets.size();

    if (t == 0 && baseline != nullptr) {
      if (shards == 0) {
        baseline->encryptions = payload.encryptions;
        baseline->packet_wires.clear();
        for (const auto& pkt : assignment.packets)
          baseline->packet_wires.push_back(pkt.serialize(1027));
      } else {
        r.identical =
            payload.encryptions.size() == baseline->encryptions.size() &&
            assignment.packets.size() == baseline->packet_wires.size();
        for (std::size_t i = 0;
             r.identical && i < payload.encryptions.size(); ++i)
          r.identical =
              payload.encryptions[i].enc_id ==
                  baseline->encryptions[i].enc_id &&
              payload.encryptions[i].payload ==
                  baseline->encryptions[i].payload;
        for (std::size_t p = 0;
             r.identical && p < assignment.packets.size(); ++p)
          r.identical = assignment.packets[p].serialize(1027) ==
                        baseline->packet_wires[p];
      }
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rekey::bench;
  BenchCli cli = parse_bench_cli(argc, argv);
  FigureJson json("KS1", cli);

  const unsigned d = 4;
  const int kTrials = cli.smoke ? 1 : 3;
  const std::vector<std::size_t> sizes =
      cli.smoke ? std::vector<std::size_t>{1u << 10, 1u << 12}
                : std::vector<std::size_t>{1u << 10, 1u << 12, 1u << 14,
                                           1u << 17, 1u << 20};
  ThreadPool pool(0);
  ThreadPool* par = pool.size() > 1 ? &pool : nullptr;

  struct Row {
    std::size_t N, J, L;
    const char* mix;
    PointResult res;
  };
  std::vector<Row> rows;
  std::uint64_t idx = 0;
  bool all_identical = true;
  for (const std::size_t N : sizes) {
    const Mix mixes[] = {{"churn", N / 16, N / 16},
                         {"leave", 0, N / 4},
                         {"join", N / 4, 0}};
    for (const Mix& m : mixes) {
      const std::uint64_t seed = point_seed(0x4B5311ull, idx);
      json.add_seed(seed);
      Row row{N, m.J, m.L, m.name,
              run_point(N, m.J, m.L, d, seed, kTrials, par)};
      all_identical = all_identical && row.res.parallel_identical;
      rows.push_back(row);
      ++idx;
    }
  }

  json.header(std::cout, "KS1 (pipeline)",
              "server batch cost: marking + payload + UKA, per stage",
              "d=4, 1027-byte packets, fresh tree per point, min over " +
                  std::to_string(kTrials) + " trials");
  {
    Table t({"N", "mix", "J", "L", "enc", "model_enc", "enc_pkts",
             "mark_us", "payload_us", "assign_us", "batch_us",
             "us_per_user", "batches_per_s"});
    t.set_precision(2);
    for (const Row& r : rows) {
      const double batch_us =
          r.res.mark_us + r.res.payload_us + r.res.assign_us;
      t.add_row({static_cast<long long>(r.N), std::string(r.mix),
                 static_cast<long long>(r.J), static_cast<long long>(r.L),
                 static_cast<long long>(r.res.encryptions),
                 analysis::expected_encryptions(r.N, r.J, r.L, d),
                 static_cast<long long>(r.res.enc_packets), r.res.mark_us,
                 r.res.payload_us, r.res.assign_us, batch_us,
                 batch_us / static_cast<double>(r.N), 1e6 / batch_us});
    }
    json.table(std::cout, t);
  }

  // The params string stays machine-independent (the worker count varies
  // with REKEY_THREADS) so the smoke document golden-diffs cleanly.
  json.header(std::cout, "KS1 (parallel payload)",
              "encryption generation: serial vs worker pool",
              "REKEY_THREADS workers; 1 worker repeats the serial column");
  {
    Table t({"N", "mix", "enc", "payload_us", "payload_par_us", "speedup"});
    t.set_precision(2);
    for (const Row& r : rows) {
      const double par_us = par == nullptr || r.res.payload_parallel_us > 1e299
                                ? r.res.payload_us
                                : r.res.payload_parallel_us;
      t.add_row({static_cast<long long>(r.N), std::string(r.mix),
                 static_cast<long long>(r.res.encryptions), r.res.payload_us,
                 par_us, r.res.payload_us / par_us});
    }
    json.table(std::cout, t);
  }
  // Shard-count axis: the full pipeline at a fixed worker pool.
  // Shard count doubles as the pipeline's concurrency knob (chunk counts
  // derive from it), so this is the marking+assignment scaling figure.
  const std::vector<std::size_t> shard_sizes =
      cli.smoke ? std::vector<std::size_t>{1u << 12}
                : std::vector<std::size_t>{1u << 20, 1u << 22};
  const int kShardTrials = cli.smoke ? 1 : 2;
  json.header(std::cout, "KS1 (shard scaling)",
              "sharded batch pipeline vs shard count; shards=0 is the "
              "serial pipeline baseline",
              "d=4, churn J=L=N/16, 1027-byte packets, fixed worker pool");
  {
    Table t({"N", "shards", "enc", "model_enc", "enc_pkts", "mark_us",
             "payload_us", "assign_us", "mark_assign_us", "speedup"});
    t.set_precision(2);
    for (const std::size_t N : shard_sizes) {
      const std::size_t J = N / 16, L = N / 16;
      const std::uint64_t seed = point_seed(0x4B5311ull, 1000 + idx);
      json.add_seed(seed);
      ++idx;
      ShardBaseline baseline;
      double one_shard_ma = 0.0;
      for (const unsigned shards : {0u, 1u, 2u, 4u, 8u}) {
        const ShardPoint r = run_shard_point(N, J, L, d, shards, seed,
                                             kShardTrials, par, &baseline);
        all_identical = all_identical && r.identical;
        const double ma = r.mark_us + r.assign_us;
        if (shards == 1) one_shard_ma = ma;
        t.add_row({static_cast<long long>(N),
                   static_cast<long long>(shards),
                   static_cast<long long>(r.encryptions),
                   analysis::expected_encryptions(N, J, L, d),
                   static_cast<long long>(r.enc_packets), r.mark_us,
                   r.payload_us, r.assign_us, ma,
                   shards == 0 || one_shard_ma == 0.0 ? 1.0
                                                      : one_shard_ma / ma});
      }
    }
    json.table(std::cout, t);
  }
  // Worker-pinning axis: the same pipeline, once with free-running
  // workers and once with each worker pinned to its own CPU
  // (common/parallel.h, REKEY_PIN) — the "NUMA pinning" headroom noted in
  // the roadmap. The artifacts must stay bit-identical to the inline
  // baseline either way; only the timing columns may move, and on a
  // single-CPU host they barely do.
  json.header(std::cout, "KS1 (pinning)",
              "sharded pipeline with unpinned vs CPU-pinned workers",
              "d=4, churn J=L=N/16, 1027-byte packets; worker and timing "
              "columns are hardware-dependent");
  {
    Table t({"N", "shards", "config", "workers", "pinned_workers", "enc",
             "mark_us", "payload_us", "assign_us", "mark_assign_us"});
    t.set_precision(2);
    const std::size_t N = shard_sizes.front();
    const std::size_t J = N / 16, L = N / 16;
    const std::uint64_t seed = point_seed(0x4B5311ull, 2000);
    json.add_seed(seed);
    ShardBaseline baseline;
    run_shard_point(N, J, L, d, 0, seed, kShardTrials, nullptr, &baseline);
    for (const int pin : {0, 1}) {
      ThreadPool pin_pool(pool.size(), pin);
      ThreadPool* pin_par = pin_pool.size() > 1 ? &pin_pool : nullptr;
      const ShardPoint r = run_shard_point(N, J, L, d, 4, seed,
                                           kShardTrials, pin_par, &baseline);
      all_identical = all_identical && r.identical;
      t.add_row({static_cast<long long>(N), 4ll,
                 std::string(pin == 0 ? "unpinned" : "pinned"),
                 static_cast<long long>(pin_pool.size()),
                 static_cast<long long>(pin_pool.pinned_workers()),
                 static_cast<long long>(r.encryptions), r.mark_us,
                 r.payload_us, r.assign_us, r.mark_us + r.assign_us});
    }
    json.table(std::cout, t);
  }
  // Small batches on large groups: the batch, not the group, should set
  // the cost of payload generation and assignment.
  const std::size_t small_batch = cli.smoke ? 16 : 256;
  const std::vector<std::size_t> small_sizes =
      cli.smoke ? std::vector<std::size_t>{1u << 12, 1u << 14}
                : std::vector<std::size_t>{1u << 20, 1u << 22};
  json.header(std::cout, "KS1 (small batch)",
              "fixed small batch on growing groups: payload + assignment "
              "cost follows the batch, not N",
              "d=4, J=L=" + std::to_string(small_batch) +
                  ", 1027-byte packets, fresh tree per point, min over " +
                  std::to_string(kTrials) + " trials");
  {
    Table t({"N", "J", "L", "enc", "model_enc", "enc_pkts", "mark_us",
             "payload_us", "assign_us", "payload_assign_us"});
    t.set_precision(2);
    for (std::size_t i = 0; i < small_sizes.size(); ++i) {
      const std::size_t N = small_sizes[i];
      const std::uint64_t seed = point_seed(0x4B5311ull, 3000 + i);
      json.add_seed(seed);
      const PointResult r =
          run_point(N, small_batch, small_batch, d, seed, kTrials, nullptr);
      t.add_row({static_cast<long long>(N),
                 static_cast<long long>(small_batch),
                 static_cast<long long>(small_batch),
                 static_cast<long long>(r.encryptions),
                 analysis::expected_encryptions(N, small_batch, small_batch,
                                                d),
                 static_cast<long long>(r.enc_packets), r.mark_us,
                 r.payload_us, r.assign_us, r.payload_us + r.assign_us});
    }
    json.table(std::cout, t);
  }
  REKEY_ENSURE_MSG(all_identical,
                   "parallel or sharded pipeline diverged from the serial "
                   "baseline");
  json.note(std::cout,
            "Counts are deterministic and match the A1 model; timing "
            "columns are hardware-dependent (CI diffs them with unbounded "
            "tolerance). Parallel payloads and the sharded pipeline at "
            "every shard count are bit-identical to serial, with or "
            "without worker CPU pinning.");
  return json.write();
}
