// A4 — micro-benchmarks (google-benchmark): the unit costs underlying the
// paper's design choices. RSE parity encoding cost per block size k is the
// basis of Fig 8 (right): per-parity time is Theta(k * packet bytes), and
// the GF(256) region-kernel sweep (MB/s per ISA path and buffer size)
// shows how far the SIMD layer lifts that constant over scalar.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "sweep.h"
#include "crypto/chacha20.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "fec/gf256_simd.h"
#include "fec/rse.h"
#include "keytree/marking.h"
#include "keytree/rekey_subtree.h"
#include "packet/assign.h"
#include "transport/server.h"
#include "transport/user.h"
#include "transport/workload.h"

namespace {

using namespace rekey;

std::vector<Bytes> random_block(int k, std::size_t len) {
  Rng rng(static_cast<std::uint64_t>(k));
  std::vector<Bytes> data(static_cast<std::size_t>(k));
  for (auto& pkt : data) {
    pkt.resize(len);
    for (auto& b : pkt) b = static_cast<std::uint8_t>(rng.next_in(0, 255));
  }
  return data;
}

void BM_RseEncodeOneParity(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const fec::RseCoder coder(k);
  const auto data = random_block(k, 1023);
  int idx = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(coder.encode_one(data, idx));
    idx = (idx + 1) % coder.max_parity();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * k *
                          1023);
}
BENCHMARK(BM_RseEncodeOneParity)->Arg(1)->Arg(5)->Arg(10)->Arg(20)->Arg(50);

void BM_RseDecodeWorstCase(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const fec::RseCoder coder(k);
  const auto data = random_block(k, 1023);
  // All-parity decode: the most expensive case (full matrix inversion).
  std::vector<fec::Shard> shards;
  for (int p = 0; p < k; ++p)
    shards.push_back({k + p, coder.encode_one(data, p)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(coder.decode(shards));
  }
}
BENCHMARK(BM_RseDecodeWorstCase)->Arg(5)->Arg(10)->Arg(20);

void BM_KeyEncryption(benchmark::State& state) {
  crypto::KeyGenerator gen(1);
  const auto kek = gen.next();
  const auto plain = gen.next();
  std::uint64_t id = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::encrypt_key(kek, plain, 1, id++));
  }
}
BENCHMARK(BM_KeyEncryption);

void BM_Sha256_1KiB(benchmark::State& state) {
  Bytes data(1024, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_ChaCha20_1KiB(benchmark::State& state) {
  std::array<std::uint8_t, 32> key{};
  std::array<std::uint8_t, 12> nonce{};
  Bytes data(1024, 0xCD);
  for (auto _ : state) {
    crypto::ChaCha20 c(key, nonce);
    c.apply(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(BM_ChaCha20_1KiB);

void BM_MarkingBatch(benchmark::State& state) {
  // One batch (J=0, L=N/4) on an N-user tree, including encryption
  // generation — the server's per-interval key-management cost.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(seed++);
    tree::KeyTree kt(4, rng.next_u64());
    kt.populate(n);
    std::vector<tree::MemberId> leaves;
    for (const auto pick : rng.sample_without_replacement(n, n / 4))
      leaves.push_back(static_cast<tree::MemberId>(pick));
    state.ResumeTiming();
    tree::Marker m(kt);
    const auto upd = m.run({}, leaves);
    benchmark::DoNotOptimize(tree::generate_rekey_payload(kt, upd, 1));
  }
}
BENCHMARK(BM_MarkingBatch)->Arg(1024)->Arg(4096);

void BM_MarkingOnly(benchmark::State& state) {
  // The marking algorithm alone (no encryption generation): the tree-walk
  // cost the flat arena is designed around. J=L=N/16 churn.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(seed++);
    tree::KeyTree kt(4, rng.next_u64());
    kt.populate(n);
    std::vector<tree::MemberId> leaves;
    for (const auto pick : rng.sample_without_replacement(n, n / 16))
      leaves.push_back(static_cast<tree::MemberId>(pick));
    std::vector<tree::MemberId> joins;
    for (std::size_t j = 0; j < n / 16; ++j)
      joins.push_back(static_cast<tree::MemberId>(n + j));
    state.ResumeTiming();
    tree::Marker m(kt);
    benchmark::DoNotOptimize(m.run(joins, leaves));
  }
}
BENCHMARK(BM_MarkingOnly)->Arg(1024)->Arg(4096)->Arg(32768);

void BM_PayloadGeneration(benchmark::State& state) {
  // Encryption generation over a fixed marked tree (marking done once in
  // setup — generation is const over the tree).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  tree::KeyTree kt(4, rng.next_u64());
  kt.populate(n);
  std::vector<tree::MemberId> leaves;
  for (const auto pick : rng.sample_without_replacement(n, n / 4))
    leaves.push_back(static_cast<tree::MemberId>(pick));
  tree::Marker m(kt);
  const auto upd = m.run({}, leaves);
  tree::RekeyPayload payload;
  for (auto _ : state) {
    tree::generate_rekey_payload_into(kt, upd, 1, payload);
    benchmark::DoNotOptimize(payload.encryptions.data());
  }
}
BENCHMARK(BM_PayloadGeneration)->Arg(1024)->Arg(4096)->Arg(32768);

void BM_PayloadGenerationParallel(benchmark::State& state) {
  // Same, fanned out over the worker pool (REKEY_THREADS), one shard per
  // worker. The pool lives outside the loop, as a long-running key
  // server's would.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  tree::KeyTree kt(4, rng.next_u64());
  kt.populate(n);
  std::vector<tree::MemberId> leaves;
  for (const auto pick : rng.sample_without_replacement(n, n / 4))
    leaves.push_back(static_cast<tree::MemberId>(pick));
  tree::Marker m(kt);
  const auto upd = m.run({}, leaves);
  ThreadPool pool(0);
  unsigned shards = 1;
  while (shards < pool.size() && shards < 256) shards *= 2;
  const tree::ShardPlan plan = tree::ShardPlan::make(4, shards);
  TaskRunner runner(&pool);
  tree::RekeyPayload payload;
  for (auto _ : state) {
    tree::generate_rekey_payload_into(kt, upd, 1, payload, plan, runner);
    benchmark::DoNotOptimize(payload.encryptions.data());
  }
}
BENCHMARK(BM_PayloadGenerationParallel)->Arg(4096)->Arg(32768);

void BM_UkaAssignment(benchmark::State& state) {
  Rng rng(9);
  tree::KeyTree kt(4, rng.next_u64());
  kt.populate(4096);
  std::vector<tree::MemberId> leaves;
  for (const auto pick : rng.sample_without_replacement(4096, 1024))
    leaves.push_back(static_cast<tree::MemberId>(pick));
  tree::Marker m(kt);
  const auto upd = m.run({}, leaves);
  const auto payload = tree::generate_rekey_payload(kt, upd, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(packet::assign_keys(payload, 1027));
  }
}
BENCHMARK(BM_UkaAssignment);

// The member path: what a virtual client pays per batch when its own
// ENC packet arrives first (every member of the `steady` wire workload).
// Both rows use wide (v2) 1027-byte packets, whose entry region is 1011
// bytes and holds at most 45 entries.
void BM_EntryRegionCheck(benchmark::State& state) {
  packet::EncPacket p;
  for (std::int64_t e = 0; e < state.range(0); ++e) {
    packet::EncEntry entry;
    entry.enc_id = static_cast<std::uint32_t>(e + 1);
    entry.enc.tag = 0xA5A5;
    p.entries.push_back(entry);
  }
  const Bytes wire = p.serialize(packet::kDefaultPacketSize, /*wide=*/true);
  const packet::WireView region =
      packet::WireView(wire).subspan(packet::kEncHeaderSizeWide);
  for (auto _ : state)
    benchmark::DoNotOptimize(packet::EntryRegion::check(region));
}
BENCHMARK(BM_EntryRegionCheck)->Arg(1)->Arg(20)->Arg(45);

// UserTransport::reset plus the on_packet call that delivers the member's
// own ENC packet: a fleet's per-member work on such a batch.
void BM_MemberOwnPacket(benchmark::State& state) {
  transport::WorkloadConfig wc;
  wc.group_size = 4096;
  wc.leaves = 1024;
  const transport::GeneratedMessage msg =
      transport::generate_message(wc, /*seed=*/1, /*msg_id=*/1);
  transport::ProtocolConfig cfg;
  cfg.wide_slots = true;
  transport::ServerTransport server(
      cfg, msg.payload, packet::assign_keys(msg.payload, cfg.packet_size, true),
      0, /*msg_id=*/1);
  transport::PacketPool pool;
  for (Bytes& w : server.round_packets(1)) pool.push_back(std::move(w));
  const std::size_t user = msg.old_ids.size() / 2;
  const std::uint32_t old_id = msg.old_ids[user];
  transport::UserTransport member(old_id, cfg.block_size, msg.payload.degree,
                                  &pool, /*wide=*/true);
  // The own packet: the one whose delivery recovers a restarted member.
  std::size_t own = pool.size();
  for (std::size_t p = 0; p < pool.size() && own == pool.size(); ++p) {
    member.reset(old_id);
    member.on_packet(p, 1);
    if (member.recovered()) own = p;
  }
  if (own == pool.size()) {
    state.SkipWithError("no ENC packet recovers the member");
    return;
  }
  for (auto _ : state) {
    member.reset(old_id);
    member.on_packet(own, 1);
    benchmark::DoNotOptimize(member.recovered());
  }
}
BENCHMARK(BM_MemberOwnPacket);

// What a pool pays once per packet, for every member: a copy of the
// packet plus its facts at both widths. Arg 0 is a wide 1027-byte ENC
// packet holding 45 entries, arg 1 a PARITY packet of the same size.
void BM_PacketPoolPush(benchmark::State& state) {
  Bytes wire;
  if (state.range(0) == 0) {
    packet::EncPacket p;
    p.max_kid = 1;
    p.frm_id = 100;
    p.to_id = 200;
    for (std::uint32_t e = 0; e < packet::max_entries(1027, true); ++e) {
      packet::EncEntry entry;
      entry.enc_id = e + 1;
      entry.enc.tag = 0xA5A5;
      p.entries.push_back(entry);
    }
    wire = p.serialize(packet::kDefaultPacketSize, /*wide=*/true);
  } else {
    packet::ParityPacket p;
    p.fec.assign(packet::kDefaultPacketSize - packet::kFecOffset, 0x5A);
    wire = p.serialize();
  }
  transport::PacketPool pool;
  for (auto _ : state) {
    pool.clear();
    pool.push_back(wire);
    benchmark::DoNotOptimize(pool.size());
  }
}
BENCHMARK(BM_PacketPoolPush)->Arg(0)->Arg(1);

// A member's round end after it lost its own ENC packet of a k = 10
// block of 300-byte packets: UserTransport::end_of_round alone, timed by
// hand around the call (restarting the member and delivering its other
// packets is not timed). Arg 0: the member is the first to decode the
// block, so the pool solves it; arg 1: an earlier decode left the
// block's rows in the pool, and the member's shards agree with them.
void BM_MemberRoundEndDecode(benchmark::State& state) {
  transport::WorkloadConfig wc;
  wc.packet_size = 300;
  const transport::GeneratedMessage msg =
      transport::generate_message(wc, /*seed=*/1, /*msg_id=*/1);
  transport::ProtocolConfig cfg;
  cfg.block_size = 10;
  cfg.packet_size = wc.packet_size;
  transport::ServerTransport server(cfg, msg.payload, msg.assignment,
                                    /*proactive=*/2, /*msg_id=*/1);
  transport::PacketPool fresh;
  for (Bytes& w : server.round_packets(1)) fresh.push_back(std::move(w));
  transport::PacketPool pool = fresh;
  const std::uint32_t old_id = msg.old_ids[msg.old_ids.size() / 2];
  transport::UserTransport member(old_id, cfg.block_size, msg.payload.degree,
                                  &pool);
  // Every packet but those whose delivery alone recovers the member.
  std::vector<std::size_t> others;
  for (std::size_t p = 0; p < pool.size(); ++p) {
    member.reset(old_id);
    member.on_packet(p, 1);
    if (!member.recovered()) others.push_back(p);
  }
  const auto round_end = [&] {
    member.reset(old_id);
    for (const std::size_t p : others) member.on_packet(p, 1);
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(member.end_of_round(1));
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  round_end();  // leaves the block's rows in the pool
  if (!member.recovered()) {
    state.SkipWithError("the round end does not recover the member");
    return;
  }
  const bool shared = state.range(0) == 1;
  for (auto _ : state) {
    if (!shared) pool = fresh;  // no rows: this member solves the block
    state.SetIterationTime(round_end());
  }
}
BENCHMARK(BM_MemberRoundEndDecode)->Arg(0)->Arg(1)->UseManualTime();

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_in(0, 255));
  return v;
}

// Kernel-throughput sweep: bytes/s of the two region kernels for every
// SIMD path this host supports, across buffer sizes bracketing the
// protocol's packet sizes (1027-byte ENC packets; 1023-byte FEC regions).
void register_region_kernel_benches() {
  for (const fec::SimdPath path : fec::supported_simd_paths()) {
    const fec::RegionKernels& kernels = fec::region_kernels(path);
    for (const std::size_t len : {64ul, 256ul, 1023ul, 4096ul, 65536ul}) {
      const std::string suffix = std::string("/") +
                                 fec::simd_path_name(path) + "/" +
                                 std::to_string(len);
      benchmark::RegisterBenchmark(
          ("BM_AddmulRegion" + suffix).c_str(),
          [kernels, len](benchmark::State& state) {
            Bytes dst = random_bytes(len, 1);
            const Bytes src = random_bytes(len, 2);
            for (auto _ : state) {
              kernels.addmul(dst.data(), src.data(), len, 0x8E);
              benchmark::DoNotOptimize(dst.data());
              benchmark::ClobberMemory();
            }
            state.SetBytesProcessed(
                static_cast<std::int64_t>(state.iterations()) *
                static_cast<std::int64_t>(len));
          });
      benchmark::RegisterBenchmark(
          ("BM_MulRegion" + suffix).c_str(),
          [kernels, len](benchmark::State& state) {
            Bytes dst(len, 0);
            const Bytes src = random_bytes(len, 3);
            for (auto _ : state) {
              kernels.mul(dst.data(), src.data(), len, 0x8E);
              benchmark::DoNotOptimize(dst.data());
              benchmark::ClobberMemory();
            }
            state.SetBytesProcessed(
                static_cast<std::int64_t>(state.iterations()) *
                static_cast<std::int64_t>(len));
          });
    }
  }
}

// Console reporter that also captures each run's per-iteration timings so
// they can be emitted through the shared FigureJson schema.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    double real_ns = 0;
    double cpu_ns = 0;
    std::int64_t iterations = 0;
    double bytes_per_second = 0;
  };

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& r : report) {
      if (r.error_occurred || r.run_type != Run::RT_Iteration) continue;
      Row row;
      row.name = r.benchmark_name();
      row.real_ns = r.GetAdjustedRealTime();
      row.cpu_ns = r.GetAdjustedCPUTime();
      row.iterations = static_cast<std::int64_t>(r.iterations);
      const auto bps = r.counters.find("bytes_per_second");
      if (bps != r.counters.end()) row.bytes_per_second = bps->second.value;
      rows.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(report);
  }

  std::vector<Row> rows;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rekey::bench;
  // Strip --smoke/--json first; everything else flows to google-benchmark.
  const BenchCli cli = parse_bench_cli(argc, argv, /*allow_extra=*/true);
  FigureJson json("A4", cli);

  register_region_kernel_benches();

  // Smoke mode shortens every benchmark's measuring window (schema test /
  // CI gate only need the document shape, not stable timings).
  std::vector<char*> args(argv, argv + argc);
  std::string min_time = "--benchmark_min_time=0.01";
  if (cli.smoke) args.insert(args.begin() + 1, min_time.data());
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
    return 1;

  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  json.header(std::cout, "A4",
              "micro-benchmarks: unit costs behind the design choices",
              "google-benchmark; per-iteration times, host-dependent");
  Table t({"benchmark", "real ns/iter", "cpu ns/iter", "iterations",
           "bytes/s"});
  t.set_precision(1);
  for (const auto& row : reporter.rows) {
    t.add_row({row.name, row.real_ns, row.cpu_ns,
               static_cast<long long>(row.iterations),
               row.bytes_per_second});
  }
  json.table(std::cout, t);
  json.note(std::cout,
            "Timings are host-dependent; bench_diff.py treats them as "
            "floats with a wide tolerance or skips A4 entirely.");
  return json.write();
}
