// Every bench binary accepts --json and emits a schema-stable document:
// run each one in smoke mode and validate the figure JSON it writes.
//
// REKEY_BENCH_DIR is injected by tests/CMakeLists.txt and points at the
// directory holding the built bench binaries.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "support/json_read.h"

namespace rekey {
namespace {

// A parsed document as the schema check reads it: Json's accessors plus
// lookup by key and element counts, which the test support provides (the
// library writes JSON and reads none).
class Doc {
 public:
  // Implicit, so the loops below read array elements as Docs.
  Doc(const Json& json) : json_(&json) {}

  Doc at(std::string_view key) const { return test::at(*json_, key); }
  std::size_t size() const { return test::size(*json_); }
  bool is_object() const { return json_->is_object(); }
  bool is_array() const { return json_->is_array(); }
  std::int64_t as_int() const { return json_->as_int(); }
  bool as_bool() const { return json_->as_bool(); }
  const std::string& as_string() const { return json_->as_string(); }
  const Json::Array& as_array() const { return json_->as_array(); }

 private:
  const Json* json_;
};

struct BenchBinary {
  const char* name;    // executable name under REKEY_BENCH_DIR
  const char* figure;  // expected "figure" field
};

constexpr BenchBinary kBenches[] = {
    {"bench_f06_enc_packets", "F6"},
    {"bench_f07_duplication", "F7"},
    {"bench_f08_blocksize", "F8"},
    {"bench_f09_rho_nacks", "F9"},
    {"bench_f10_rho_latency", "F10"},
    {"bench_f12_adjustrho_trace", "F12"},
    {"bench_f13_nack_trace", "F13"},
    {"bench_f14_numnack_control", "F14"},
    {"bench_f15_blocksize_nacks", "F15"},
    {"bench_f16_blocksize_bw", "F16"},
    {"bench_f17_blocksize_rounds", "F17"},
    {"bench_f18_numnack_cost", "F18"},
    {"bench_f19_adaptive_overhead", "F19"},
    {"bench_f20_adaptive_overhead_n", "F20"},
    {"bench_f21_deadline_unicast", "F21"},
    {"bench_a1_cost_model", "A1"},
    {"bench_a2_nack_model", "A2"},
    {"bench_a3_scalability", "A3"},
    {"bench_a4_micro", "A4"},
    {"bench_ab1_assignment", "AB1"},
    {"bench_ab2_batching", "AB2"},
    {"bench_ab3_interleave", "AB3"},
    {"bench_ab4_degree", "AB4"},
    {"bench_ab5_unicast_switch", "AB5"},
    {"bench_ab6_eager", "AB6"},
    {"bench_r1_degraded", "R1"},
    {"bench_ks1_server_throughput", "KS1"},
    {"bench_w1_wire_throughput", "W1"},
    {"bench_r2_failover", "R2"},
};

Json run_bench(const BenchBinary& bench) {
  const std::string out =
      testing::TempDir() + "bench_json_" + bench.name + ".json";
  const std::string cmd = std::string(REKEY_BENCH_DIR) + "/" + bench.name +
                          " --smoke --json " + out + " > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0) << cmd;

  std::ifstream in(out);
  EXPECT_TRUE(in.good()) << out;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::remove(out.c_str());

  auto doc = test::parse_json(buf.str());
  EXPECT_TRUE(doc.has_value()) << bench.name << ": unparseable JSON";
  return doc.value_or(Json());
}

void validate_schema(const BenchBinary& bench, const Doc doc) {
  SCOPED_TRACE(bench.name);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("schema_version").as_int(), 1);
  EXPECT_EQ(doc.at("figure").as_string(), bench.figure);
  EXPECT_TRUE(doc.at("smoke").as_bool());

  const Doc sections = doc.at("sections");
  ASSERT_TRUE(sections.is_array());
  ASSERT_GT(sections.size(), 0u) << "no sections captured";
  for (const Doc section : sections.as_array()) {
    ASSERT_TRUE(section.is_object());
    EXPECT_FALSE(section.at("id").as_string().empty());
    const Doc columns = section.at("columns");
    const Doc rows = section.at("rows");
    ASSERT_TRUE(columns.is_array());
    ASSERT_TRUE(rows.is_array());
    ASSERT_GT(columns.size(), 0u);
    ASSERT_GT(rows.size(), 0u) << section.at("id").as_string();
    for (const Doc row : rows.as_array()) {
      ASSERT_TRUE(row.is_array());
      EXPECT_EQ(row.size(), columns.size())
          << "row arity mismatch in " << section.at("id").as_string();
      for (const Json& cell : row.as_array())
        EXPECT_TRUE(cell.is_number() || cell.is_string());
    }
  }

  const Doc seeds = doc.at("seeds");
  ASSERT_TRUE(seeds.is_array());
  for (const Json& seed : seeds.as_array()) {
    ASSERT_TRUE(seed.is_string());
    EXPECT_EQ(seed.as_string().substr(0, 2), "0x");
    EXPECT_EQ(seed.as_string().size(), 18u);  // 0x + 16 hex digits
  }

  const Doc notes = doc.at("notes");
  ASSERT_TRUE(notes.is_array());
  for (const Json& note : notes.as_array()) EXPECT_TRUE(note.is_string());
}

class BenchJson : public testing::TestWithParam<BenchBinary> {};

TEST_P(BenchJson, EmitsSchemaStableDocument) {
  const BenchBinary& bench = GetParam();
  validate_schema(bench, run_bench(bench));
}

INSTANTIATE_TEST_SUITE_P(AllFigures, BenchJson, testing::ValuesIn(kBenches),
                         [](const testing::TestParamInfo<BenchBinary>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace rekey
