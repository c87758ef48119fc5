// End-to-end tracing guarantees, pinned by ctest:
//
//  * observational purity — running a scenario with tracing enabled leaves
//    the trace digest and event count bit-identical to an untraced run;
//  * export determinism — two traced runs of the same seed produce
//    byte-identical JSON and CSV files;
//  * one stream — the run's digest is the fold of exactly the records the
//    CSV export shows.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "scenario/string_experiment.hpp"
#include "scenario/tree_experiment.hpp"
#include "sim/trace_digest.hpp"
#include "sim/trace_event.hpp"
#include "telemetry/registry.hpp"

namespace hbp::scenario {
namespace {

// The StringBasicContinuous golden configuration (small and fast, ~1500
// events), so any digest drift here would also trip the golden tests.
StringExperimentConfig small_config() {
  StringExperimentConfig config;
  config.m = 5.0;
  config.p = 0.5;
  config.h = 4;
  config.attacker_rate_bps = 0.1e6;
  config.tau = 0.5;
  config.progressive = false;
  config.horizon_seconds = 300.0;
  return config;
}

// The TreeHbpSmall golden configuration (~1.5 M records, every HBP verb).
TreeExperimentConfig small_tree_config() {
  TreeExperimentConfig config;
  config.scheme = Scheme::kHbp;
  config.tree.leaf_count = 60;
  config.n_clients = 12;
  config.n_attackers = 6;
  config.attacker_rate_bps = 0.5e6;
  config.sim_seconds = 30.0;
  config.attack_start = 5.0;
  config.attack_end = 25.0;
  config.epoch_seconds = 5.0;
  return config;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(TraceScenario, TracingLeavesDigestAndEventCountUnchanged) {
  const StringResult plain = run_string_experiment(small_config(), 42);

  StringExperimentConfig traced = small_config();
  traced.trace_path = testing::TempDir() + "hbp_trace_onoff.json";
  const StringResult with_trace = run_string_experiment(traced, 42);
  std::remove(traced.trace_path.c_str());

  EXPECT_EQ(plain.trace_digest, with_trace.trace_digest);
  EXPECT_EQ(plain.events_executed, with_trace.events_executed);
  EXPECT_EQ(plain.captured, with_trace.captured);
  EXPECT_EQ(plain.capture_seconds, with_trace.capture_seconds);
  EXPECT_EQ(plain.control_messages, with_trace.control_messages);
}

TEST(TraceScenario, JsonExportIsByteIdenticalAcrossRuns) {
  StringExperimentConfig config = small_config();
  config.trace_path = testing::TempDir() + "hbp_trace_a.json";
  run_string_experiment(config, 42);
  const std::string first = slurp(config.trace_path);
  std::remove(config.trace_path.c_str());

  config.trace_path = testing::TempDir() + "hbp_trace_b.json";
  run_string_experiment(config, 42);
  const std::string second = slurp(config.trace_path);
  std::remove(config.trace_path.c_str());

  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(TraceScenario, CsvExportIsByteIdenticalAcrossRuns) {
  StringExperimentConfig config = small_config();
  config.trace_path = testing::TempDir() + "hbp_trace_a.csv";
  run_string_experiment(config, 42);
  const std::string first = slurp(config.trace_path);
  std::remove(config.trace_path.c_str());

  config.trace_path = testing::TempDir() + "hbp_trace_b.csv";
  run_string_experiment(config, 42);
  const std::string second = slurp(config.trace_path);
  std::remove(config.trace_path.c_str());

  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.find("t_ns,verb,node,node_name,id,cause,a,b\n"), 0u);
}

TEST(TraceScenario, TraceCapturesTheWholeBackPropagationWave) {
  // The string run ends in a capture, so the trace must contain the full
  // causal chain: data-plane spans, the honeypot hit, the activation, the
  // propagated requests, and the final switch-port capture.
  StringExperimentConfig config = small_config();
  config.trace_path = testing::TempDir() + "hbp_trace_wave.csv";
  const StringResult result = run_string_experiment(config, 42);
  ASSERT_TRUE(result.captured);
  const std::string csv = slurp(config.trace_path);
  std::remove(config.trace_path.c_str());

  for (const char* verb :
       {",send,", ",enqueue,", ",deliver,", ",window_start,", ",honeypot_hit,",
        ",hbp_activate,", ",honeypot_request,", ",session_open,", ",divert,",
        ",upstream,", ",capture,"}) {
    EXPECT_NE(csv.find(verb), std::string::npos) << "missing verb " << verb;
  }
  // The telemetry side sees the same history: trace counters are exported
  // into the deterministic registry section.
  ASSERT_TRUE(result.telemetry);
  ASSERT_NE(result.telemetry->find_counter("trace.recorded"), nullptr);
  EXPECT_GT(result.telemetry->find_counter("trace.recorded")->value(), 0u);
}

// Parses one field of a CSV row and advances past its comma.
template <typename T>
T take(std::string_view& row) {
  T value{};
  const auto [end, ec] = std::from_chars(row.data(), row.data() + row.size(),
                                         value);
  EXPECT_EQ(ec, std::errc()) << "bad field in: " << row;
  row.remove_prefix(static_cast<std::size_t>(end - row.data()));
  if (!row.empty()) row.remove_prefix(1);
  return value;
}

std::string_view take_text(std::string_view& row) {
  const std::size_t comma = std::min(row.find(','), row.size());
  const std::string_view text = row.substr(0, comma);
  row.remove_prefix(std::min(comma + 1, row.size()));
  return text;
}

sim::TraceVerb verb_of(std::string_view name) {
  for (std::size_t v = 0; v < sim::kTraceVerbCount; ++v) {
    const auto verb = static_cast<sim::TraceVerb>(v);
    if (name == sim::verb_name(verb)) return verb;
  }
  ADD_FAILURE() << "unknown verb " << name;
  return sim::TraceVerb::kSend;
}

// Refolds a CSV trace export (t_ns,verb,node,node_name,id,cause,a,b) into a
// fresh digest, row by row.
sim::TraceDigest refold_csv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "t_ns,verb,node,node_name,id,cause,a,b");
  sim::TraceDigest digest;
  while (std::getline(in, line)) {
    std::string_view row = line;
    sim::TraceEvent e{};
    e.t = sim::SimTime(take<std::int64_t>(row));
    e.verb = verb_of(take_text(row));
    e.node = take<sim::NodeId>(row);
    take_text(row);  // node_name: derived from node
    e.id = take<std::uint64_t>(row);
    e.cause = take<std::uint64_t>(row);
    e.a = take<std::int32_t>(row);
    e.b = take<std::int32_t>(row);
    digest.fold(e);
  }
  return digest;
}

TEST(TraceScenario, DigestIsTheFoldOfTheTracedStream) {
  StringExperimentConfig string_config = small_config();
  string_config.trace_path = testing::TempDir() + "hbp_refold_string.csv";
  const StringResult string_result = run_string_experiment(string_config, 42);
  const sim::TraceDigest string_refold = refold_csv(string_config.trace_path);
  std::remove(string_config.trace_path.c_str());
  EXPECT_GT(string_refold.records(), 0u);
  EXPECT_EQ(string_refold.value(), string_result.trace_digest);

  TreeExperimentConfig tree_config = small_tree_config();
  tree_config.trace_path = testing::TempDir() + "hbp_refold_tree.csv";
  const TreeResult tree_result = run_tree_experiment(tree_config, 7);
  const sim::TraceDigest tree_refold = refold_csv(tree_config.trace_path);
  std::remove(tree_config.trace_path.c_str());
  EXPECT_GT(tree_refold.records(), 0u);
  EXPECT_EQ(tree_refold.value(), tree_result.trace_digest);
}

}  // namespace
}  // namespace hbp::scenario
