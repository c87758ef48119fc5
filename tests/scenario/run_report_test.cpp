// Telemetry determinism at the scenario level:
//  - the rendered run report, minus the trailing "perf" object, is
//    byte-identical across two same-seed runs;
//  - enabling telemetry profiling does not move the trace digest;
//  - per-AS HSM counters are exported sparsely, with no nonzero value lost.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/defense.hpp"
#include "honeypot/checkpoint.hpp"
#include "honeypot/hash_chain.hpp"
#include "honeypot/schedule.hpp"
#include "honeypot/server_pool.hpp"
#include "net/control_plane.hpp"
#include "net/network.hpp"
#include "scenario/string_experiment.hpp"
#include "scenario/tree_experiment.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/report.hpp"
#include "topo/tree.hpp"
#include "traffic/cbr.hpp"
#include "traffic/spoof.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"

namespace hbp::scenario {
namespace {

TreeExperimentConfig mini_tree(bool profile) {
  TreeExperimentConfig config;
  config.scheme = Scheme::kHbp;
  config.tree.leaf_count = 60;
  config.n_clients = 15;
  config.n_attackers = 5;
  config.attacker_rate_bps = 1.0e6;
  config.sim_seconds = 30.0;
  config.attack_start = 2.0;
  config.attack_end = 25.0;
  config.epoch_seconds = 5.0;
  config.profile = profile;
  return config;
}

std::string report_of(const TreeResult& r, bool include_perf) {
  telemetry::RunManifest manifest;
  manifest.name = "mini_tree";
  manifest.seed = 7;
  manifest.trace_digest = r.trace_digest;
  manifest.events_executed = r.events_executed;
  manifest.sim_seconds = 30.0;
  manifest.set_int("leaves", 60);
  telemetry::ReportOptions options;
  options.include_perf = include_perf;
  return telemetry::render_run_report(manifest, r.telemetry.get(), &r.perf,
                                      options);
}

TEST(RunReportDeterminism, SameSeedRendersByteIdenticalMinusPerf) {
  const auto config = mini_tree(/*profile=*/true);
  const TreeResult a = run_tree_experiment(config, 7);
  const TreeResult b = run_tree_experiment(config, 7);

  // Everything outside "perf" is a pure function of (config, seed).
  EXPECT_EQ(report_of(a, /*include_perf=*/false),
            report_of(b, /*include_perf=*/false));

  // With perf included, the deterministic prefix (up to `"perf":`) still
  // matches — the contract consumers rely on to diff reports across hosts.
  const std::string fa = report_of(a, /*include_perf=*/true);
  const std::string fb = report_of(b, /*include_perf=*/true);
  const auto pa = fa.find("\"perf\":");
  const auto pb = fb.find("\"perf\":");
  ASSERT_NE(pa, std::string::npos);
  EXPECT_EQ(fa.substr(0, pa), fb.substr(0, pb));
}

TEST(RunReportDeterminism, ProfilingDoesNotMoveTraceDigest) {
  const TreeResult off = run_tree_experiment(mini_tree(false), 7);
  const TreeResult on = run_tree_experiment(mini_tree(true), 7);
  EXPECT_EQ(off.trace_digest, on.trace_digest);
  EXPECT_EQ(off.events_executed, on.events_executed);
  EXPECT_EQ(off.mean_client_throughput, on.mean_client_throughput);

  // The profiled run carries per-label dispatch stats; the unprofiled one
  // doesn't pay for them.
  EXPECT_TRUE(off.perf.event_types.empty());
  ASSERT_FALSE(on.perf.event_types.empty());
  std::uint64_t dispatched = 0;
  for (const auto& s : on.perf.event_types) dispatched += s.count;
  EXPECT_EQ(dispatched, on.events_executed);
  EXPECT_GT(on.perf.peak_queue_depth, 0u);

  // sim.dispatch.<label> counters mirror the deterministic counts.
  ASSERT_TRUE(on.telemetry != nullptr);
  const auto* first = on.telemetry->find_counter(
      std::string("sim.dispatch.") + on.perf.event_types[0].label);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->value(), on.perf.event_types[0].count);
}

TEST(RunReportDeterminism, ScenarioMetricsExported) {
  const TreeResult r = run_tree_experiment(mini_tree(false), 7);
  ASSERT_TRUE(r.telemetry != nullptr);
  // The registry holds the ported scenario metrics and the subsystem
  // snapshots instrumented in this change.
  EXPECT_NE(r.telemetry->find_time_series("scenario.goodput.bytes"), nullptr);
  EXPECT_NE(r.telemetry->find_counter("scenario.capture.captured"), nullptr);
  EXPECT_NE(r.telemetry->find_counter("net.packets.transmitted"), nullptr);
  EXPECT_NE(r.telemetry->find_counter("net.control.total"), nullptr);
  EXPECT_NE(r.telemetry->find_counter("core.defense.captures"), nullptr);
  EXPECT_EQ(r.telemetry->find_counter("scenario.capture.captured")->value(),
            r.captured);
  EXPECT_EQ(r.telemetry->find_counter("core.defense.captures")->value(),
            r.captured);
}

TEST(RunReportDeterminism, StringExperimentProfilingDigestStable) {
  StringExperimentConfig config;
  config.m = 5.0;
  config.p = 0.5;
  config.h = 4;
  config.attacker_rate_bps = 0.1e6;
  config.tau = 0.5;
  config.horizon_seconds = 300.0;
  const StringResult off = run_string_experiment(config, 42);
  config.profile = true;
  const StringResult on = run_string_experiment(config, 42);
  EXPECT_EQ(off.trace_digest, on.trace_digest);
  EXPECT_EQ(off.events_executed, on.events_executed);
  EXPECT_EQ(off.capture_seconds, on.capture_seconds);
}

// Every "core.hsm.*" counter in `registry`, by name.
std::map<std::string, std::uint64_t> hsm_counters(
    const telemetry::Registry& registry) {
  std::map<std::string, std::uint64_t> out;
  registry.visit([&](const std::string& name, const telemetry::Counter* c,
                     auto*, auto*, auto*) {
    if (c != nullptr && name.rfind("core.hsm.", 0) == 0) {
      out[name] = c->value();
    }
  });
  return out;
}

TEST(RunReportDeterminism, NoZeroValuedHsmCounter) {
  const TreeResult r = run_tree_experiment(mini_tree(false), 7);
  ASSERT_TRUE(r.telemetry != nullptr);
  const auto counters = hsm_counters(*r.telemetry);
  EXPECT_FALSE(counters.empty());
  for (const auto& [name, value] : counters) {
    EXPECT_NE(value, 0u) << name;
  }
}

TEST(RunReportDeterminism, SparseHsmExportMatchesFullRead) {
  // A hand-wired small HBP tree, so the test can read every HSM directly.
  sim::Simulator simulator;
  net::Network network(simulator);
  util::Rng rng(3);
  topo::TreeParams tree_params;
  tree_params.leaf_count = 40;
  const topo::Tree tree = topo::build_tree(network, rng, tree_params);
  network.compute_routes();

  auto chain = std::make_shared<honeypot::HashChain>(
      util::Sha256::hash("sparse"), 1024);
  honeypot::RoamingSchedule schedule(
      chain, static_cast<int>(tree.servers.size()), 3,
      sim::SimTime::seconds(5));
  honeypot::CheckpointStore store;
  honeypot::ServerPool pool(simulator, network, schedule, tree.servers,
                            tree.server_addrs, store, {});
  net::ControlPlane control(simulator, {});
  core::HbpDefense defense(simulator, network, control, pool, tree.as_map,
                           {});
  defense.start();
  pool.start();

  std::vector<std::unique_ptr<traffic::CbrSource>> attackers;
  for (std::size_t leaf = 0; leaf < 4; ++leaf) {
    traffic::CbrParams params;
    params.rate_bps = 0.5e6;
    params.is_attack = true;
    attackers.push_back(std::make_unique<traffic::CbrSource>(
        simulator,
        static_cast<net::Host&>(network.node(tree.leaf_hosts[leaf * 10])),
        rng, params, [&tree] { return tree.server_addrs[0]; },
        traffic::random_spoof()));
    attackers.back()->start();
  }
  simulator.run_until(sim::SimTime::seconds(30));

  telemetry::Registry registry;
  defense.export_telemetry(registry);
  std::map<std::string, std::uint64_t> full_read;
  for (std::size_t as = 0; as < tree.as_map.count(); ++as) {
    const core::Hsm* hsm = defense.hsm(static_cast<net::AsId>(as));
    if (hsm == nullptr) continue;
    const std::string prefix = "core.hsm." + std::to_string(as);
    for (const auto& [name, value] :
         {std::pair{".requests", hsm->requests_received()},
          std::pair{".cancels", hsm->cancels_received()},
          std::pair{".diverted", hsm->packets_diverted()}}) {
      if (value != 0) full_read[prefix + name] = value;
    }
  }
  EXPECT_FALSE(full_read.empty());
  EXPECT_EQ(hsm_counters(registry), full_read);
}

}  // namespace
}  // namespace hbp::scenario
