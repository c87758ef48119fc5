#include "scenario/string_experiment.hpp"

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/defense.hpp"
#include "honeypot/schedule.hpp"
#include "net/control_plane.hpp"
#include "net/invariant_checker.hpp"
#include "net/network.hpp"
#include "topo/string_topo.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "traffic/cbr.hpp"
#include "traffic/follower.hpp"
#include "traffic/onoff.hpp"
#include "traffic/spoof.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace hbp::scenario {

StringResult run_string_experiment(const StringExperimentConfig& config,
                                   std::uint64_t seed) {
  const auto wall_start = std::chrono::steady_clock::now();
  sim::Simulator simulator;
  if (config.profile) simulator.enable_profiling();
  net::Network network(simulator);
  std::unique_ptr<trace::Tracer> tracer;
  if (!config.trace_path.empty()) {
    trace::TracerOptions trace_options;
    trace_options.flight_capacity = config.trace_flight;
    tracer = std::make_unique<trace::Tracer>(trace_options);
    tracer->attach(simulator, &network);
  }

  topo::StringParams sp;
  sp.hops = config.h;
  topo::StringTopo topo = topo::build_string(network, sp);
  network.compute_routes();

  util::Rng chain_rng(util::derive_seed(seed, 1));
  util::Digest tail{};
  for (auto& b : tail) b = static_cast<std::uint8_t>(chain_rng.below(256));
  auto chain = std::make_shared<honeypot::HashChain>(tail, 8192);
  honeypot::BernoulliSchedule schedule(chain, config.p,
                                       sim::SimTime::seconds(config.m));

  honeypot::CheckpointStore store;
  honeypot::ServerPoolParams pool_params;
  pool_params.delta = sim::SimTime::millis(50);
  pool_params.gamma = sim::SimTime::millis(25);
  pool_params.last_epoch =
      static_cast<std::size_t>(config.horizon_seconds / config.m) + 2;
  honeypot::ServerPool pool(simulator, network, schedule, {topo.server},
                            {topo.server_addr}, store, pool_params);

  net::ControlPlane::Params cp;
  // One back-propagation hop = a divert report to the HSM plus a request to
  // the upstream AS, i.e. two control-plane messages; tau is the full
  // one-hop session-propagation time of the Section 7 analysis.
  cp.per_hop_latency = sim::SimTime::seconds(config.tau / 2.0);
  cp.jitter_fraction = 0.05;
  cp.loss_probability = config.control_loss_probability;
  cp.seed = util::derive_seed(seed, 2);
  net::ControlPlane control(simulator, cp);

  core::HbpParams hbp;
  hbp.progressive = config.progressive;
  hbp.rho = config.rho;
  hbp.tau_estimate = sim::SimTime::seconds(config.tau);
  core::HbpDefense defense(simulator, network, control, pool, topo.as_map, hbp);
  defense.start();

  StringResult result;
  // Named (not a temporary): the defense keeps a non-owning ref for the run.
  auto on_capture = [&](const core::CaptureEvent& e) {
    if (e.host == topo.attacker_host && !result.captured) {
      result.captured = true;
      result.capture_seconds = e.when.to_seconds();
    }
  };
  defense.add_capture_listener(on_capture);

  pool.start();

  util::Rng attacker_rng(util::derive_seed(seed, 3));
  auto& attacker_host =
      static_cast<net::Host&>(network.node(topo.attacker_host));
  traffic::CbrParams cbr;
  cbr.rate_bps = config.attacker_rate_bps;
  cbr.packet_size = config.packet_size;
  cbr.start = sim::SimTime::zero();
  cbr.is_attack = true;
  traffic::CbrSource attacker(simulator, attacker_host, attacker_rng, cbr,
                              [addr = topo.server_addr] { return addr; },
                              traffic::random_spoof());

  std::unique_ptr<traffic::OnOffShaper> shaper;
  std::unique_ptr<traffic::FollowerShaper> follower;
  // Named (not temporaries): the pool keeps non-owning refs for the run.
  auto on_follow_start = [&follower](int, std::size_t) {
    follower->on_target_honeypot_start();
  };
  auto on_follow_end = [&follower](int, std::size_t) {
    follower->on_target_honeypot_end();
  };
  if (config.onoff_t_on) {
    shaper = std::make_unique<traffic::OnOffShaper>(
        simulator, attacker, sim::SimTime::seconds(*config.onoff_t_on),
        sim::SimTime::seconds(config.onoff_t_off));
    shaper->start();
  } else if (config.follower_delay) {
    follower = std::make_unique<traffic::FollowerShaper>(
        simulator, attacker, sim::SimTime::seconds(*config.follower_delay));
    pool.add_honeypot_window_listener(on_follow_start, on_follow_end);
  }
  attacker.start();

  // Run until captured or the horizon; step epoch by epoch so we can stop
  // early without simulating the full horizon.
  const sim::SimTime horizon = sim::SimTime::seconds(config.horizon_seconds);
  sim::SimTime t = sim::SimTime::zero();
  const sim::SimTime step = sim::SimTime::seconds(config.m);
  while (!result.captured && t < horizon) {
    t = t + step;
    simulator.run_until(t < horizon ? t : horizon);
  }

  net::InvariantChecker audit(network);
  audit.expect_ok();

  result.control_messages = control.total_messages();
  result.reports = control.messages_sent("intermediate_report");
  result.trace_digest = simulator.trace().value();
  result.events_executed = simulator.events_executed();

  network.export_telemetry(simulator.telemetry());
  control.export_telemetry(simulator.telemetry());
  defense.export_telemetry(simulator.telemetry());
  if (tracer) tracer->export_counters(simulator.telemetry());
  if (const telemetry::LoopProfiler* prof = simulator.profiler()) {
    for (const auto& ts : prof->by_type()) {
      simulator.telemetry()
          .counter(std::string("sim.dispatch.") + ts.label)
          .add(ts.count);
    }
    result.perf.peak_queue_depth = prof->peak_queue_depth();
    result.perf.event_types = prof->by_type();
  }
  result.telemetry = simulator.telemetry_ptr();
  result.perf.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  result.perf.events_executed = simulator.events_executed();
  result.perf.peak_rss_bytes = telemetry::peak_rss_bytes();
  result.perf.sim_seconds = simulator.now().to_seconds();
  if (tracer) {
    HBP_ASSERT_MSG(trace::write_trace_file(*tracer, config.trace_path),
                   "could not write the trace file");
  }
  return result;
}

StringSummary run_string_replicated(const StringExperimentConfig& config,
                                    int runs, std::uint64_t base_seed,
                                    util::ThreadPool* pool) {
  // Replications land in a per-seed slot and are merged serially in seed
  // order afterwards, so the summary is bit-identical whether the runs
  // execute on a thread pool or inline (floating-point accumulation is not
  // commutative; merge order must not depend on thread scheduling).
  std::vector<StringResult> results(static_cast<std::size_t>(runs));
  auto one = [&](std::size_t i) {
    results[i] =
        run_string_experiment(config, base_seed + static_cast<std::uint64_t>(i));
  };
  if (pool != nullptr) {
    pool->parallel_for(static_cast<std::size_t>(runs), one);
  } else {
    for (int i = 0; i < runs; ++i) one(static_cast<std::size_t>(i));
  }

  StringSummary summary;
  summary.runs = runs;
  summary.metrics = std::make_shared<telemetry::Registry>();
  for (const StringResult& r : results) {
    summary.events_executed += r.events_executed;
    summary.sim_seconds += r.perf.sim_seconds;
    if (r.telemetry) summary.metrics->merge(*r.telemetry);
    if (r.captured) {
      ++summary.captured;
      summary.capture_time.add(r.capture_seconds);
    }
  }
  return summary;
}

}  // namespace hbp::scenario
