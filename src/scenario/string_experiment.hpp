// Model-validation scenario (Section 8.2): a string topology with one
// server and one attacker h AS-hops away; measures the time from attack
// start to switch-port shutoff, to be compared with Eqs. (3)-(11).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "telemetry/report.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace hbp::scenario {

struct StringExperimentConfig {
  double m = 10.0;           // epoch length (s)
  double p = 0.3;            // honeypot probability per epoch
  int h = 10;                // chain routers / back-propagation AS hops
  double attacker_rate_bps = 0.1e6;
  int packet_size = 1000;
  double tau = 0.5;          // control-plane per-hop latency (s)
  bool progressive = false;  // basic scheme by default (as in Fig. 6)
  int rho = 5;
  std::optional<double> onoff_t_on;  // optional on-off attack
  double onoff_t_off = 0.0;
  std::optional<double> follower_delay;  // optional follower attack
  double control_loss_probability = 0.0;  // lossy control plane
  double horizon_seconds = 2000.0;   // give up after this long
  bool profile = false;              // event-loop profiling (observational)
  // Causal tracing (src/trace): export every span event here after the run
  // (".csv" => CSV, else Chrome/Perfetto JSON).  Observational — digests
  // are bit-identical with tracing on or off.
  std::string trace_path;
  std::size_t trace_flight = 256;  // flight-recorder depth (last N events)

  // Checks the inputs run_string_experiment cannot run with and returns a
  // readable message for the first one found; empty means the config is
  // valid (see TreeExperimentConfig::validate).
  std::string validate() const;
};

struct StringResult {
  bool captured = false;
  double capture_seconds = -1.0;  // from attack start (t = 0)
  std::uint64_t control_messages = 0;
  std::uint64_t reports = 0;      // progressive intermediate reports

  // Audit trail: the run's trace-digest fingerprint and event count (see
  // sim/trace_digest.hpp).  Same config + same seed must reproduce both
  // bit-identically; the golden regression tests pin them.
  std::uint64_t trace_digest = 0;
  std::uint64_t events_executed = 0;

  // Instrument tree + host-dependent measurements (see TreeResult).
  std::shared_ptr<const telemetry::Registry> telemetry;
  telemetry::PerfStats perf;
};

StringResult run_string_experiment(const StringExperimentConfig& config,
                                   std::uint64_t seed);

// Mean capture time over `runs` seeds (only counting captured runs; the
// returned stats include the capture fraction).
struct StringSummary {
  util::RunningStats capture_time;
  int runs = 0;
  int captured = 0;

  // Totals over all runs (bench perf records).
  std::uint64_t events_executed = 0;
  double sim_seconds = 0.0;
  std::shared_ptr<telemetry::Registry> metrics;
};
StringSummary run_string_replicated(const StringExperimentConfig& config,
                                    int runs, std::uint64_t base_seed,
                                    util::ThreadPool* pool = nullptr);

}  // namespace hbp::scenario
