// General experiment driver: every knob of the Section-8 scenario exposed
// as a flag, with an optional CSV timeline for plotting.
//
//   ./build/examples/simulate --scheme=hbp --attackers=50 --rate_mbps=0.5
//       --placement=close --leaves=500 --csv=timeline.csv
#include <cstdio>
#include <string>

#include "scenario/tree_experiment.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hbp;
  util::Flags flags(argc, argv);

  scenario::TreeExperimentConfig config;
  const std::string scheme = flags.get_string("scheme", "hbp");
  if (scheme == "hbp") {
    config.scheme = scenario::Scheme::kHbp;
  } else if (scheme == "pushback") {
    config.scheme = scenario::Scheme::kPushback;
  } else if (scheme == "none") {
    config.scheme = scenario::Scheme::kNoDefense;
  } else {
    std::fprintf(stderr, "unknown --scheme=%s (hbp|pushback|none)\n",
                 scheme.c_str());
    return 2;
  }
  const std::string placement = flags.get_string("placement", "even");
  if (placement == "close") {
    config.placement = scenario::AttackerPlacement::kClose;
  } else if (placement == "far") {
    config.placement = scenario::AttackerPlacement::kFar;
  } else if (placement == "even") {
    config.placement = scenario::AttackerPlacement::kEven;
  } else {
    std::fprintf(stderr, "unknown --placement=%s (close|far|even)\n",
                 placement.c_str());
    return 2;
  }

  config.tree.leaf_count =
      static_cast<std::size_t>(flags.get_int("leaves", 300));
  config.n_clients = static_cast<int>(flags.get_int("clients", 75));
  config.legit_load = flags.get_double("legit_load", 0.9);
  config.n_attackers = static_cast<int>(flags.get_int("attackers", 25));
  config.attacker_rate_bps = flags.get_double("rate_mbps", 1.0) * 1e6;
  config.sim_seconds = flags.get_double("duration", 100.0);
  config.attack_start = flags.get_double("attack_start", 5.0);
  config.attack_end =
      flags.get_double("attack_end", config.sim_seconds - 5.0);
  config.epoch_seconds = flags.get_double("epoch", 10.0);
  config.k_active = static_cast<int>(flags.get_int("k", 3));
  if (flags.has("t_on")) {
    config.onoff_t_on = flags.get_double("t_on", 2.0);
    config.onoff_t_off = flags.get_double("t_off", 8.0);
  }
  if (flags.has("follower")) {
    config.follower_delay = flags.get_double("follower", 1.0);
  }
  config.hbp_deploy_fraction = flags.get_double("deploy", 1.0);
  config.hbp.progressive = flags.get_bool("progressive", true);
  config.hbp.activation_threshold =
      static_cast<std::uint64_t>(flags.get_int("threshold", 1));
  config.pb_weighted_by_hosts = flags.get_bool("level_k", false);
  config.tcp_downloads = static_cast<int>(flags.get_int("tcp_downloads", 0));
  config.benign_probe_rate = flags.get_double("probe_rate", 0.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string csv = flags.get_string("csv", "");
  // Causal tracing: --trace=run.json (Perfetto / chrome://tracing) or
  // --trace=run.csv; --trace_flight sets the flight-recorder depth.
  config.trace_path = flags.get_string("trace", "");
  config.trace_flight =
      static_cast<std::size_t>(flags.get_int("trace_flight", 256));
  flags.finish();
  if (const std::string error = config.validate(); !error.empty()) {
    std::fprintf(stderr, "invalid config: %s\n", error.c_str());
    return 2;
  }

  const auto result = scenario::run_tree_experiment(config, seed);

  util::print_banner("result — " + scenario::to_string(config.scheme));
  util::Table table({"Metric", "Value"});
  table.add_row({"client throughput (baseline)",
                 util::Table::percent(result.baseline_throughput)});
  table.add_row({"client throughput (attack window)",
                 util::Table::percent(result.mean_client_throughput)});
  table.add_row({"attackers captured",
                 util::Table::num(static_cast<long long>(result.captured)) +
                     "/" +
                     util::Table::num(static_cast<long long>(result.attackers))});
  table.add_row({"false captures",
                 util::Table::num(static_cast<long long>(result.false_captures))});
  if (result.mean_capture_delay >= 0) {
    table.add_row({"capture delay mean/max",
                   util::Table::num(result.mean_capture_delay, 1) + " s / " +
                       util::Table::num(result.max_capture_delay, 1) + " s"});
  }
  if (config.tcp_downloads > 0) {
    table.add_row({"tcp goodput before/during",
                   util::Table::num(result.tcp_goodput_before / 1e6, 2) +
                       " / " +
                       util::Table::num(result.tcp_goodput_during / 1e6, 2) +
                       " Mb/s"});
  }
  table.add_row({"control messages",
                 util::Table::num(static_cast<long long>(result.control_messages))});
  table.add_row({"events executed",
                 util::Table::num(static_cast<long long>(result.events_executed))});
  table.print();

  if (!config.trace_path.empty()) {
    std::printf("trace written to %s\n", config.trace_path.c_str());
  }

  if (!csv.empty()) {
    std::FILE* f = std::fopen(csv.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", csv.c_str());
      return 1;
    }
    std::fprintf(f, "t_seconds,throughput_fraction\n");
    for (const auto& p : result.timeline) {
      std::fprintf(f, "%.1f,%.4f\n", p.t_seconds, p.fraction);
    }
    std::fclose(f);
    std::printf("\ntimeline written to %s\n", csv.c_str());
  }
  return 0;
}
