// hbp benchmark program.
//
// Runs one workload as a single-threaded closed loop of seeded simulations
// (the next run starts when the previous one returns) for a fixed host-time
// budget, checks every run's model outputs, and prints each metric by name
// with its unit.  The last line of standard output is one JSON object:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// --trace 0 reports the end-to-end metrics from unprofiled runs.  --trace 1
// pairs every unprofiled run with a profiled run of the same simulation and
// reports the per-module ledger: dispatch-label wall times from the event
// loop profiler, result/telemetry counters, and the set-up calls timed here.
// Nothing is measured from inside src/.
//
//   hbp_perfbench --workload fig8_hbp --seed 1 --seconds 30 --trace 0
//   hbp_perfbench --workload fig6_string --seed 1 --pin 216   # pin-file lines
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/capture_time.hpp"
#include "bench/bench_util.hpp"
#include "honeypot/hash_chain.hpp"
#include "net/network.hpp"
#include "scenario/string_experiment.hpp"
#include "scenario/tree_experiment.hpp"
#include "sim/simulator.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/report.hpp"
#include "topo/string_topo.hpp"
#include "topo/tree.hpp"
#include "util/rng.hpp"

namespace {

using namespace hbp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::uint64_t counter(const telemetry::Registry& r, std::string_view name) {
  const telemetry::Counter* c = r.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

// --- workloads -------------------------------------------------------------

// Fig. 6(a) honeypot probabilities; fig6_string cycles through them.
constexpr double kFig6P[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
constexpr std::size_t kFig6Points = std::size(kFig6P);

// Hash-chain lengths the two scenarios build (tree_experiment.cpp and
// string_experiment.cpp); timed directly for honeypot.chain_s.
constexpr std::size_t kTreeChainLength = 4096;
constexpr std::size_t kStringChainLength = 8192;

enum class Kind { kFig8Hbp, kFig8Pushback, kFig6String };

struct Workload {
  Kind kind;
  const char* name;
  // Distinct simulations per --seed.  The loop starts at simulation 0 (the
  // warm-up run, so at least one repeat is checked) and cycles.  fig8 runs
  // are slow enough that a run never wraps, so its median covers as many
  // topologies as it has runs.  A fig6 run covers every simulation at least
  // twice: capture times are heavy-tailed, so its totals need many of them.
  std::size_t distinct;
  // Set-up measurements for the per-module set-up split.
  int setup_reps;
};

constexpr Workload kWorkloads[] = {
    {Kind::kFig8Hbp, "fig8_hbp", 64, 40},
    {Kind::kFig8Pushback, "fig8_pushback", 64, 40},
    {Kind::kFig6String, "fig6_string", 9 * 200, 100},
};

bool is_tree(const Workload& w) { return w.kind != Kind::kFig6String; }

scenario::TreeExperimentConfig tree_config(const Workload& w) {
  scenario::TreeExperimentConfig config = bench::default_tree_config();
  config.scheme = w.kind == Kind::kFig8Hbp ? scenario::Scheme::kHbp
                                           : scenario::Scheme::kPushback;
  return config;
}

// fig6_validation's base(10, p, 10) with its default tau and rate.
scenario::StringExperimentConfig string_config(double p) {
  scenario::StringExperimentConfig config;
  config.m = 10.0;
  config.p = p;
  config.h = 10;
  config.tau = 0.3;
  config.attacker_rate_bps = 0.1e6;
  config.progressive = false;
  return config;
}

// Simulation `index` of the cycle for benchmark seed `seed`.
std::uint64_t sim_seed(std::uint64_t seed, std::size_t index) {
  return seed * 100'000 + index;
}
double fig6_p(std::size_t index) { return kFig6P[index % kFig6Points]; }

// --- one simulation run ----------------------------------------------------

// Model outputs that a pure speed or simplicity change must leave exactly
// as they are.  Event counts and the loop digest are deliberately left out:
// scheduler-internal changes move them while every packet does the same.
struct Fingerprint {
  std::uint64_t captured = 0;
  std::uint64_t false_captures = 0;
  double capture_s = 0.0;
  double goodput = 0.0;
  std::uint64_t control_msgs = 0;
  std::uint64_t hops = 0;
  std::uint64_t filter_drops = 0;
  std::uint64_t queue_drops = 0;

  bool operator==(const Fingerprint&) const = default;

  std::string text() const {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "captured=%llu false=%llu capture_s=%.12g goodput=%.12g "
                  "control=%llu hops=%llu filter_drops=%llu queue_drops=%llu",
                  static_cast<unsigned long long>(captured),
                  static_cast<unsigned long long>(false_captures), capture_s,
                  goodput, static_cast<unsigned long long>(control_msgs),
                  static_cast<unsigned long long>(hops),
                  static_cast<unsigned long long>(filter_drops),
                  static_cast<unsigned long long>(queue_drops));
    return buf;
  }
  // FNV-1a of text(): 12 significant digits keep the pin stable under
  // floating-point reassociation that leaves the model unchanged.
  std::uint64_t hash() const {
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : text()) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    return h;
  }
};

struct RunOutput {
  double wall_s = 0.0;
  Fingerprint fp;
  std::uint64_t events = 0;
  std::uint64_t activations = 0;
  std::uint64_t pushback_requests = 0;
  std::uint64_t pushback_limited_drops = 0;
  std::size_t peak_queue = 0;
  std::vector<telemetry::LoopProfiler::TypeStats> types;  // profiled runs
};

RunOutput run_once(const Workload& w, std::uint64_t seed, std::size_t index,
                   bool profile, bool setup_only) {
  RunOutput out;
  const std::uint64_t s = sim_seed(seed, index);
  const auto start = Clock::now();
  std::shared_ptr<const telemetry::Registry> registry;
  if (is_tree(w)) {
    scenario::TreeExperimentConfig config = tree_config(w);
    config.profile = profile;
    if (setup_only) config.sim_seconds = 0.0;
    const scenario::TreeResult r = scenario::run_tree_experiment(config, s);
    out.wall_s = seconds_since(start);
    registry = r.telemetry;
    out.fp.captured = r.captured;
    out.fp.false_captures = r.false_captures;
    out.fp.capture_s = r.mean_capture_delay;
    out.fp.goodput = r.mean_client_throughput;
    out.fp.control_msgs = r.control_messages;
    out.events = r.events_executed;
    out.activations = r.hbp_activations;
    out.pushback_requests = r.pushback_requests;
    out.pushback_limited_drops = r.pushback_limited_drops;
    out.peak_queue = r.perf.peak_queue_depth;
    out.types = r.perf.event_types;
  } else {
    scenario::StringExperimentConfig config = string_config(fig6_p(index));
    config.profile = profile;
    if (setup_only) config.horizon_seconds = 0.0;
    const scenario::StringResult r = scenario::run_string_experiment(config, s);
    out.wall_s = seconds_since(start);
    registry = r.telemetry;
    const std::uint64_t captures = counter(*registry, "core.defense.captures");
    out.fp.captured = r.captured ? 1 : 0;
    out.fp.false_captures = captures - out.fp.captured;
    out.fp.capture_s = r.capture_seconds;
    out.fp.control_msgs = r.control_messages;
    out.events = r.events_executed;
    out.activations = counter(*registry, "core.defense.activations");
    out.peak_queue = r.perf.peak_queue_depth;
    out.types = r.perf.event_types;
  }
  out.fp.hops = counter(*registry, "net.packets.delivered");
  out.fp.filter_drops = counter(*registry, "net.packets.dropped_filter");
  out.fp.queue_drops = counter(*registry, "net.queue.drops");
  return out;
}

// Outputs every run of the workload must show whatever the seed.
bool plausible(const Workload& w, const RunOutput& r) {
  if (r.fp.hops == 0 || r.events == 0) return false;
  switch (w.kind) {
    case Kind::kFig8Hbp:
      return r.fp.captured > 0 && r.fp.goodput > 0.0 && r.fp.control_msgs > 0;
    case Kind::kFig8Pushback:
      return r.fp.captured == 0 && r.fp.goodput > 0.0 &&
             r.pushback_requests > 0;
    case Kind::kFig6String:
      return r.fp.captured == 1 && r.fp.capture_s > 0.0;
  }
  return false;
}

// --- correctness -----------------------------------------------------------

// Checks each run against the pinned fingerprint of its simulation (for the
// seeds in the pin file) or against the first run of the same simulation in
// this process (any other seed).
class Checker {
 public:
  Checker(const Workload& w, std::uint64_t seed, const std::string& pin_path)
      : workload_(w) {
    if (pin_path.empty()) return;
    std::ifstream in(pin_path);
    if (!in) {
      std::fprintf(stderr, "cannot read fingerprint file %s\n",
                   pin_path.c_str());
      std::exit(2);
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string name;
      std::uint64_t pin_seed = 0;
      std::size_t index = 0;
      std::string hex;
      if (!(fields >> name >> pin_seed >> index >> hex)) continue;
      if (name == w.name && pin_seed == seed) {
        pinned_[index] = std::strtoull(hex.c_str(), nullptr, 16);
      }
    }
  }

  std::size_t pinned() const { return pinned_.size(); }

  // Records one run; explains on stderr when it is wrong.
  void check(std::size_t index, const RunOutput& r) {
    ++attempted_;
    bool ok = plausible(workload_, r);
    if (!ok) {
      std::fprintf(stderr, "implausible output, simulation %zu: %s\n", index,
                   r.fp.text().c_str());
    }
    if (const auto pin = pinned_.find(index); pin != pinned_.end()) {
      if (r.fp.hash() != pin->second) {
        std::fprintf(stderr,
                     "fingerprint drifted, simulation %zu: %016llx != pinned "
                     "%016llx (%s)\n",
                     index, static_cast<unsigned long long>(r.fp.hash()),
                     static_cast<unsigned long long>(pin->second),
                     r.fp.text().c_str());
        ok = false;
      }
    }
    const auto [first, inserted] = seen_.emplace(index, r.fp);
    if (!inserted) {
      ++repeats_;
      if (!(first->second == r.fp)) {
        std::fprintf(stderr, "repeat disagrees, simulation %zu:\n  %s\n  %s\n",
                     index, first->second.text().c_str(), r.fp.text().c_str());
        ok = false;
      }
    }
    if (!ok) ++failed_;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t repeats() const { return repeats_; }

 private:
  const Workload& workload_;
  std::map<std::size_t, std::uint64_t> pinned_;
  std::map<std::size_t, Fingerprint> seen_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t repeats_ = 0;
};

// --- reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  // In the final JSON object.
  void add(std::string name, double value, std::string unit) {
    print(name, value, unit, "");
    json_.push_back({std::move(name), value, std::move(unit)});
  }
  // Printed for the reader only.
  void note(const std::string& name, double value, const std::string& unit) {
    print(name, value, unit, "  (text only)");
  }

  void finish(const Checker& checker) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                checker.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(checker.attempted()),
                static_cast<unsigned long long>(checker.failed()));
    for (std::size_t i = 0; i < json_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", json_[i].name.c_str(), json_[i].value,
                  json_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  static void print(const std::string& name, double value,
                    const std::string& unit, const char* suffix) {
    std::printf("  %-24s %16.9g %s%s\n", name.c_str(), value, unit.c_str(),
                suffix);
  }
  std::vector<Metric> json_;
};

// Mean over the Fig. 6(a) points of |simulated mean capture time - (Eq. (3)
// + in-window traversal of the h hops)|, as bench/fig6_validation prints it.
double eq3_gap(const std::vector<std::pair<std::size_t, double>>& captures) {
  std::vector<double> sum(kFig6Points, 0.0);
  std::vector<int> n(kFig6Points, 0);
  for (const auto& [index, seconds] : captures) {
    sum[index % kFig6Points] += seconds;
    ++n[index % kFig6Points];
  }
  double gap = 0.0;
  int points = 0;
  for (std::size_t i = 0; i < kFig6Points; ++i) {
    if (n[i] == 0) continue;
    const scenario::StringExperimentConfig config = string_config(kFig6P[i]);
    analysis::Params params;
    params.m = config.m;
    params.p = config.p;
    params.h = config.h;
    params.r = config.attacker_rate_bps / (config.packet_size * 8.0);
    params.tau = config.tau;
    const double model = analysis::basic_continuous(params).seconds +
                         params.h * analysis::hop_time(params);
    gap += std::abs(sum[i] / n[i] - model);
    ++points;
  }
  return points > 0 ? gap / points : 0.0;
}

// --- host speed ------------------------------------------------------------

// A fixed event-queue-and-table kernel that shares no code with the
// simulator: a binary heap of (time, slot) events over a 256 KiB table, the
// same mix of heap traffic and scattered memory access as a packet
// simulation.  Its speed is the host's speed at the moment.
double reference_kernel_s() {
  static volatile std::uint64_t sink = 0;
  const auto start = Clock::now();
  constexpr int kBits = 15;
  constexpr std::uint32_t kSlots = 1u << kBits;
  std::vector<std::uint64_t> table(kSlots);
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap;
  std::uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 4096; ++i) {
    heap.push({next() & 0xffffff, static_cast<std::uint32_t>(next() % kSlots)});
  }
  for (int i = 0; i < 500'000; ++i) {
    const Event e = heap.top();
    heap.pop();
    table[e.second] += e.first;
    const auto slot =
        static_cast<std::uint32_t>((e.first * 0x9E3779B97F4A7C15ull) >>
                                   (64 - kBits));
    heap.push({e.first + (next() & 0xffff) + table[slot] % 7, slot});
  }
  sink = sink + table[12345] + heap.top().first;
  return seconds_since(start);
}

// Samples the reference kernel about once a second of loop time.  The
// timings a run reports are scaled by kNominal / (median kernel time), i.e.
// given in seconds at a nominal host speed, which cancels the drift of a
// shared host's speed between runs (1.6x over minutes has been seen).
class HostSpeed {
 public:
  static constexpr double kNominal = 0.05;  // kernel seconds at nominal speed

  HostSpeed() { sample(); }

  void maybe_sample() {
    if (seconds_since(last_) >= 1.0) sample();
  }
  double kernel_s() const { return median(samples_); }
  // Host seconds -> nominal seconds.
  double scale() const { return kNominal / kernel_s(); }

 private:
  void sample() {
    samples_.push_back(reference_kernel_s());
    last_ = Clock::now();
  }
  std::vector<double> samples_;
  Clock::time_point last_;
};

// --- set-up ----------------------------------------------------------------

struct SetupSplit {
  double setup_s = 0.0;   // set-up-only run (0 s horizon), as setup_s
  double build_s = 0.0;   // topo::build_tree / topo::build_string
  double routes_s = 0.0;  // net::Network::compute_routes
  double chain_s = 0.0;   // honeypot::HashChain at the workload's length
};

// Times set-up-only runs and, alternating with them so that both see the
// same host, the three heavy set-up calls made directly with the workload's
// parameters the way the scenario makes them.  Medians of each.
SetupSplit measure_setup_split(const Workload& w, std::uint64_t seed) {
  std::vector<double> setup, build, routes, chain;
  for (int i = 0; i < w.setup_reps; ++i) {
    const std::size_t index = static_cast<std::size_t>(i) % w.distinct;
    setup.push_back(run_once(w, seed, index, false, true).wall_s);

    const std::uint64_t s = sim_seed(seed, index);
    sim::Simulator simulator;
    net::Network network(simulator);
    auto t0 = Clock::now();
    if (is_tree(w)) {
      util::Rng topo_rng(util::derive_seed(s, 1));
      const topo::Tree tree =
          topo::build_tree(network, topo_rng, tree_config(w).tree);
      build.push_back(seconds_since(t0));
    } else {
      topo::StringParams params;
      params.hops = string_config(0.5).h;
      const topo::StringTopo topo = topo::build_string(network, params);
      build.push_back(seconds_since(t0));
    }
    t0 = Clock::now();
    network.compute_routes();
    routes.push_back(seconds_since(t0));

    util::Rng chain_rng(util::derive_seed(s, is_tree(w) ? 3 : 1));
    util::Digest tail{};
    for (auto& b : tail) b = static_cast<std::uint8_t>(chain_rng.below(256));
    t0 = Clock::now();
    const honeypot::HashChain hash_chain(
        tail, is_tree(w) ? kTreeChainLength : kStringChainLength);
    chain.push_back(seconds_since(t0));
  }
  return {median(setup), median(build), median(routes), median(chain)};
}

// --- the two modes ---------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::size_t pin = 0;  // > 0: print this many fingerprints and exit
  std::string fingerprints;
};

// Peak resident memory of this process image.  VmHWM, not getrusage(): Linux
// carries ru_maxrss across execve, so it would report the launching
// process's peak when that one was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return static_cast<double>(telemetry::peak_rss_bytes()) / (1024.0 * 1024.0);
}

// An untimed run of simulation 0: fills caches and the allocator before
// timing, and gives the timed loop's first run a repeat to agree with.
void warm_up(const Workload& w, const Args& args, Checker& checker) {
  checker.check(0, run_once(w, args.seed, 0, false, false));
}

// Share of the loop spent on set-up-only runs, interleaved with the full
// runs so that both medians sample the same stretch of host time.
constexpr double kSetupShare = 0.1;

void run_end_to_end(const Workload& w, const Args& args, Checker& checker,
                    Report& report) {
  warm_up(w, args, checker);
  HostSpeed host;

  std::vector<double> walls, setups, goodput;
  double hops = 0.0;
  std::vector<std::pair<std::size_t, double>> captures;
  double setup_spent = 0.0;
  const auto start = Clock::now();
  std::size_t i = 0;
  for (double elapsed = 0.0; elapsed < args.seconds;
       elapsed = seconds_since(start)) {
    host.maybe_sample();
    if (setup_spent < kSetupShare * elapsed) {
      const std::size_t index = setups.size() % w.distinct;
      const double wall = run_once(w, args.seed, index, false, true).wall_s;
      setups.push_back(wall);
      setup_spent += wall;
      continue;
    }
    const std::size_t index = i++ % w.distinct;
    const RunOutput r = run_once(w, args.seed, index, false, false);
    checker.check(index, r);
    walls.push_back(r.wall_s);
    hops += static_cast<double>(r.fp.hops);
    if (is_tree(w)) goodput.push_back(r.fp.goodput);
    if (r.fp.captured > 0) captures.emplace_back(index, r.fp.capture_s);
  }
  if (setups.empty()) {
    setups.push_back(run_once(w, args.seed, 0, false, true).wall_s);
  }

  const double scale = host.scale();
  report.add("run_s_p50", median(walls) * scale, "s");
  double run_wall = 0.0;
  for (const double wall : walls) run_wall += wall;
  report.add("hops_per_s", hops / (run_wall * scale), "1/s");
  report.add("setup_s", median(setups) * scale, "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  // Fig. 8 runs are too few for a tail percentile with ten runs beyond it.
  if (!is_tree(w)) report.note("run_s_p90", quantile(walls, 0.9) * scale, "s");
  report.note("fail_frac",
              static_cast<double>(checker.failed()) /
                  static_cast<double>(checker.attempted()),
              "ratio");
  if (is_tree(w)) {
    report.note("goodput_frac", median(goodput), "ratio");
  }
  if (!captures.empty()) {
    double sum = 0.0;
    for (const auto& c : captures) sum += c.second;
    report.note("capture_s", sum / static_cast<double>(captures.size()), "s");
  }
  if (!is_tree(w)) report.note("analysis.eq3_gap", eq3_gap(captures), "s");
  report.note("runs", static_cast<double>(walls.size()), "count");
  report.note("setup_runs", static_cast<double>(setups.size()), "count");
  report.note("host.kernel_s", host.kernel_s(), "s");
  report.note("host.run_s_p50", median(walls), "s");
  report.note("host.setup_s", median(setups), "s");
}

// Which module a dispatch label belongs to.
enum Module { kDeliver, kTx, kControl, kTraffic, kPool, kCore, kPushback,
              kOther, kModules };

Module module_of(std::string_view label) {
  if (label == "net.link.deliver") return kDeliver;
  if (label == "net.link.tx") return kTx;
  if (label.starts_with("net.control.")) return kControl;
  if (label.starts_with("traffic.")) return kTraffic;
  if (label.starts_with("honeypot.pool.")) return kPool;
  if (label.starts_with("core.")) return kCore;
  if (label.starts_with("pushback.")) return kPushback;
  return kOther;
}

void run_per_layer(const Workload& w, const Args& args, Checker& checker,
                   Report& report) {
  warm_up(w, args, checker);
  HostSpeed host;
  const SetupSplit split = measure_setup_split(w, args.seed);

  struct Profiled {
    double plain_wall;
    RunOutput run;
    std::uint64_t ns[kModules] = {};
    std::uint64_t count[kModules] = {};
  };
  std::vector<Profiled> runs;
  std::vector<std::pair<std::size_t, double>> captures;
  const auto start = Clock::now();
  for (std::size_t i = 0; seconds_since(start) < args.seconds; ++i) {
    host.maybe_sample();
    const std::size_t index = i % w.distinct;
    const RunOutput plain = run_once(w, args.seed, index, false, false);
    checker.check(index, plain);
    Profiled p{plain.wall_s, run_once(w, args.seed, index, true, false)};
    checker.check(index, p.run);
    for (const auto& ts : p.run.types) {
      const Module m = module_of(ts.label);
      p.ns[m] += ts.wall_ns;
      p.count[m] += ts.count;
    }
    if (plain.fp.captured > 0) captures.emplace_back(index, plain.fp.capture_s);
    runs.push_back(std::move(p));
  }

  // Per-run medians over the profiled runs; times in nominal seconds.
  const double scale = host.scale();
  auto per_run = [&runs](auto&& f) {
    std::vector<double> v;
    for (const Profiled& p : runs) v.push_back(static_cast<double>(f(p)));
    return median(v);
  };
  auto module_s = [&](Module m) {
    return per_run([m](const Profiled& p) { return p.ns[m] * 1e-9; }) * scale;
  };
  auto add_count = [&](const char* name, auto&& f) {
    report.add(name, per_run(f), "count");
  };

  add_count("sim.events", [](const Profiled& p) { return p.run.events; });
  report.add("sim.events_per_hop", per_run([](const Profiled& p) {
               return static_cast<double>(p.run.events) /
                      static_cast<double>(p.run.fp.hops);
             }),
             "ratio");
  add_count("sim.peak_queue",
            [](const Profiled& p) { return p.run.peak_queue; });
  report.add("sim.loop_self_s", scale * per_run([&split](const Profiled& p) {
               std::uint64_t handlers = 0;
               for (const std::uint64_t ns : p.ns) handlers += ns;
               return p.run.wall_s - split.setup_s - handlers * 1e-9;
             }),
             "s");

  add_count("net.hops", [](const Profiled& p) { return p.run.fp.hops; });
  report.add("net.deliver_s", module_s(kDeliver), "s");
  report.add("net.deliver_ns_per_hop", scale * per_run([](const Profiled& p) {
               return static_cast<double>(p.ns[kDeliver]) /
                      static_cast<double>(p.run.fp.hops);
             }),
             "ns/hop");
  add_count("net.tx_events", [](const Profiled& p) { return p.count[kTx]; });
  report.add("net.tx_s", module_s(kTx), "s");
  add_count("net.filter_drops",
            [](const Profiled& p) { return p.run.fp.filter_drops; });
  add_count("net.queue_drops",
            [](const Profiled& p) { return p.run.fp.queue_drops; });
  add_count("net.control_msgs",
            [](const Profiled& p) { return p.run.fp.control_msgs; });
  report.add("net.control_s", module_s(kControl), "s");
  report.add("net.routes_s", split.routes_s * scale, "s");

  add_count("traffic.ticks",
            [](const Profiled& p) { return p.count[kTraffic]; });
  report.add("traffic.tick_s", module_s(kTraffic), "s");

  report.add("honeypot.chain_s", split.chain_s * scale, "s");
  report.add("honeypot.pool_s", module_s(kPool), "s");

  report.add("core.s", module_s(kCore), "s");
  add_count("core.activations",
            [](const Profiled& p) { return p.run.activations; });
  add_count("core.captures",
            [](const Profiled& p) { return p.run.fp.captured; });
  add_count("core.false_captures",
            [](const Profiled& p) { return p.run.fp.false_captures; });

  report.add("pushback.timer_s", module_s(kPushback), "s");
  add_count("pushback.requests",
            [](const Profiled& p) { return p.run.pushback_requests; });
  add_count("pushback.limited_drops",
            [](const Profiled& p) { return p.run.pushback_limited_drops; });

  report.add("topo.build_s", split.build_s * scale, "s");
  report.add("scenario.other_s",
             (split.setup_s - split.build_s - split.routes_s - split.chain_s) *
                 scale,
             "s");
  report.add("analysis.eq3_gap", is_tree(w) ? 0.0 : eq3_gap(captures), "s");

  std::vector<double> plain, profiled;
  for (const Profiled& p : runs) {
    plain.push_back(p.plain_wall);
    profiled.push_back(p.run.wall_s);
  }
  report.add("profile.overhead", median(profiled) / median(plain), "x");
  report.note("setup_s", split.setup_s * scale, "s");
  report.note("profiled_runs", static_cast<double>(runs.size()), "count");
  report.note("host.kernel_s", host.kernel_s(), "s");
}

// Runs the first `count` simulations once each and prints their fingerprint
// lines, the format of the pin file.
void print_fingerprints(const Workload& w, std::uint64_t seed,
                        std::size_t count) {
  for (std::size_t i = 0; i < std::min(count, w.distinct); ++i) {
    const RunOutput r = run_once(w, seed, i, false, false);
    std::printf("%s %llu %zu %016llx\n", w.name,
                static_cast<unsigned long long>(seed), i,
                static_cast<unsigned long long>(r.fp.hash()));
  }
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: hbp_perfbench --workload <fig8_hbp|fig8_pushback|"
               "fig6_string> --seed <n> --seconds <s> --trace <0|1> "
               "[--fingerprints <file>] [--pin <count>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--pin") {
      args.pin = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("bad --pin");
    } else if (flag == "--fingerprints") {
      args.fingerprints = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0' || args.seed > 1'000'000'000) usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0 && args.seconds <= 120.0)) {
        usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(std::strtol(value, &end, 10));
      if (*end != '\0' || (args.trace != 0 && args.trace != 1)) {
        usage("bad --trace");
      }
    } else {
      usage("unknown flag");
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown --workload");

  if (args.pin > 0) {
    print_fingerprints(*workload, args.seed, args.pin);
    return 0;
  }

  std::printf("hbp benchmark: workload=%s seed=%llu seconds=%g trace=%d\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  Checker checker(*workload, args.seed, args.fingerprints);
  Report report;
  if (args.trace == 0) {
    run_end_to_end(*workload, args, checker, report);
  } else {
    run_per_layer(*workload, args, checker, report);
  }
  std::printf("  checked %llu runs: %llu repeats, %zu pinned simulations\n",
              static_cast<unsigned long long>(checker.attempted()),
              static_cast<unsigned long long>(checker.repeats()),
              checker.pinned());
  report.finish(checker);
  return 0;
}
