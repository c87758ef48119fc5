// Micro-benchmarks (google-benchmark) of the substrate hot paths: event
// queue, SHA-256 / HMAC / hash-chain generation, router forwarding, and the
// max-min allocator.  These bound the simulator's throughput (events/s).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "honeypot/hash_chain.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "net/router.hpp"
#include "pushback/maxmin.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "telemetry/report.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"

namespace {

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  hbp::util::Rng rng(1);
  for (auto _ : state) {
    hbp::sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.push(hbp::sim::SimTime(static_cast<std::int64_t>(rng.below(1'000'000))),
             [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

void BM_SimulatorEventChain(benchmark::State& state) {
  for (auto _ : state) {
    hbp::sim::Simulator simulator;
    std::int64_t count = 0;
    std::function<void()> tick = [&] {
      if (++count < 10000) {
        simulator.after(hbp::sim::SimTime::micros(10), tick);
      }
    };
    simulator.after(hbp::sim::SimTime::micros(10), tick);
    simulator.run_all();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_SimulatorEventChain);

void BM_Sha256(benchmark::State& state) {
  const std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(hbp::util::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(32)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HmacSign(benchmark::State& state) {
  const auto key = hbp::util::Sha256::hash("key");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hbp::util::hmac_sha256(key, "hbp-request;dst=42;epoch=7;"));
  }
}
BENCHMARK(BM_HmacSign);

void BM_HashChainGeneration(benchmark::State& state) {
  const auto tail = hbp::util::Sha256::hash("tail");
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    hbp::honeypot::HashChain chain(tail, n);
    benchmark::DoNotOptimize(chain.key(1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HashChainGeneration)->Arg(1024)->Arg(8192);

void BM_RouterForwarding(benchmark::State& state) {
  hbp::sim::Simulator simulator;
  hbp::net::Network network(simulator);
  auto& a = network.add_node<hbp::net::Host>("a");
  auto& r = network.add_node<hbp::net::Router>("r");
  auto& b = network.add_node<hbp::net::Host>("b");
  hbp::net::LinkParams link;
  link.capacity_bps = 1e12;  // serialization negligible
  link.delay = hbp::sim::SimTime::micros(1);
  link.queue_bytes = 1'000'000'000;
  network.connect(a.id(), r.id(), link);
  network.connect(r.id(), b.id(), link);
  a.set_address(network.assign_address(a.id()));
  b.set_address(network.assign_address(b.id()));
  network.compute_routes();

  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      hbp::sim::Packet p;
      p.dst = b.address();
      p.size_bytes = 1000;
      a.send(std::move(p));
    }
    simulator.run_until(simulator.now() + hbp::sim::SimTime::seconds(1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_RouterForwarding);

void BM_MaxMinAllocate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  hbp::util::Rng rng(2);
  std::vector<double> demands(n);
  for (auto& d : demands) d = rng.uniform(0.0, 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hbp::pushback::maxmin_allocate(demands, 0.3 * 10.0 * n));
  }
}
BENCHMARK(BM_MaxMinAllocate)->Arg(8)->Arg(64)->Arg(512);

// Deterministic workload for the --json perf record: a fixed event chain
// plus a fixed router-forwarding run, timed with steady_clock.  The event
// count is a pure function of the workload; only the rates are host-bound.
void write_json_record(const std::string& path) {
  const auto wall_start = std::chrono::steady_clock::now();
  hbp::sim::Simulator simulator;
  std::int64_t count = 0;
  std::function<void()> tick = [&] {
    if (++count < 200000) {
      simulator.after(hbp::sim::SimTime::micros(10), tick);
    }
  };
  simulator.after(hbp::sim::SimTime::micros(10), tick);
  simulator.run_all();

  hbp::telemetry::PerfStats perf;
  perf.wall_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
  perf.events_executed = simulator.events_executed();
  perf.peak_rss_bytes = hbp::telemetry::peak_rss_bytes();
  perf.sim_seconds = simulator.now().to_seconds();

  std::vector<hbp::telemetry::BenchCounter> counters;
  counters.push_back(
      {"chain_events", static_cast<double>(simulator.events_executed())});
  hbp::telemetry::write_bench_record(path, "micro_substrate", counters,
                                     nullptr, perf);
  std::printf("\nWrote %s\n", path.c_str());
}

}  // namespace

// Hand-rolled main instead of BENCHMARK_MAIN(): google-benchmark rejects
// unknown flags, so `--json <path>` / `--json=<path>` is peeled off argv
// before benchmark::Initialize sees it.
int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = std::string(arg.substr(7));
    } else {
      args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) write_json_record(json_path);
  return 0;
}
