// Allocation audit for the packet hot path (no gtest: replacing the global
// allocator must own the whole binary).
//
// Replaces global operator new/delete with counting wrappers, runs a
// string-topology CBR flood to steady state, then asserts that a further
// measurement window performs ZERO heap allocations — every packet hop
// (host send, router forward, link queue, serialize/deliver events, receive)
// must run entirely on recycled storage: in-place sim::Event closures, the
// event-queue slab, and warm ring buffers.  A second window asserts the
// same for route lookups (Network::route_port builds a destination's column
// on first lookup, into storage compute_routes() reserved) and roaming
// active-set queries (RoamingSchedule::is_active memoises per epoch).
//
// Only meaningful in Release builds (debug-mode containers and iterator
// bookkeeping allocate) and without sanitizers (ASan interposes the
// allocator); both cases exit 77, which ctest maps to SKIPPED.
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define HBP_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HBP_UNDER_ASAN 1
#endif
#endif
#ifndef HBP_UNDER_ASAN
#define HBP_UNDER_ASAN 0
#endif

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc requires size to be a multiple of the alignment.
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#include "honeypot/hash_chain.hpp"
#include "honeypot/schedule.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "topo/string_topo.hpp"
#include "topo/tree.hpp"
#include "traffic/cbr.hpp"
#include "util/rng.hpp"

// The audit runs only where main() calls it: Release and no ASan.
#if defined(NDEBUG) && !HBP_UNDER_ASAN
namespace {

std::uint64_t g_delivered = 0;

void count_delivery(const hbp::sim::Packet&) { ++g_delivered; }

// Returns the number of heap allocations observed during a 5-simulated-
// second measurement window after a 3-second warm-up, plus the packet-hop
// count of the window via out-params.
std::uint64_t audit_window(std::uint64_t* hops_out) {
  using namespace hbp;
  sim::Simulator simulator;
  net::Network network(simulator);
  topo::StringParams params;
  params.hops = 6;
  params.link_bps = 10e6;
  const topo::StringTopo topo = topo::build_string(network, params);
  network.compute_routes();

  static_cast<net::Host&>(network.node(topo.server))
      .set_receiver(&count_delivery);

  util::Rng rng(1);
  traffic::CbrParams cbr;
  cbr.rate_bps = 4e6;  // well under link capacity: no growing backlog
  cbr.packet_size = 1000;
  const sim::Address dst = topo.server_addr;
  traffic::CbrSource source(simulator,
                            static_cast<net::Host&>(network.node(topo.attacker_host)),
                            rng, cbr, [dst] { return dst; });
  source.start();

  // Warm-up: ring buffers, the event slab, and the event heap all reach
  // their steady-state capacity here.
  simulator.run_until(sim::SimTime::seconds(3));

  const std::uint64_t delivered_before = g_delivered;
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  simulator.run_until(sim::SimTime::seconds(8));
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const std::uint64_t packets = g_delivered - delivered_before;
  // Each delivered packet crossed every link of the chain: gateway, the
  // chain routers, the access switch.
  *hops_out = packets * static_cast<std::uint64_t>(params.hops + 3);
  return allocs;
}

// Allocations of lookups that only read or fill storage reserved up front:
// every route column of a 60-leaf tree after one lookup has prepared them,
// and the roaming active sets of 2000 epochs of a 70-server schedule after
// its first query.
std::uint64_t audit_lookups() {
  using namespace hbp;
  sim::Simulator simulator;
  net::Network network(simulator);
  util::Rng topo_rng(5);
  topo::TreeParams tree;
  tree.leaf_count = 60;
  topo::build_tree(network, topo_rng, tree);
  network.compute_routes();
  (void)network.route_port(0, 1);

  const auto chain = std::make_shared<honeypot::HashChain>(
      util::Sha256::hash("allocaudit"), 512);
  const honeypot::RoamingSchedule schedule(chain, 70, 35,
                                           sim::SimTime::seconds(10));
  (void)schedule.is_active(0, 1);

  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  int sink = 0;
  for (std::size_t v = 0; v < network.node_count(); ++v) {
    for (std::size_t a = 1; a <= network.address_count(); ++a) {
      sink += network.route_port(static_cast<sim::NodeId>(v),
                                 static_cast<sim::Address>(a));
    }
  }
  for (std::size_t e = 1; e <= 2000; ++e) {
    for (int s = 0; s < 70; ++s) sink += schedule.is_active(s, e) ? 1 : 0;
  }
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  std::printf("route/schedule lookups checksum %d\n", sink);
  return allocs;
}

}  // namespace
#endif

int main() {
#if !defined(NDEBUG)
  std::fprintf(stderr,
               "SKIP: allocation audit requires a Release build "
               "(debug containers allocate)\n");
  return 77;
#elif HBP_UNDER_ASAN
  std::fprintf(stderr, "SKIP: allocation audit is meaningless under ASan\n");
  return 77;
#else
  bool ok = true;
  std::uint64_t hops = 0;
  const std::uint64_t allocs = audit_window(&hops);
  std::printf("%llu packet hops, %llu heap allocations in window\n",
              static_cast<unsigned long long>(hops),
              static_cast<unsigned long long>(allocs));
  if (hops < 10000) {
    std::fprintf(stderr, "FAIL: window too small (%llu hops)\n",
                 static_cast<unsigned long long>(hops));
    ok = false;
  }
  if (allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: steady-state packet path allocated %llu times "
                 "(expected 0)\n",
                 static_cast<unsigned long long>(allocs));
    ok = false;
  }
  const std::uint64_t lookup_allocs = audit_lookups();
  std::printf("%llu heap allocations in route and schedule lookups\n",
              static_cast<unsigned long long>(lookup_allocs));
  if (lookup_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: route_port / is_active allocated %llu times after "
                 "first use (expected 0)\n",
                 static_cast<unsigned long long>(lookup_allocs));
    ok = false;
  }
  return ok ? 0 : 1;
#endif
}
