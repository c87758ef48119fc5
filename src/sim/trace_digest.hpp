// Running fingerprint of a simulation run.
//
// Every model transition is one sim::TraceEvent handed to
// Simulator::record(), which folds it here before forwarding it to an
// attached tracer.  The digest is therefore a function of exactly the event
// stream the CSV trace export shows — all seven fields, in emission order —
// and of nothing else: event-loop bookkeeping (how many closures ran, in
// which order the scheduler popped no-op events) does not enter it.  Two
// runs that make the same transitions at the same times produce the same
// digest; a reordered, shifted, lost or duplicated record changes it with
// overwhelming probability.  The golden regression tests pin it: every
// future optimisation must keep same-seed digests bit-identical.
//
// Folding costs three SplitMix rounds per record, so it stays enabled in
// every build, like the HBP_ASSERT invariants.
#pragma once

#include <cstdint>

#include "sim/trace_event.hpp"

namespace hbp::sim {

class TraceDigest {
 public:
  // Absorbs one record; order-sensitive.  Each field enters exactly one of
  // the three absorbed words through an injective map (the other fields
  // held fixed), so a change in any single field always moves the digest.
  void fold(const TraceEvent& e) {
    absorb(static_cast<std::uint64_t>(e.t.nanos()) ^ (e.cause * kCauseMul));
    absorb((static_cast<std::uint64_t>(e.verb) << 32) ^ u32(e.node));
    absorb(e.id ^ (((u32(e.a) << 32) | u32(e.b)) * kArgsMul));
    ++records_;
  }

  std::uint64_t value() const { return mix(state_ ^ records_); }
  // Records folded so far.
  std::uint64_t records() const { return records_; }

  void reset() {
    state_ = kSeed;
    records_ = 0;
  }

 private:
  static constexpr std::uint64_t kSeed = 0x9e3779b97f4a7c15ULL;
  // Odd multipliers: bijective on 64-bit words.
  static constexpr std::uint64_t kCauseMul = 0xd6e8feb86659fd93ULL;
  static constexpr std::uint64_t kArgsMul = 0xa0761d6478bd642fULL;

  static constexpr std::uint64_t u32(std::int32_t v) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
  }

  // SplitMix64 finalizer: full-avalanche 64-bit mix.
  static constexpr std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  void absorb(std::uint64_t word) { state_ = mix(state_ ^ word); }

  std::uint64_t state_ = kSeed;
  std::uint64_t records_ = 0;
};

}  // namespace hbp::sim
