// The discrete-event simulator: a clock plus the pending-event set.
//
// All model components hold a reference to one Simulator and schedule
// closures on it; the main loop pops events in time order until the horizon
// or until the queue drains.
//
// Observation: every model transition is one record(TraceEvent) call.  The
// Simulator folds each record into the run's TraceDigest and forwards it to
// the causal-trace sink when one is attached — one stream, so the pinned
// digest and the exported trace cannot disagree.  The loop itself folds
// nothing; events_executed() counts dispatches.
//
// Every Simulator also lazily owns a telemetry::Registry that components
// use to register always-on instruments, and an optional LoopProfiler
// (enable_profiling()) that attributes dispatch counts and wall time to the
// scheduling-site labels passed to at()/after().  Neither schedules events
// nor consumes randomness, so enabling them leaves trace digests
// bit-identical; with profiling disabled the dispatch loop pays a single
// never-taken branch.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "sim/trace_digest.hpp"
#include "sim/trace_event.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/registry.hpp"

namespace hbp::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // `label` names the event type for the loop profiler; pass a string
  // literal (the pointer is stored, not the contents).
  EventId at(SimTime when, Event fn, const char* label = nullptr);
  EventId after(SimTime delay, Event fn, const char* label = nullptr) {
    return at(now_ + delay, std::move(fn), label);
  }
  bool cancel(EventId id) { return queue_.cancel(id); }

  // Runs events with time <= horizon; the clock ends at the horizon even if
  // the queue drained earlier.
  void run_until(SimTime horizon);

  // Runs until the event queue is empty.
  void run_all();

  std::uint64_t events_executed() const { return executed_; }
  std::size_t events_pending() const { return queue_.size(); }

  // Time of the earliest pending event, if any (invariant audits).
  std::optional<SimTime> next_event_time() const {
    if (queue_.empty()) return std::nullopt;
    return queue_.next_time();
  }

  // The one observation point: folds `e` into the run's digest, then hands
  // it to the trace sink if one is attached.
  void record(const TraceEvent& e) {
    trace_.fold(e);
    if (trace_sink_) trace_sink_(e);
  }

  // Running fingerprint of this run: the fold of every record().
  const TraceDigest& trace() const { return trace_; }

  // Causal tracing sink (trace::Tracer::attach installs one).  The sink only
  // sees what record() already folded, so digests stay bit-identical
  // whether a sink is installed or not.
  void set_trace_sink(TraceSink sink) { trace_sink_ = sink; }
  bool tracing() const { return static_cast<bool>(trace_sink_); }

  // Flight-recorder dump hook: appends the recorder's last-N-events tail to
  // `out`.  Returns false (and leaves `out` alone) when no recorder is
  // attached — invariant-audit diagnostics degrade gracefully.
  void set_flight_dump(TraceDumpFn dump) { flight_dump_ = dump; }
  bool dump_flight(std::string& out) const {
    if (!flight_dump_) return false;
    flight_dump_(out);
    return true;
  }

  // Per-run instrument registry, created on first use (a Simulator that
  // never touches telemetry allocates nothing).
  telemetry::Registry& telemetry();
  // True once the lazy registry exists; lets tests assert that passive
  // observers (disabled profiler/tracer) never mutate telemetry state.
  bool has_telemetry() const { return telemetry_ != nullptr; }
  // Shared handle so results can outlive the Simulator (scenario runners
  // hand it to TreeResult/StringResult).
  std::shared_ptr<telemetry::Registry> telemetry_ptr();

  // Turns on event-loop profiling (dispatch counts + wall time per label,
  // peak queue depth).  Idempotent.
  void enable_profiling();
  bool profiling_enabled() const { return profiler_ != nullptr; }
  const telemetry::LoopProfiler* profiler() const { return profiler_.get(); }

 private:
  void dispatch(EventQueue::PoppedEvent&& ev);

  EventQueue queue_;
  SimTime now_ = SimTime::zero();
  std::uint64_t executed_ = 0;
  TraceDigest trace_;
  TraceSink trace_sink_;
  TraceDumpFn flight_dump_;
  std::shared_ptr<telemetry::Registry> telemetry_;
  std::unique_ptr<telemetry::LoopProfiler> profiler_;
};

}  // namespace hbp::sim
