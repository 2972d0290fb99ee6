#ifndef ELASTICORE_SIMCORE_TRACE_H_
#define ELASTICORE_SIMCORE_TRACE_H_

#include <string>
#include <vector>

#include "simcore/clock.h"

namespace elastic::simcore {

/// One timestamped sample of an arbitrary named event stream.
struct TraceEvent {
  Tick tick = 0;
  /// Event category, e.g. "run", "migrate", "steal".
  std::string kind;
  /// Integer payload, meaning depends on kind (core id, node id, ...).
  int64_t a = 0;
  int64_t b = 0;
  /// Free-form payload (e.g. the failed write of a "platform_error").
  std::string text;
};

/// Append-only event trace used by the figure harnesses to reconstruct
/// timelines (thread placement and migration maps, steals). Tracing is
/// opt-in per category so the hot simulation loop pays nothing when a
/// category is disabled.
class Trace {
 public:
  /// Records an event. `kind` should be a short stable identifier.
  void Add(Tick tick, std::string kind, int64_t a, int64_t b, std::string text = "");

  /// Returns all recorded events in insertion (= time) order.
  const std::vector<TraceEvent>& events() const { return events_; }

  /// Returns only the events of the given kind.
  std::vector<TraceEvent> EventsOfKind(const std::string& kind) const;

  /// Drops all recorded events.
  void Clear() { events_.clear(); }

  /// Drops the `count` oldest events (all of them when fewer are recorded).
  void DropOldest(size_t count);

  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace elastic::simcore

#endif  // ELASTICORE_SIMCORE_TRACE_H_
