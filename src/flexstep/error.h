// Error detection reporting: every checker mismatch lands here, with latency
// attribution against the channel's pending injected fault (Sec. VI-C).
#pragma once

#include <vector>

#include "common/types.h"

namespace flexstep::fs {

class Channel;

/// Where the mismatch was caught.
enum class DetectKind : u8 {
  kLoadAddr,    ///< Replayed load address != logged address.
  kStoreAddr,   ///< Replayed store address != logged address.
  kStoreData,   ///< Replayed store data != logged data.
  kAmoStore,    ///< Replayed AMO result != logged new value.
  kScMismatch,  ///< SC store part mismatch.
  kEcpReg,      ///< End-checkpoint register mismatch.
  kEcpPc,       ///< End-checkpoint PC mismatch.
  kStructural,  ///< Stream shape broken (wrong item kind, runaway replay, fetch fault).
};

constexpr const char* detect_kind_name(DetectKind k) {
  switch (k) {
    case DetectKind::kLoadAddr: return "load-addr";
    case DetectKind::kStoreAddr: return "store-addr";
    case DetectKind::kStoreData: return "store-data";
    case DetectKind::kAmoStore: return "amo-store";
    case DetectKind::kScMismatch: return "sc";
    case DetectKind::kEcpReg: return "ecp-reg";
    case DetectKind::kEcpPc: return "ecp-pc";
    case DetectKind::kStructural: return "structural";
  }
  return "?";
}

struct DetectionEvent {
  CoreId checker = kInvalidCore;
  Cycle at = 0;
  DetectKind kind = DetectKind::kEcpReg;
  bool attributed = false;   ///< Matched against a pending injected fault.
  Cycle latency = 0;         ///< Detection latency in cycles (attributed only).
};

class ErrorReporter {
 public:
  /// Record a mismatch observed by `checker` on `channel`. If the channel has
  /// a pending injected fault, the event is attributed (latency = now - inject
  /// time) and the fault is cleared.
  void on_detect(Channel& channel, DetectKind kind, CoreId checker, Cycle now);

  const std::vector<DetectionEvent>& events() const { return s_.events; }
  std::size_t detections() const { return s_.events.size(); }
  std::size_t attributed_detections() const { return s_.attributed; }
  void clear() { s_ = {}; }

  // ---- state capture ----
  struct Snapshot {
    std::vector<DetectionEvent> events;
    std::size_t attributed = 0;

    template <class Ar>
    void transfer(Ar& ar);
  };
  void save(Snapshot& out) const { out = s_; }
  void restore(const Snapshot& snapshot) { s_ = snapshot; }

 private:
  Snapshot s_;
};

}  // namespace flexstep::fs
