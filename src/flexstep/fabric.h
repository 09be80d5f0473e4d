// The FlexStep fabric: per-core units, the global configuration registers and
// the System Interconnect (paper Sec. III-C) — a full crossbar that routes a
// main core's Data Buffer FIFO to one or more checker cores, configured at
// runtime by M.associate.
//
// Conflict handling follows the paper: when two main cores target the same
// checker, only one channel is attached at a time; the other buffers in its
// own FIFO/DMA space on a waitlist until the checker is released.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "arch/core.h"
#include "common/types.h"
#include "flexstep/channel.h"
#include "flexstep/config.h"
#include "flexstep/core_unit.h"
#include "flexstep/error.h"
#include "flexstep/global_config.h"

namespace flexstep::fs {

class Fabric final : public InterconnectControl {
 public:
  explicit Fabric(const FlexStepConfig& config) : config_(config) {}

  /// Create (and attach) the FlexStep unit for `core`. Cores must be attached
  /// in id order, starting at 0.
  CoreUnit& attach(arch::Core& core);

  CoreUnit& unit(CoreId id) { return *units_.at(id); }
  const CoreUnit& unit(CoreId id) const { return *units_.at(id); }
  std::size_t num_units() const { return units_.size(); }

  GlobalConfig& global() { return global_; }
  ErrorReporter& reporter() { return reporter_; }
  const FlexStepConfig& config() const { return config_; }

  // ---- InterconnectControl (M.associate / job teardown) ----

  /// Route `main_id`'s stream to every checker in `checker_mask`, replacing
  /// the main core's previous out-set. Reuses still-open channels for
  /// unchanged pairs; creates fresh channels otherwise. Busy checkers queue
  /// the new channel on their waitlist.
  void associate(CoreId main_id, u64 checker_mask) override;

  /// Close all of `main_id`'s out channels (verification job finished). The
  /// checkers keep draining the closed channels asynchronously.
  void dissociate(CoreId main_id) override;

  /// Give idle checkers their next waitlisted channel and detach drained
  /// ones. The SoC driver calls this every scheduling round.
  void pump_assignments();

  /// Channels currently parked on `checker`'s waitlist (contending producers
  /// whose streams buffer in their own FIFO space until the checker frees up).
  std::size_t waitlist_depth(CoreId checker) const {
    return waitlists_.at(checker).size();
  }

  /// One arbitration decision: `checker` released `from_main`'s drained
  /// channel and attached `to_main`'s waitlisted one, at the checker's local
  /// clock `cycle`. The handoff happens between scheduling rounds (in
  /// pump_assignments), so the cycle is engine-independent — the contended-
  /// topology equivalence tests compare whole event logs across engines.
  struct HandoffEvent {
    Cycle cycle = 0;
    CoreId checker = 0;
    CoreId from_main = 0;
    CoreId to_main = 0;
  };

  /// Arbitration log, in decision order. Diagnostics only: not part of the
  /// snapshot wire form, cleared by restore() (a rewound run re-derives its
  /// own suffix).
  const std::vector<HandoffEvent>& handoff_events() const {
    return handoff_events_;
  }

  /// Ready horizon: the earliest cycle at which any unit that is not already
  /// replaying has a complete segment to pick up (kNever if none). Co-sim
  /// drivers use it to tell "everything drained / parked for good" apart from
  /// "work is pending but nobody is runnable" when diagnosing a stall.
  Cycle next_replay_ready_at() const;

  /// All live channels (diagnostics / fault-injection targeting).
  std::vector<Channel*> channels() const;

  // ---- state capture ----

  /// Fabric topology + state: global registers, error reporter, every channel
  /// (content + endpoints), every unit, and the wiring between them encoded as
  /// channel indices so restore() can rebuild the pointer graph — including
  /// into a freshly constructed SoC (Session::fork).
  struct Snapshot {
    u64 main_mask = 0;
    u64 checker_mask = 0;
    ErrorReporter::Snapshot reporter;
    std::vector<Channel::Snapshot> channels;
    std::vector<CoreUnit::Snapshot> units;
    std::vector<std::vector<std::size_t>> out_channels;  ///< Per unit: channel indices.
    std::vector<std::size_t> in_channel;   ///< Per unit: index + 1 (0 = none).
    std::vector<std::vector<std::size_t>> waitlists;     ///< Per checker: channel indices.
    std::size_t bytes() const;

    /// Wire format. Decoding validates the index graph (every channel index
    /// in range, in_channel offset by one, one wiring entry per unit) so a
    /// decoded snapshot never feeds restore() an out-of-range wiring table.
    template <class Ar>
    void transfer(Ar& ar);
  };

  void save(Snapshot& out) const;
  /// Restore; the unit count must match (same SocConfig). When the snapshot's
  /// channels have the live channels' endpoints, in order, they are restored
  /// in place; otherwise they are recreated, so a Channel* held across a
  /// restore may dangle — re-fetch through channels()/unit wiring.
  void restore(const Snapshot& snapshot);

 private:
  Channel* find_open_channel(CoreId main_id, CoreId checker_id);

  FlexStepConfig config_;
  GlobalConfig global_;
  ErrorReporter reporter_;
  std::vector<std::unique_ptr<CoreUnit>> units_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::deque<Channel*>> waitlists_;  ///< Per checker core id.
  std::vector<HandoffEvent> handoff_events_;
};

}  // namespace flexstep::fs
