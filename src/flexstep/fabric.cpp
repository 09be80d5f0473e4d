#include "flexstep/fabric.h"

#include <algorithm>

#include "common/archive.h"
#include "common/check.h"

namespace flexstep::fs {

CoreUnit& Fabric::attach(arch::Core& core) {
  FLEX_CHECK_MSG(core.id() == units_.size(), "attach cores in id order");
  units_.push_back(std::make_unique<CoreUnit>(core, global_, reporter_, this, config_));
  waitlists_.emplace_back();
  return *units_.back();
}

Channel* Fabric::find_open_channel(CoreId main_id, CoreId checker_id) {
  for (const auto& ch : channels_) {
    if (!ch->closed() && ch->main_id() == main_id && ch->checker_id() == checker_id) {
      return ch.get();
    }
  }
  return nullptr;
}

void Fabric::associate(CoreId main_id, u64 checker_mask) {
  CoreUnit& main_unit = unit(main_id);
  main_unit.clear_out_channels();
  for (CoreId checker = 0; checker < units_.size(); ++checker) {
    if ((checker_mask & (u64{1} << checker)) == 0) continue;
    FLEX_CHECK_MSG(checker != main_id, "a core cannot check itself");
    Channel* ch = find_open_channel(main_id, checker);
    if (ch == nullptr) {
      channels_.push_back(std::make_unique<Channel>(main_id, checker, config_));
      ch = channels_.back().get();
      CoreUnit& checker_unit = unit(checker);
      if (checker_unit.in_channel() == nullptr) {
        checker_unit.set_in_channel(ch);
      } else {
        // Conflict: checker occupied — buffer in the main's FIFO until the
        // checker is released (paper Sec. III-C).
        waitlists_[checker].push_back(ch);
      }
    }
    main_unit.add_out_channel(ch);
  }
}

void Fabric::dissociate(CoreId main_id) {
  CoreUnit& main_unit = unit(main_id);
  for (Channel* ch : main_unit.out_channels()) ch->close();
  main_unit.clear_out_channels();
}

void Fabric::pump_assignments() {
  for (CoreId checker = 0; checker < units_.size(); ++checker) {
    CoreUnit& checker_unit = unit(checker);
    Channel* current = checker_unit.in_channel();
    Channel* released = nullptr;
    if (current != nullptr && current->drained() && !checker_unit.replay_active() &&
        !checker_unit.replay_suspended()) {
      checker_unit.set_in_channel(nullptr);
      released = current;
      current = nullptr;
    }
    if (current == nullptr && !waitlists_[checker].empty()) {
      Channel* next = waitlists_[checker].front();
      waitlists_[checker].pop_front();
      checker_unit.set_in_channel(next);
      // The waitlist only ever fills while an in-channel is attached, so an
      // attach-from-waitlist always pairs with a release — in this pass or an
      // earlier one with an empty waitlist (impossible by the above). Record
      // the arbitration decision at the checker's local clock: it is frozen
      // while the unit sat drained, making the log engine-independent.
      handoff_events_.push_back({checker_unit.core().cycle(), checker,
                                 released != nullptr ? released->main_id()
                                                     : next->main_id(),
                                 next->main_id()});
    }
  }
}

Cycle Fabric::next_replay_ready_at() const {
  Cycle earliest = kNever;
  for (const auto& unit : units_) {
    if (unit->replay_active() || unit->replay_suspended()) continue;
    earliest = std::min(earliest, unit->next_segment_ready_at());
  }
  return earliest;
}

template <class Ar>
void Fabric::Snapshot::transfer(Ar& ar) {
  ar.fixed(main_mask);
  ar.fixed(checker_mask);
  reporter.transfer(ar);
  ar.vector(channels, 16);
  ar.vector(units, 32);
  // The wiring tables address into `channels`; validating every index here
  // means restore() (which FLEX_CHECK-aborts on broken invariants) only ever
  // sees in-range indices from the decode path.
  const auto channel_index = [&](std::size_t& index) {
    ar.varint(index);
    ar.require(index < channels.size(), "channel index out of range");
  };
  const auto channel_list = [&](std::vector<std::size_t>& list) {
    ar.vector(list, 1, channel_index);
  };
  ar.vector(out_channels, 1, channel_list);
  ar.vector(in_channel, 1, [&](std::size_t& index) {
    ar.varint(index);  // index + 1; 0 = no in channel
    ar.require(index <= channels.size(), "channel index out of range");
  });
  ar.vector(waitlists, 1, channel_list);
  ar.require(out_channels.size() == units.size() && in_channel.size() == units.size() &&
                 waitlists.size() == units.size(),
             "fabric wiring tables disagree on unit count");
}
template void Fabric::Snapshot::transfer(io::ArchiveWriter&);
template void Fabric::Snapshot::transfer(io::ArchiveReader&);

std::size_t Fabric::Snapshot::bytes() const {
  std::size_t total = sizeof(*this);
  for (const auto& ch : channels) total += ch.bytes();
  total += units.size() * sizeof(CoreUnit::Snapshot);
  total += reporter.events.size() * sizeof(DetectionEvent);
  return total;
}

void Fabric::save(Snapshot& out) const {
  out.main_mask = global_.main_mask();
  out.checker_mask = global_.checker_mask();
  reporter_.save(out.reporter);

  // Channel index map (stable: channels_ order is creation order).
  auto index_of = [&](const Channel* ch) -> std::size_t {
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      if (channels_[i].get() == ch) return i;
    }
    FLEX_CHECK_MSG(false, "channel not owned by this fabric");
    return 0;
  };

  out.channels.resize(channels_.size());
  for (std::size_t i = 0; i < channels_.size(); ++i) channels_[i]->save(out.channels[i]);

  out.units.resize(units_.size());
  out.out_channels.assign(units_.size(), {});
  out.in_channel.assign(units_.size(), 0);
  for (std::size_t u = 0; u < units_.size(); ++u) {
    units_[u]->save(out.units[u]);
    for (const Channel* ch : units_[u]->out_channels()) {
      out.out_channels[u].push_back(index_of(ch));
    }
    if (units_[u]->in_channel() != nullptr) {
      out.in_channel[u] = index_of(units_[u]->in_channel()) + 1;
    }
  }

  out.waitlists.assign(waitlists_.size(), {});
  for (std::size_t w = 0; w < waitlists_.size(); ++w) {
    for (const Channel* ch : waitlists_[w]) out.waitlists[w].push_back(index_of(ch));
  }
}

void Fabric::restore(const Snapshot& snapshot) {
  FLEX_CHECK_MSG(snapshot.units.size() == units_.size(),
                 "fabric snapshot core-count mismatch");
  global_.configure(snapshot.main_mask, snapshot.checker_mask);
  reporter_.restore(snapshot.reporter);
  handoff_events_.clear();

  // A rewound session (a campaign victim between injections) usually has the
  // snapshot's channels already: restore into them and keep their rings.
  // Any other wiring is rebuilt.
  const bool same_wiring = std::equal(
      channels_.begin(), channels_.end(), snapshot.channels.begin(),
      snapshot.channels.end(), [](const auto& ch, const Channel::Snapshot& ch_snap) {
        return ch->main_id() == ch_snap.main_id && ch->checker_id() == ch_snap.checker_id;
      });
  if (!same_wiring) {
    channels_.clear();
    channels_.reserve(snapshot.channels.size());
    for (const auto& ch_snap : snapshot.channels) {
      channels_.push_back(
          std::make_unique<Channel>(ch_snap.main_id, ch_snap.checker_id, config_));
    }
  }
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    channels_[i]->restore(snapshot.channels[i]);
  }

  for (std::size_t u = 0; u < units_.size(); ++u) {
    units_[u]->clear_out_channels();
    for (std::size_t index : snapshot.out_channels[u]) {
      units_[u]->add_out_channel(channels_.at(index).get());
    }
    units_[u]->set_in_channel(snapshot.in_channel[u] == 0
                                  ? nullptr
                                  : channels_.at(snapshot.in_channel[u] - 1).get());
    units_[u]->restore(snapshot.units[u]);
  }

  for (std::size_t w = 0; w < waitlists_.size(); ++w) {
    waitlists_[w].clear();
    for (std::size_t index : snapshot.waitlists[w]) {
      waitlists_[w].push_back(channels_.at(index).get());
    }
  }
}

std::vector<Channel*> Fabric::channels() const {
  std::vector<Channel*> out;
  out.reserve(channels_.size());
  for (const auto& ch : channels_) out.push_back(ch.get());
  return out;
}

}  // namespace flexstep::fs
