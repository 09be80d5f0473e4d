#include "flexstep/error.h"

#include "common/archive.h"
#include "flexstep/channel.h"

namespace flexstep::fs {

template <class Ar>
void ErrorReporter::Snapshot::transfer(Ar& ar) {
  ar.vector(events, 5, [&](DetectionEvent& event) {
    ar.varint(event.checker);
    ar.varint(event.at);
    ar.enumeration(event.kind, DetectKind::kStructural, "detect kind out of domain");
    ar.boolean(event.attributed);
    ar.varint(event.latency);
  });
  ar.varint(attributed);
}
template void ErrorReporter::Snapshot::transfer(io::ArchiveWriter&);
template void ErrorReporter::Snapshot::transfer(io::ArchiveReader&);

void ErrorReporter::on_detect(Channel& channel, DetectKind kind, CoreId checker,
                              Cycle now) {
  DetectionEvent event;
  event.checker = checker;
  event.at = now;
  event.kind = kind;
  // Attribute only when causally possible (the mismatch is downstream of the
  // corruption); a detection predating the injection belongs to residue of an
  // earlier event, not to this fault.
  if (channel.fault_pending() && now >= channel.pending_fault().injected_at) {
    const InjectedFault& fault = channel.pending_fault();
    event.attributed = true;
    event.latency = now - fault.injected_at;
    channel.clear_fault();
    ++s_.attributed;
  }
  s_.events.push_back(event);
}

}  // namespace flexstep::fs
