// Trap causes and the host-level trap-handler interface.
//
// Kernel-mode software is modelled at host level (the paper's OS add-on is a
// few lines inside the context switch; simulating a whole guest kernel binary
// would add nothing to the reproduction). The simulated core transfers to a
// TrapHandler on ECALL / timer interrupt / task exit; the handler manipulates
// the core through its privileged API and tells the core how to continue.
#pragma once

#include "common/types.h"

namespace flexstep::arch {

class Core;

enum class TrapCause : u8 {
  kEcall,         ///< Environment call from user mode.
  kTimer,         ///< Timer interrupt (scheduler tick / preemption).
  kTaskExit,      ///< HALT retired: the running task finished.
  kIllegal,       ///< Undecodable or unsupported instruction.
  kFetchFault,    ///< PC outside any loaded program image.
};

struct TrapAction {
  enum class Kind : u8 {
    kResumeUser,        ///< Return to user mode at mepc after `kernel_cycles`.
    kHalt,              ///< Stop this core.
    kContextSwitched,   ///< Handler already installed a new context (pc/regs/mode).
  };
  Kind kind = Kind::kResumeUser;
  /// Modelled cost of the kernel excursion, added to the core's local clock.
  Cycle kernel_cycles = 0;
};

class TrapHandler {
 public:
  virtual ~TrapHandler() = default;
  virtual TrapAction on_trap(Core& core, TrapCause cause) = 0;
};

}  // namespace flexstep::arch
