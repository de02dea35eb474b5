// Declarative fault schedules: what breaks, when, and how badly.
//
// A FaultSchedule is a plain list of timed events applied to a live cluster
// by the FaultInjector (fault_injector.hpp). Schedules are data — they can
// be built programmatically (tests, benches) or parsed from the small text
// format `gpucomm_cli --faults` accepts:
//
//   # one event per line; '#' starts a comment
//   at 100us down link 42            # directed link id, permanent
//   at 100us down link 3-17         # both directions between devices 3 and 17
//   at 100us down link 42 for 200us # transient: restored at 300us
//   at 300us up link 42             # explicit restore
//   at 0s    degrade link 42 0.25   # permanent degradation to 25% of nominal
//   at 50us  fail nic 12            # device id: every attached link goes down
//   at 50us  fail switch 7
//   at 0s    straggle gpu 3 2.5     # GPU 3's launch delays inflated 2.5x
//
// Times accept ps/ns/us/ms/s suffixes and must be finite and fit SimTime
// (as must time + duration); factors must be finite. The parser validates
// syntax and ranges only; ids are checked against the actual graph when the
// injector is armed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gpucomm/sim/time.hpp"
#include "gpucomm/topology/graph.hpp"

namespace gpucomm::fault {

enum class FaultKind : std::uint8_t {
  kLinkDown,     ///< link(s) fail at `time` (restored at time+duration if set)
  kLinkUp,       ///< explicit restore of previously failed link(s)
  kLinkDegrade,  ///< permanent capacity reduction to `factor` of nominal
  kNicFail,      ///< NIC device fails: all attached links go down
  kSwitchFail,   ///< switch device fails: all attached links go down
  kStraggler,    ///< GPU's kernel-launch delays are inflated by `factor`
};

const char* to_string(FaultKind k);

struct FaultEvent {
  SimTime time;
  FaultKind kind = FaultKind::kLinkDown;
  /// Directed-link target (link events). kInvalidLink when the event targets
  /// a device pair or a device instead.
  LinkId link = kInvalidLink;
  /// Device-pair target (link events, both directions), or the failed device
  /// in dev_a (kNicFail / kSwitchFail).
  DeviceId dev_a = kInvalidDevice;
  DeviceId dev_b = kInvalidDevice;
  /// Global GPU index (kStraggler).
  int gpu = -1;
  /// Degradation fraction of nominal capacity (kLinkDegrade, in (0, 1]) or
  /// launch-delay multiplier (kStraggler, >= 1).
  double factor = 1.0;
  /// kLinkDown only: auto-restore after this long; zero = permanent.
  SimTime duration;
};

struct FaultSchedule {
  std::vector<FaultEvent> events;
  bool empty() const { return events.empty(); }
};

/// Parse the text format above. Returns std::nullopt on malformed input and
/// (if `error` is given) a one-line "line N: what went wrong" message.
std::optional<FaultSchedule> parse_fault_schedule(const std::string& text,
                                                  std::string* error = nullptr);

/// Read and parse a schedule file. A missing/unreadable file is an error.
std::optional<FaultSchedule> load_fault_schedule(const std::string& path,
                                                 std::string* error = nullptr);

}  // namespace gpucomm::fault
