// The unit carried by the transport queue: one pooled batch of user runs.
//
// A frame holds many devices' runs so queue traffic is amortized -- the
// ring sees one Push per ~max_batch_runs users, not one per report. Its
// payload is concatenated wire frames (transport/wire_format.h), the
// same bytes a socket carries. Frames are recycled through the hub's
// pool, so steady-state transport allocates nothing.
#ifndef CAPP_TRANSPORT_FRAME_H_
#define CAPP_TRANSPORT_FRAME_H_

#include <cstdint>
#include <vector>

namespace capp {

/// One batch of user runs in flight between producers and consumers.
struct ReportFrame {
  std::vector<uint8_t> bytes;  ///< Encoded wire frames, back to back.
  uint64_t run_count = 0;      ///< Runs staged in `bytes`.
  bool poison = false;         ///< Shutdown sentinel: consumer exits.

  /// Resets content, keeping capacity (pool reuse).
  void Clear() {
    bytes.clear();
    run_count = 0;
    poison = false;
  }
};

}  // namespace capp

#endif  // CAPP_TRANSPORT_FRAME_H_
