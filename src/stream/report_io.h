// Persistence for sanitized slot reports. Reports are already private
// (they left the device perturbed), so they can be logged, batched, and
// replayed freely; this module provides a CSV wire/batch format
// (user_id,slot,value) used to move reports between user devices, brokers,
// and the collector, and to archive collected streams for offline analysis.
// The compact binary sibling (varint + CRC32 framing, used by the queued
// transports) lives in transport/wire_format.h.
#ifndef CAPP_STREAM_REPORT_IO_H_
#define CAPP_STREAM_REPORT_IO_H_

#include <string>
#include <vector>

#include "core/status.h"
#include "stream/session.h"

namespace capp {

/// Writes reports as CSV ("user_id,slot,value" with a header line).
Status SaveReportsCsv(const std::string& path,
                      const std::vector<SlotReport>& reports);

/// Reads reports written by SaveReportsCsv. Strict: exactly 3 fields per
/// row, ids as non-negative integers rejected on 64-bit overflow, slots
/// below kWireMaxCells (2^32, the collectors' slot index), finite values
/// with no trailing garbage, and at most one header line (a duplicate
/// header mid-file means two archives were concatenated).
Result<std::vector<SlotReport>> LoadReportsCsv(const std::string& path);

/// Feeds a batch of reports into a collector session.
void IngestAll(const std::vector<SlotReport>& reports,
               CollectorSession* collector);

}  // namespace capp

#endif  // CAPP_STREAM_REPORT_IO_H_
