#include "stream/report_io.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string_view>

#include "transport/wire_format.h"

namespace capp {
namespace {

constexpr std::string_view kReportCsvHeader = "user_id,slot,value";

Status RowError(size_t line, const std::string& what) {
  return Status::InvalidArgument("report CSV line " + std::to_string(line) +
                                 ": " + what);
}

// Strict non-negative decimal integer: no sign, no exponent, no fraction,
// no whitespace. from_chars reports overflow past uint64 explicitly, so
// an id like 99999999999999999999999 is rejected instead of wrapping.
Result<uint64_t> ParseId(std::string_view field, size_t line,
                         const char* what) {
  uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value, 10);
  if (ec == std::errc::result_out_of_range) {
    return RowError(line, std::string(what) + " overflows 64 bits: '" +
                              std::string(field) + "'");
  }
  if (ec != std::errc() || ptr != field.data() + field.size()) {
    return RowError(line, std::string(what) +
                              " is not a non-negative integer: '" +
                              std::string(field) + "'");
  }
  return value;
}

// A finite double consuming the entire field (trailing spaces/tabs are
// tolerated for hand-edited files; anything else -- "0.5garbage" -- is
// rejected). `begin` must be NUL-terminated: the value is the last field
// of its line, so the line's own terminator serves and no copy is needed.
// ERANGE only rejects overflow; underflow to a subnormal (or zero) is a
// faithful parse of a value SaveReportsCsv can legitimately write.
Result<double> ParseValue(const char* begin, size_t line) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(begin, &end);
  const bool overflow = errno == ERANGE && std::fabs(value) == HUGE_VAL;
  // No-conversion must be checked before skipping trailing whitespace, or
  // a whitespace-only field would scan to the terminator and pass as 0.0.
  const bool empty = end == begin;
  while (end != nullptr && (*end == ' ' || *end == '\t')) ++end;
  if (empty || (end != nullptr && *end != '\0') || overflow ||
      !std::isfinite(value)) {
    return RowError(line, "value is not a finite number: '" +
                              std::string(begin) + "'");
  }
  return value;
}

}  // namespace

Status SaveReportsCsv(const std::string& path,
                      const std::vector<SlotReport>& reports) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  out << kReportCsvHeader << '\n';
  char value[40];
  for (const SlotReport& report : reports) {
    // Ids are written as integers (a double column would silently round
    // user ids above 2^53); %.17g round-trips the value bits.
    std::snprintf(value, sizeof(value), "%.17g", report.value);
    out << report.user_id << ',' << report.slot << ',' << value << '\n';
  }
  // Close explicitly: most archives fit the stream buffer, so a disk-full
  // failure often only surfaces at the final flush, which the destructor
  // would swallow.
  out.close();
  if (out.fail()) return Status::Internal("write failure on " + path);
  return Status::OK();
}

Result<std::vector<SlotReport>> LoadReportsCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::vector<SlotReport> reports;
  std::string line;
  size_t line_no = 0;
  bool first_content_line = true;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line == kReportCsvHeader) {
      if (!first_content_line) {
        // Concatenated files: a second header mid-stream means two
        // archives were blindly appended; refuse rather than guess.
        return RowError(line_no, "duplicate header line");
      }
      first_content_line = false;
      continue;
    }
    first_content_line = false;

    std::string_view row = line;
    const size_t first_comma = row.find(',');
    const size_t second_comma =
        first_comma == std::string_view::npos
            ? std::string_view::npos
            : row.find(',', first_comma + 1);
    if (second_comma == std::string_view::npos) {
      return RowError(line_no, "want 3 comma-separated fields");
    }
    if (row.find(',', second_comma + 1) != std::string_view::npos) {
      return RowError(line_no, "trailing field after value");
    }
    SlotReport report;
    CAPP_ASSIGN_OR_RETURN(
        report.user_id,
        ParseId(row.substr(0, first_comma), line_no, "user_id"));
    CAPP_ASSIGN_OR_RETURN(
        uint64_t slot,
        ParseId(row.substr(first_comma + 1, second_comma - first_comma - 1),
                line_no, "slot"));
    if (slot >= kWireMaxCells) {
      // The bound wire decode enforces: collectors index slots in uint32.
      return RowError(line_no, "slot " + std::to_string(slot) +
                                   " is past the collector's slot index "
                                   "(must be < 2^32)");
    }
    report.slot = static_cast<size_t>(slot);
    CAPP_ASSIGN_OR_RETURN(
        report.value, ParseValue(line.c_str() + second_comma + 1, line_no));
    reports.push_back(report);
  }
  if (in.bad()) {
    // A mid-file read error ends getline exactly like EOF would; without
    // this check a truncated read would pass as a complete archive.
    return Status::Internal("read error on " + path);
  }
  return reports;
}

void IngestAll(const std::vector<SlotReport>& reports,
               CollectorSession* collector) {
  for (const SlotReport& report : reports) collector->Ingest(report);
}

}  // namespace capp
