#include "telemetry/summary.h"

#include <cstdarg>
#include <cstdio>

namespace capp::telemetry {
namespace {

void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, static_cast<size_t>(n) < sizeof(buf)
                                  ? static_cast<size_t>(n)
                                  : sizeof(buf) - 1);
}

unsigned long long U(uint64_t v) { return static_cast<unsigned long long>(v); }

}  // namespace

std::string RenderSummary(const RunSummary& summary) {
  std::string out;
  if (summary.transport != nullptr) {
    const TransportStats& t = *summary.transport;
    Appendf(&out,
            "transport: %llu frames carried %llu runs (%llu reports), "
            "%llu push stalls, %llu pop waits",
            U(t.frames), U(t.runs), U(t.reports), U(t.push_stalls),
            U(t.pop_waits));
    if (t.wire_bytes > 0) {
      Appendf(&out, ", %.1f MB on the wire",
              static_cast<double>(t.wire_bytes) / 1048576.0);
    }
    if (t.connections > 0) {
      Appendf(&out, ", %llu socket connection(s)", U(t.connections));
    }
    if (t.decode_failures > 0) {
      Appendf(&out, ", %llu DECODE FAILURE(S)", U(t.decode_failures));
    }
    if (t.stream_errors > 0) {
      Appendf(&out, ", %llu STREAM ERROR(S)", U(t.stream_errors));
    }
    out += "\n";
    for (size_t c = 0; c < t.consumer_runs.size(); ++c) {
      Appendf(&out, "  consumer %zu: %llu runs (%.0f%%)\n", c,
              U(t.consumer_runs[c]),
              t.runs > 0 ? 100.0 * static_cast<double>(t.consumer_runs[c]) /
                               static_cast<double>(t.runs)
                         : 0.0);
    }
  }
  if (summary.owned_shards) {
    Appendf(&out, "owned-shard ingest: %llu seqlock read retrie(s)\n",
            U(summary.seqlock_read_retries));
  }
  if (summary.wal != nullptr) {
    const WalStats& w = *summary.wal;
    Appendf(&out,
            "wal: %llu frame(s) appended (%.1f MB), %llu fsync(s), "
            "%llu checkpoint(s), %llu resent run(s) deduped, "
            "%llu append stall(s)\n",
            U(w.frames_appended),
            static_cast<double>(w.bytes_appended) / 1048576.0, U(w.fsyncs),
            U(w.checkpoints), U(w.runs_deduped), U(w.append_stalls));
  }
  return out;
}

}  // namespace capp::telemetry
