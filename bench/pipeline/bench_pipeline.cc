// bench_pipeline: the repository's one end-to-end benchmark. Each named
// workload runs a fixed population through the shipped Fleet::Create /
// Fleet::Run path with telemetry off -- one warm-up trial at 1/20 size,
// then timed trials on fresh Fleets -- and reports medians and quartiles
// of its end-to-end metrics. With --trace, one extra trial rebuilds the
// same pipeline from the layers' public functions, times every call from
// outside the program, and prints the per-layer table; it is gated on
// reproducing the untraced digests bit for bit.
//
//   bench_pipeline --workload=all --seed=1 --json=out.json
//   bench_pipeline --workload=socket --seed=3 --seconds=20 --trace=spans/
//   bench_pipeline --smoke        # all four workloads at 1/50 size
//   bench_pipeline --self-test    # smoke + trace + consistency checks
//
// Every workload runs in its own child process, so peak RSS and warm
// caches are per workload. Correctness gates (see README.md) fail the run
// with exit status 1 after the result file is written.
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "harness/flags.h"
#include "pipeline/json.h"
#include "pipeline/stats.h"
#include "pipeline/traced_run.h"
#include "pipeline/trial.h"
#include "pipeline/workloads.h"

extern char** environ;

namespace capp::pipeline {
namespace {

// ------------------------------------------------------------ metrics ----

/// An end-to-end metric: what a user of the pipeline sees. `bound` is the
/// share of the baseline median by which a change may worsen it before it
/// counts as a regression; `floor` is an absolute allowance in the
/// metric's unit (a few milliseconds of setup are noise, not a change).
struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  double bound;
  double floor;
};

constexpr MetricDef kReportsPerS = {"reports_per_s", "reports/s", "higher",
                                    0.25, 0.0};
constexpr MetricDef kSetupS = {"setup_s", "s", "lower", 0.25, 0.002};
constexpr MetricDef kPeakRssMb = {"peak_rss_mb", "MB", "lower", 0.10, 0.0};
constexpr MetricDef kSlotMse = {"slot_mse", "1", "lower", 0.01, 0.0};
constexpr MetricDef kFailedRunFraction = {"failed_run_fraction", "fraction",
                                          "lower", 0.0, 0.0};
constexpr MetricDef kRecoveryS = {"recovery_s", "s", "lower", 0.25, 0.0};
constexpr MetricDef kQueryP50Ms = {"query_p50_ms", "ms", "lower", 0.25, 0.0};

constexpr double kMaxOtherShare = 0.05;
constexpr int kDefaultTrials = 5;
constexpr int kMinTimedTrials = 3;
constexpr int kMaxTrials = 50;
constexpr size_t kSmokeDivisor = 50;
constexpr size_t kWarmupDivisor = 20;

// -------------------------------------------------------------- flags ----

struct Flags {
  std::string workload = "all";
  uint64_t seed = 1;
  std::string json_path;
  std::string trace_dir;
  double seconds = 0.0;  // > 0: time-boxed trials instead of a count
  int trials = 0;        // > 0: exactly this many timed trials
  int runs = 1;          // processes per workload
  bool smoke = false;
  bool self_test = false;
  bool child = false;  // internal: run one workload, write its object
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--workload=inproc|socket|wal|live_d4|all] [--seed=N]\n"
      "          [--json=PATH] [--trace=DIR] [--seconds=S | --trials=N]\n"
      "          [--runs=N] [--smoke] [--self-test]\n",
      argv0);
  std::exit(2);
}

bool Value(std::string_view arg, std::string_view name,
           std::string_view* value) {
  if (!arg.starts_with(name)) return false;
  *value = arg.substr(name.size());
  return true;
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view value;
    if (Value(arg, "--workload=", &value)) {
      flags.workload = value;
      if (flags.workload != "all" && FindWorkload(value) == nullptr) {
        Usage(argv[0]);
      }
    } else if (Value(arg, "--seed=", &value)) {
      flags.seed = bench::ParseUint64FlagOrDie("--seed", value);
    } else if (Value(arg, "--json=", &value)) {
      flags.json_path = value;
    } else if (Value(arg, "--trace=", &value)) {
      flags.trace_dir = value;
    } else if (Value(arg, "--seconds=", &value)) {
      flags.seconds = bench::ParseDoubleFlagOrDie("--seconds", value);
      if (!(flags.seconds > 0.0)) Usage(argv[0]);
    } else if (Value(arg, "--trials=", &value)) {
      flags.trials = bench::ParseIntFlagOrDie("--trials", value, 1);
    } else if (Value(arg, "--runs=", &value)) {
      flags.runs = bench::ParseIntFlagOrDie("--runs", value, 1);
    } else if (arg == "--smoke") {
      flags.smoke = true;
    } else if (arg == "--self-test") {
      flags.self_test = true;
      flags.smoke = true;
    } else if (arg == "--child") {
      flags.child = true;
    } else {
      Usage(argv[0]);
    }
  }
  if (flags.trials > 0 && flags.seconds > 0.0) Usage(argv[0]);
  if (flags.smoke && flags.trials == 0 && flags.seconds == 0.0) {
    flags.trials = 2;
  }
  if (flags.trials == 0 && flags.seconds == 0.0) {
    flags.trials = kDefaultTrials;
  }
  return flags;
}

// -------------------------------------------------------------- system ----

int Nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.starts_with("model name")) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Returns the heap's free memory to the kernel, then resets the process's
/// peak-RSS mark to its current RSS, so the next PeakRssMb() reads the
/// peak of what ran in between on top of a baseline that does not grow
/// with the trials before it. (Each trial's transport threads get fresh
/// malloc arenas whose freed pages would otherwise stay resident.) Where
/// the kernel offers no reset, the mark keeps the process-wide peak.
void ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak RSS in MiB: VmHWM, which ResetPeakRss rewinds; ru_maxrss (the
/// whole process's peak) where /proc is unavailable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::stod(line.substr(6)) / 1024.0;  // "VmHWM:  1234 kB"
    }
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

JsonObject SystemJson() {
  JsonObject system;
  system.Int("nproc", static_cast<uint64_t>(Nproc()))
      .Str("cpu_model", CpuModel())
      .Str("build_type", CAPP_PIPELINE_BUILD_TYPE)
      .Bool("capp_native", CAPP_PIPELINE_NATIVE != 0)
      .Str("compiler", __VERSION__);
  return system;
}

// ---------------------------------------------------------------- pins ----

/// Pinned digests, keyed by (workload, users, seed): lines of
/// "<workload> <users> <seed> <stream digest> <state digest>" in hex.
using PinKey = std::tuple<std::string, size_t, uint64_t>;
using Pins = std::map<PinKey, std::pair<uint64_t, uint64_t>>;

Pins LoadPins(const std::string& path) {
  Pins pins;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    size_t users = 0;
    uint64_t seed = 0;
    uint64_t stream = 0;
    uint64_t state = 0;
    if (fields >> workload >> users >> seed >> std::hex >> stream >> state) {
      pins[{workload, users, seed}] = {stream, state};
    }
  }
  return pins;
}

// ---------------------------------------------- BENCHMARK.json metrics ----

struct NamedUnit {
  std::string name;
  std::string unit;
};

/// The {"name", "unit"} pairs of one array in BENCHMARK.json. A plain
/// scan: the file's metric objects are flat, so the next "name" and
/// "unit" after each '{' belong to that object.
std::vector<NamedUnit> ListedMetrics(const std::string& text,
                                     const std::string& key) {
  std::vector<NamedUnit> out;
  size_t pos = text.find("\"" + key + "\"");
  if (pos == std::string::npos) return out;
  pos = text.find('[', pos);
  const size_t end = text.find(']', pos);
  auto string_after = [&](size_t from, const std::string& field,
                          size_t limit) -> std::string {
    size_t at = text.find("\"" + field + "\"", from);
    if (at == std::string::npos || at > limit) return "";
    at = text.find('"', text.find(':', at));
    const size_t close = text.find('"', at + 1);
    return text.substr(at + 1, close - at - 1);
  };
  for (size_t open = text.find('{', pos); open < end;
       open = text.find('{', open + 1)) {
    const size_t close = text.find('}', open);
    out.push_back({string_after(open, "name", close),
                   string_after(open, "unit", close)});
  }
  return out;
}

/// True when every metric BENCHMARK.json lists (end_to_end and
/// per_layer) is among `emitted`, with the same unit.
bool ListedMetricsAreEmitted(const std::vector<NamedUnit>& emitted) {
  std::ifstream in(CAPP_PIPELINE_DIR "/../../BENCHMARK.json");
  std::stringstream text;
  text << in.rdbuf();
  bool ok = true;
  for (const char* key : {"end_to_end", "per_layer"}) {
    const std::vector<NamedUnit> listed = ListedMetrics(text.str(), key);
    ok = ok && !listed.empty();
    for (const NamedUnit& m : listed) {
      const bool found = std::any_of(
          emitted.begin(), emitted.end(), [&](const NamedUnit& e) {
            return e.name == m.name && e.unit == m.unit;
          });
      if (!found) {
        std::fprintf(stderr, "BENCHMARK.json lists %s (%s), not emitted\n",
                     m.name.c_str(), m.unit.c_str());
        ok = false;
      }
    }
  }
  return ok;
}

// ----------------------------------------------------------- one run ----

/// Prints "metric <workload> <name> <value> <unit>" and remembers the
/// pair for the self-test's comparison with BENCHMARK.json.
void PrintMetric(const Workload& w, std::string_view name, double value,
                 std::string_view unit, std::vector<NamedUnit>& emitted) {
  std::printf("metric %s %.*s %.10g %.*s\n", w.name,
              static_cast<int>(name.size()), name.data(), value,
              static_cast<int>(unit.size()), unit.data());
  emitted.push_back({std::string(name), std::string(unit)});
}

/// One end-to-end metric: its definition, the value the run reports
/// (the median of the samples for timings) and the samples behind its
/// spread, one per trial.
JsonObject MetricJson(const MetricDef& def, double value,
                      const std::vector<double>& samples) {
  const Summary s = Summarize(samples);
  JsonObject metric;
  metric.Str("unit", def.unit)
      .Str("better", def.better)
      .Num("bound", def.bound)
      .Num("floor", def.floor)
      .Num("value", value)
      .Num("median", s.median)
      .Num("q1", s.q1)
      .Num("q3", s.q3)
      .Num("min", s.min)
      .Num("max", s.max)
      .Int("n", s.n)
      .Raw("samples", JsonNumbers(samples));
  return metric;
}

class Gates {
 public:
  void Check(const char* name, bool passed) {
    json_.Bool(name, passed);
    if (!passed) {
      ++failures_;
      std::fprintf(stderr, "GATE FAILED: %s\n", name);
    }
  }
  void Skip(const char* name) { json_.Raw(name, "null"); }
  int failures() const { return failures_; }
  const JsonObject& json() const { return json_; }

 private:
  JsonObject json_;
  int failures_ = 0;
};

/// Runs one workload in this process; returns the process exit status.
int RunWorkload(const Workload& w, const Flags& flags) {
  const size_t users = flags.smoke ? w.users / kSmokeDivisor : w.users;
  const size_t warmup_users = std::max<size_t>(users / kWarmupDivisor, 1);
  std::printf("=== %s: %zu users x %zu slots x %zu dims, %d worker(s), "
              "%d thread(s), %d connection(s), seed %" PRIu64 " ===\n",
              w.name, users, w.slots, w.dims, w.workers, w.threads,
              w.connections, flags.seed);
  if (w.threads > Nproc()) {
    std::printf("warning: %s keeps %d threads busy on %d processors\n",
                w.name, w.threads, Nproc());
  }
  Gates gates;

  const TrialResult warmup = RunTrial(w, flags.seed, warmup_users);
  gates.Check("warmup_ok", warmup.error.empty());

  // Peak RSS is taken per trial, each on a trimmed heap, and the run
  // reports the largest: what the workload needs at its worst. Without the
  // trim, the process-wide peak also counts pages earlier trials' threads
  // left behind in their malloc arenas, and grows with the trial count.
  std::vector<TrialResult> trials;
  std::vector<double> peak_rss_mb;
  const int64_t timed_start = NowNs();
  for (;;) {
    const int64_t trial_start = NowNs();
    ResetPeakRss();
    trials.push_back(RunTrial(w, flags.seed, users));
    peak_rss_mb.push_back(PeakRssMb());
    const TrialResult& t = trials.back();
    std::printf("trial %zu: %.4g reports/s, complete %.3f s, setup %.4f s, "
                "peak RSS %.1f MB%s%s\n",
                trials.size(), t.error.empty() ? t.reports_per_s() : 0.0,
                t.complete_s(), t.setup_s(), peak_rss_mb.back(),
                t.error.empty() ? "" : ", ", t.error.c_str());
    const int n = static_cast<int>(trials.size());
    const int64_t now = NowNs();
    // A time-boxed run skips a trial that would end more than half a
    // trial past the box, so a run takes --seconds give or take half a
    // trial instead of up to a whole one more.
    const double elapsed_s =
        static_cast<double>(now - timed_start + (now - trial_start) / 2) /
        1e9;
    if (n >= kMaxTrials) break;
    if (flags.trials > 0 ? n >= flags.trials
                         : n >= kMinTimedTrials && elapsed_s >= flags.seconds) {
      break;
    }
  }

  // ---- Gates on the untraced trials. ----
  const TrialResult& first = trials.front();
  bool all_ok = true;
  bool stable = true;
  bool reference = true;
  bool threads_match = true;
  bool recovered = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const TrialResult& t : trials) {
    all_ok = all_ok && t.error.empty();
    stable = stable && t.stats.stream_digest == first.stats.stream_digest &&
             t.state_digest == first.state_digest;
    reference = reference && t.result_matches;
    threads_match = threads_match &&
                    t.stats.threads == static_cast<size_t>(w.workers);
    recovered = recovered && t.recovery_matches;
    attempted += users;
    failed += t.failed_runs;
  }
  gates.Check("trials_ok", all_ok);
  gates.Check("digest_stable", stable);
  const Pins pins = LoadPins(CAPP_PIPELINE_DIR "/pins.txt");
  const auto pin = pins.find({w.name, users, flags.seed});
  if (pin == pins.end() || CAPP_PIPELINE_NATIVE != 0) {
    gates.Skip("digest_pinned");  // unpinned seed, or a -march=native build
  } else {
    gates.Check("digest_pinned",
                pin->second.first == first.stats.stream_digest &&
                    pin->second.second == first.state_digest);
  }
  gates.Check("result_matches_reference", reference);
  gates.Check("threads_match", threads_match);
  if (w.wal) {
    gates.Check("wal_recovery_matches", recovered);
  } else {
    gates.Skip("wal_recovery_matches");
  }
  std::printf("pin %s %zu %" PRIu64 " %016" PRIx64 " %016" PRIx64 "\n",
              w.name, users, flags.seed, first.stats.stream_digest,
              first.state_digest);

  // ---- End-to-end metrics. ----
  std::vector<double> reports_per_s;
  std::vector<double> setup_s;
  std::vector<double> slot_mse;
  std::vector<double> recovery_s;
  std::vector<double> complete_s;
  std::vector<double> query_p50;
  std::vector<double> query_pooled;
  for (const TrialResult& t : trials) {
    if (!t.error.empty()) continue;
    reports_per_s.push_back(t.reports_per_s());
    setup_s.push_back(t.setup_s());
    slot_mse.push_back(t.stats.mean_slot_mse);
    complete_s.push_back(t.complete_s());
    if (w.wal) recovery_s.push_back(t.recovery_s);
    if (w.live_queries) {
      query_p50.push_back(Percentile(t.query_ms, 0.50));
      query_pooled.insert(query_pooled.end(), t.query_ms.begin(),
                          t.query_ms.end());
    }
  }
  JsonObject metrics;
  std::vector<NamedUnit> emitted;
  auto emit = [&](const MetricDef& def, double value,
                  const std::vector<double>& samples) {
    metrics.Obj(def.name, MetricJson(def, value, samples));
    PrintMetric(w, def.name, value, def.unit, emitted);
  };
  auto emit_median = [&](const MetricDef& def,
                         const std::vector<double>& samples) {
    emit(def, Summarize(samples).median, samples);
  };
  emit_median(kReportsPerS, reports_per_s);
  emit_median(kSetupS, setup_s);
  emit(kPeakRssMb, Summarize(peak_rss_mb).max, peak_rss_mb);
  emit_median(kSlotMse, slot_mse);
  const double failed_fraction =
      static_cast<double>(failed) / static_cast<double>(attempted);
  emit(kFailedRunFraction, failed_fraction, {failed_fraction});
  if (w.wal) emit_median(kRecoveryS, recovery_s);
  JsonObject diagnostics;
  if (w.live_queries) {
    // Latencies pooled over every read of every trial; the per-trial
    // medians are the samples behind the spread. p90 and above are
    // diagnostics: between runs of one commit, p90 spread past the 10%
    // bound it had.
    emit(kQueryP50Ms, Percentile(query_pooled, 0.50), query_p50);
    diagnostics.Num("query_p90_ms", Percentile(query_pooled, 0.90))
        .Num("query_p99_ms", Percentile(query_pooled, 0.99))
        .Num("query_max_ms", Percentile(query_pooled, 1.0))
        .Int("query_reads", query_pooled.size());
    std::printf("query reads: n=%zu p90 %.4f ms p99 %.4f ms max %.4f ms "
                "(diagnostic)\n",
                query_pooled.size(), Percentile(query_pooled, 0.90),
                Percentile(query_pooled, 0.99), Percentile(query_pooled, 1.0));
  }
  const double untraced_complete_s = Summarize(complete_s).median;

  // ---- Traced trial: the per-layer table. ----
  JsonObject layers;
  std::optional<TracedResult> traced;
  std::optional<ScratchDir> self_test_spans;
  std::string span_dir = flags.trace_dir;
  if (flags.self_test && span_dir.empty()) {
    self_test_spans.emplace();
    span_dir = self_test_spans->path();
  }
  if (!span_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(span_dir, ec);
    const std::string span_path = span_dir + "/" + w.name + "-seed" +
                                  std::to_string(flags.seed) +
                                  ".trace.json";
    traced = RunTracedTrial(w, flags.seed, users, untraced_complete_s,
                            span_path);
    attempted += users;
    gates.Check("traced_ok", traced->error.empty());
    gates.Check("traced_digest_matches",
                traced->stream_digest == first.stats.stream_digest &&
                    traced->state_digest == first.state_digest);
    gates.Check("traced_other_share_ok",
                traced->other_share <= kMaxOtherShare);
    gates.Check("traced_span_parents_resolve",
                traced->unresolved_parents == 0);
    gates.Check("codec_round_trip", traced->codec_round_trip);
    if (w.wal) gates.Check("traced_wal_recovery_matches",
                           traced->recovery_matches);
    if (!traced->error.empty()) {
      std::fprintf(stderr, "traced trial: %s\n", traced->error.c_str());
    }
    for (const LayerMetric& m : traced->layers) {
      JsonObject layer;
      layer.Num("value", m.value).Str("unit", m.unit);
      layers.Obj(m.name, layer);
      PrintMetric(w, m.name, m.value, m.unit, emitted);
    }
    std::printf("trace: %zu spans -> %s\n", traced->spans, span_path.c_str());
  }

  // ---- Self-test: the metric list and the seed's reach. ----
  if (flags.self_test) {
    gates.Check("self_test_metrics_listed_are_emitted",
                ListedMetricsAreEmitted(emitted));
    const TrialResult other_seed = RunTrial(w, flags.seed + 1, users);
    gates.Check("self_test_seed_reaches_workload",
                other_seed.error.empty() &&
                    other_seed.stats.stream_digest !=
                        first.stats.stream_digest);
  }

  // ---- Result object. ----
  JsonObject out;
  out.Str("name", w.name)
      .Str("why", w.why)
      .Int("users", users)
      .Int("slots", w.slots)
      .Int("dims", w.dims)
      .Int("workers", static_cast<uint64_t>(w.workers))
      .Int("threads", static_cast<uint64_t>(w.threads))
      .Int("connections", static_cast<uint64_t>(w.connections))
      .Int("warmup_users", warmup_users)
      .Int("trials", trials.size())
      .Raw("digest", JsonHex(first.stats.stream_digest))
      .Raw("state_digest", JsonHex(first.state_digest))
      .Obj("gates", gates.json())
      .Int("gate_failures", static_cast<uint64_t>(gates.failures()))
      .Int("attempted_runs", attempted)
      .Int("failed_runs", failed)
      .Obj("metrics", metrics)
      .Obj("diagnostics", diagnostics);
  if (traced) out.Obj("layers", layers);
  if (!flags.json_path.empty()) {
    std::ofstream file(flags.json_path);
    file << out.str() << "\n";
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", flags.json_path.c_str());
      return 1;
    }
  }
  std::printf("%s: %s (%d gate failure(s), %" PRIu64 " failed run(s))\n",
              w.name, gates.failures() == 0 && failed == 0 ? "ok" : "FAILED",
              gates.failures(), failed);
  return gates.failures() == 0 && failed == 0 ? 0 : 1;
}

// --------------------------------------------------------- orchestrator ----

/// Runs `args` as a child of this executable and waits for it; returns its
/// exit status (128 + signal when killed).
int RunChild(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (::posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0) {
    return 127;
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return 127;
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

/// Runs one workload of `flags` in a child process writing to `part`;
/// returns its exit status and its result object, or a stand-in object
/// naming the failure when it wrote none.
std::pair<int, std::string> RunWorkloadProcess(const char* argv0,
                                               const Flags& flags,
                                               const Workload& w,
                                               const std::string& part) {
  std::vector<std::string> args = {
      argv0, "--child", std::string("--workload=") + w.name,
      "--seed=" + std::to_string(flags.seed), "--json=" + part};
  if (flags.seconds > 0.0) {
    args.push_back("--seconds=" + std::to_string(flags.seconds));
  } else {
    args.push_back("--trials=" + std::to_string(flags.trials));
  }
  if (flags.smoke) args.push_back("--smoke");
  if (flags.self_test) args.push_back("--self-test");
  if (!flags.trace_dir.empty()) args.push_back("--trace=" + flags.trace_dir);
  std::error_code ec;
  std::filesystem::remove(part, ec);
  std::fflush(stdout);
  const int status = RunChild(args);
  std::ifstream in(part);
  std::stringstream object;
  object << in.rdbuf();
  std::string text = object.str();
  while (!text.empty() && (text.back() == '\n' || text.back() == ' ')) {
    text.pop_back();
  }
  if (text.empty()) {
    JsonObject missing;
    missing.Str("name", w.name)
        .Str("error", "workload process exited with status " +
                          std::to_string(status) + " and no result");
    text = missing.str();
  }
  return {status, text};
}

int Orchestrate(const char* argv0, const Flags& flags) {
  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (flags.workload == "all" || flags.workload == w.name) {
      selected.push_back(&w);
    }
  }
  ScratchDir parts;
  if (parts.path().empty()) {
    std::fprintf(stderr, "cannot create a scratch directory under TMPDIR\n");
    return 1;
  }
  // Runs go round the workloads in turn, so a slow spell of the machine
  // lands on all of them rather than on every run of one.
  std::string workloads = "[";
  std::vector<std::string> failed;
  for (int run = 0; run < flags.runs; ++run) {
    for (const Workload* w : selected) {
      const auto [status, text] = RunWorkloadProcess(
          argv0, flags, *w, parts.path() + "/" + w->name + ".json");
      if (workloads.size() > 1) workloads += ",\n  ";
      workloads += text;
      if (status != 0) failed.push_back(w->name);
    }
  }
  workloads += "]";

  std::string failed_json = "[";
  for (size_t i = 0; i < failed.size(); ++i) {
    failed_json += (i > 0 ? ", " : "") + JsonString(failed[i]);
  }
  failed_json += "]";
  JsonObject result;
  result.Str("bench", "bench_pipeline")
      .Int("seed", flags.seed)
      .Bool("smoke", flags.smoke)
      .Bool("traced", !flags.trace_dir.empty() || flags.self_test)
      .Obj("system", SystemJson())
      .Raw("failed_workloads", failed_json)
      .Raw("workloads", workloads);
  if (!flags.json_path.empty()) {
    std::ofstream file(flags.json_path);
    file << result.str() << "\n";
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", flags.json_path.c_str());
      return 1;
    }
    std::printf("result file: %s\n", flags.json_path.c_str());
  }
  if (flags.self_test) {
    std::printf("self-test: %s\n", failed.empty() ? "PASS" : "FAIL");
  }
  return failed.empty() ? 0 : 1;
}

}  // namespace
}  // namespace capp::pipeline

int main(int argc, char** argv) {
  using namespace capp::pipeline;
  const Flags flags = ParseFlags(argc, argv);
  if (flags.child) {
    const Workload* w = FindWorkload(flags.workload);
    if (w == nullptr) Usage(argv[0]);
    return RunWorkload(*w, flags);
  }
  return Orchestrate(argv[0], flags);
}
