// Pipeline benchmark driver (see README.md). One process runs one
// workload as a closed loop of ops and prints, as its last stdout line,
//   {"correct":B,"attempted":N,"failed":N,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0, src/obs collection off) or the
// per-layer metrics (--trace 1).
//
//   bgc_pipebench --workload NAME --seed N --seconds S --trace 0|1
//                 --pins FILE --workdir DIR [--commit ID]

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "pipebench/pipeline.h"
#include "src/core/arena.h"
#include "src/core/parse.h"
#include "src/core/thread_pool.h"
#include "src/obs/json.h"
#include "src/obs/obs.h"
#include "src/tensor/simd/simd.h"

namespace bgc::pipebench {
namespace {

// The seed whose records are pinned in pins.txt.
constexpr uint64_t kDefaultSeed = 1;
// Set-ups per untraced run (setup_s is their median): at least
// kMinSetups, more while they fit in kSetupBudgetS, at most kMaxSetups.
constexpr int kMinSetups = 2;
constexpr int kMaxSetups = 100;
constexpr double kSetupBudgetS = 1.0;
// Ops per untraced run: a closed loop for --seconds, but never fewer than
// this, so op_s is a median of at least three.
constexpr int kMinOps = 3;
// Share of each traced op's wall time its top-level spans must cover.
constexpr double kMinCoverage = 0.95;

struct Args {
  std::string workload;
  std::string pins;
  std::string workdir;
  std::string commit = "unknown";
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* a, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = flag + " needs a value";
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--pins") {
      a->pins = value;
    } else if (flag == "--workdir") {
      a->workdir = value;
    } else if (flag == "--commit") {
      a->commit = value;
    } else if (flag == "--seed") {
      StatusOr<uint64_t> v = ParseU64(value);
      if (!v.ok()) {
        *error = "--seed: " + v.status().message();
        return false;
      }
      a->seed = v.value();
    } else if (flag == "--seconds") {
      StatusOr<double> v = ParseDoubleInRange(value, 0.0, 3600.0);
      if (!v.ok()) {
        *error = "--seconds: " + v.status().message();
        return false;
      }
      a->seconds = v.value();
    } else if (flag == "--trace") {
      StatusOr<long long> v = ParseIntInRange(value, 0, 1);
      if (!v.ok()) {
        *error = "--trace: " + v.status().message();
        return false;
      }
      a->trace = static_cast<int>(v.value());
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (a->workload.empty() || a->pins.empty() || a->workdir.empty()) {
    *error = "--workload, --pins and --workdir are required";
    return false;
  }
  return true;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Linear interpolation between closest ranks; q in [0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Metric name, unit, and whether it is an exact count.
struct MetricDef {
  const char* name;
  const char* unit;
  bool count;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s", false},
    {"op_s", "s", false},
    {"peak_rss_mib", "MiB", false},
};

// Per-layer metrics; 0 where a workload does not exercise the layer.
const MetricDef kPerLayer[] = {
    {"data.generate_s", "s", false},
    {"data.open_s", "s", false},
    {"data.warm_s", "s", false},
    {"data.warm_gbps", "GB/s", false},
    {"attack.run_s", "s", false},
    {"attack.select_s", "s", false},
    {"attack.loop_ms_p50", "ms", false},
    {"attack.loop_ms_p90", "ms", false},
    {"attack.loop_n", "count", true},
    {"attack.surrogate_s", "s", false},
    {"attack.trigger_s", "s", false},
    {"attack.attach_s", "s", false},
    {"condense.epoch_ms_p50", "ms", false},
    {"condense.epoch_ms_p90", "ms", false},
    {"condense.epoch_n", "count", true},
    {"condense.clean_epoch_ms_p50", "ms", false},
    {"condense.clean_epoch_ms_p90", "ms", false},
    {"condense.clean_epoch_n", "count", true},
    {"condense.clean_s", "s", false},
    {"condense.result_s", "s", false},
    {"condense.gm_inner_s", "s", false},
    {"condense.gm_refresh_s", "s", false},
    {"condense.sntk_kernel_s", "s", false},
    {"victim.train_s", "s", false},
    {"eval.victim_s", "s", false},
    {"nn.train_s", "s", false},
    {"nn.epoch_ms_p50", "ms", false},
    {"nn.epoch_ms_p90", "ms", false},
    {"nn.epoch_n", "count", true},
    {"nn.sampler_s", "s", false},
    {"nn.sampler_nodes", "count", true},
    {"eval.sampled_s", "s", false},
    {"eval.sampled_nodes_per_s", "1/s", false},
    {"tensor.gemm_s", "s", false},
    {"tensor.gemm_calls", "count", true},
    {"tensor.gemm_flops", "count", true},
    {"tensor.gemm_packed_share", "share", false},
    {"tensor.gemm_gflops", "GFLOP/s", false},
    {"graph.spmm_s", "s", false},
    {"graph.spmm_calls", "count", true},
    {"graph.spmm_flops", "count", true},
    {"graph.spmm_gflops", "GFLOP/s", false},
    {"graph.normalize_s", "s", false},
    {"graph.normalize_calls", "count", true},
    {"graph.feature_gather_s", "s", false},
    {"pool.busy_share", "share", false},
    {"pool.tasks_per_dispatch", "tasks", false},
    {"arena.hit_rate", "share", false},
    {"trace.coverage", "share", false},
    {"trace_overhead", "share", false},
};

// Counters (and timer call counts, "#"-prefixed) that must repeat
// exactly between traced ops of one run.
const char* const kExactCounts[] = {
    "tensor.gemm.calls",  "tensor.gemm.flops",   "tensor.gemm.packed",
    "graph.spmm.calls",   "graph.spmm.flops",    "graph.spmm.nnz",
    "nn.sampler.batches", "nn.sampler.nodes",    "nn.sampler.edges",
    "pool.dispatches",    "pool.tasks",          "condense.gm.inner_steps",
    "#graph.normalize",   "#condense.sntk.kernel",
};

std::string FormatNumber(double v, bool count) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  if (count) {
    std::snprintf(buf, sizeof(buf), "%lld", std::llround(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

template <size_t N>
std::string MetricsJson(const MetricDef (&defs)[N],
                        const std::map<std::string, double>& values) {
  std::string out = "{";
  for (size_t i = 0; i < N; ++i) {
    auto it = values.find(defs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    if (i > 0) out += ", ";
    out += '"';
    out += defs[i].name;
    out += "\": {\"value\": ";
    out += FormatNumber(v, defs[i].count);
    out += ", \"unit\": \"";
    out += defs[i].unit;
    out += "\"}";
  }
  return out + "}";
}

template <size_t N>
void PrintTable(const MetricDef (&defs)[N],
                const std::map<std::string, double>& values) {
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    std::printf("  %-30s %22s %s\n", d.name,
                FormatNumber(it == values.end() ? 0.0 : it->second, d.count)
                    .c_str(),
                d.unit);
  }
}

// src/obs state after one op: counters (pool busy slots included) and
// timers as (total seconds, calls).
struct ObsReading {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> timers;

  double Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
  double TimerSeconds(const std::string& name) const {
    auto it = timers.find(name);
    return it == timers.end() ? 0.0 : it->second.first;
  }
  double TimerCalls(const std::string& name) const {
    auto it = timers.find(name);
    return it == timers.end() ? 0.0 : it->second.second;
  }
};

ObsReading ReadObs() {
  obs::JsonParseResult parsed =
      obs::ParseJson(obs::Registry::Global().MetricsJson());
  BGC_CHECK_MSG(parsed.ok, parsed.error);
  ObsReading r;
  if (const obs::JsonValue* counters = parsed.value.Find("counters")) {
    for (const auto& [name, v] : counters->object) r.counters[name] = v.number;
  }
  if (const obs::JsonValue* timers = parsed.value.Find("timers")) {
    for (const auto& [name, v] : timers->object) {
      const obs::JsonValue* total = v.Find("total_ns");
      const obs::JsonValue* count = v.Find("count");
      r.timers[name] = {total ? total->number * 1e-9 : 0.0,
                        count ? count->number : 0.0};
    }
  }
  return r;
}

double SpanSeconds(const std::vector<Span>& spans, const std::string& name) {
  double s = 0.0;
  for (const Span& sp : spans) {
    if (sp.name == name) s += Seconds(sp.end_ns - sp.start_ns);
  }
  return s;
}

void AppendSpanMs(const std::vector<Span>& spans, const std::string& name,
                  std::vector<double>* out) {
  for (const Span& sp : spans) {
    if (sp.name == name) out->push_back((sp.end_ns - sp.start_ns) * 1e-6);
  }
}

// Per-op samples pooled over a run's traced ops (epoch-level timings).
struct Pooled {
  std::vector<double> loop_ms, epoch_ms, clean_epoch_ms, nn_epoch_ms;
};

// Attack-level spans of one op: time from RunBgc entry to the condenser's
// Initialize (selection + generator + initial poisoned graph), and the
// per-epoch gap between condenser calls (surrogate + trigger + attach).
double AttackSpans(const std::vector<Span>& spans, Pooled* pooled) {
  double select_s = 0.0;
  for (size_t a = 0; a < spans.size(); ++a) {
    if (spans[a].name != "attack") continue;
    int64_t prev_end = -1;
    for (size_t c = a + 1; c < spans.size(); ++c) {
      if (spans[c].parent != static_cast<int>(a)) continue;
      if (spans[c].name == "condense.init") {
        select_s += Seconds(spans[c].start_ns - spans[a].start_ns);
        prev_end = spans[c].end_ns;
      } else if (spans[c].name == "condense.epoch") {
        if (prev_end >= 0) {
          pooled->loop_ms.push_back((spans[c].start_ns - prev_end) * 1e-6);
        }
        prev_end = spans[c].end_ns;
      }
    }
  }
  return select_s;
}

// One op's exact counts, plus the number of spans of each name.
using Counts = std::map<std::string, double>;

Counts ExactCounts(const ObsReading& r, const std::vector<Span>& spans) {
  Counts c;
  for (const char* name : kExactCounts) {
    c[name] = name[0] == '#' ? r.TimerCalls(name + 1) : r.Counter(name);
  }
  for (const Span& sp : spans) c["span " + sp.name] += 1.0;
  return c;
}

// Layer metrics of one traced op.
std::map<std::string, double> LayerValues(const std::vector<Span>& spans,
                                          const ObsReading& r,
                                          const OpResult& res, double op_s,
                                          int threads, double arena_hits,
                                          double arena_misses,
                                          Pooled* pooled) {
  std::map<std::string, double> v;
  v["data.open_s"] = SpanSeconds(spans, "data.open");
  v["data.warm_s"] = SpanSeconds(spans, "data.warm");
  v["data.warm_gbps"] =
      Ratio(static_cast<double>(res.mapped_bytes) * 1e-9, v["data.warm_s"]);

  v["attack.run_s"] = SpanSeconds(spans, "attack");
  v["attack.select_s"] = AttackSpans(spans, pooled);
  v["attack.surrogate_s"] = r.TimerSeconds("phase.attack.surrogate");
  v["attack.trigger_s"] = r.TimerSeconds("phase.attack.trigger");
  v["attack.attach_s"] = r.TimerSeconds("phase.attack.attach");

  AppendSpanMs(spans, "condense.epoch", &pooled->epoch_ms);
  AppendSpanMs(spans, "condense.clean_epoch", &pooled->clean_epoch_ms);
  v["condense.clean_s"] = SpanSeconds(spans, "condense.clean");
  v["condense.result_s"] = SpanSeconds(spans, "condense.result");
  v["condense.gm_inner_s"] = r.TimerSeconds("condense.gm.inner");
  v["condense.gm_refresh_s"] = r.TimerSeconds("condense.gm.refresh");
  v["condense.sntk_kernel_s"] = r.TimerSeconds("condense.sntk.kernel");

  v["victim.train_s"] = SpanSeconds(spans, "victim.train") +
                        SpanSeconds(spans, "victim.train_clean");
  v["eval.victim_s"] =
      SpanSeconds(spans, "eval.victim") + SpanSeconds(spans, "eval.clean");
  v["nn.train_s"] = SpanSeconds(spans, "nn.epoch");
  AppendSpanMs(spans, "nn.epoch", &pooled->nn_epoch_ms);
  v["nn.sampler_s"] = r.TimerSeconds("nn.sampler.batch");
  v["eval.sampled_s"] = SpanSeconds(spans, "eval.sampled");
  v["eval.sampled_nodes_per_s"] =
      Ratio(static_cast<double>(res.eval_nodes), v["eval.sampled_s"]);

  const double gemm_s = r.TimerSeconds("tensor.gemm");
  const double gemm_calls = r.Counter("tensor.gemm.calls");
  v["tensor.gemm_s"] = gemm_s;
  v["tensor.gemm_packed_share"] =
      Ratio(r.Counter("tensor.gemm.packed"), gemm_calls);
  v["tensor.gemm_gflops"] = Ratio(r.Counter("tensor.gemm.flops") * 1e-9,
                                  gemm_s);

  const double spmm_s =
      r.TimerSeconds("graph.spmm") + r.TimerSeconds("graph.spmm_t");
  v["graph.spmm_s"] = spmm_s;
  v["graph.spmm_gflops"] = Ratio(r.Counter("graph.spmm.flops") * 1e-9,
                                 spmm_s);
  v["graph.normalize_s"] = r.TimerSeconds("graph.normalize");
  v["graph.feature_gather_s"] = r.TimerSeconds("graph.feature_gather");

  double busy_ns = 0.0;
  for (const auto& [name, value] : r.counters) {
    if (name.rfind("pool.thread.", 0) == 0) busy_ns += value;
  }
  v["pool.busy_share"] = Ratio(busy_ns * 1e-9, threads * op_s);
  v["pool.tasks_per_dispatch"] =
      Ratio(r.Counter("pool.tasks"), r.Counter("pool.dispatches"));
  v["arena.hit_rate"] = Ratio(arena_hits, arena_hits + arena_misses);
  return v;
}

// Counts reported as metrics, taken from the exact-count set.
void AddCounts(const Counts& c, std::map<std::string, double>* out) {
  (*out)["tensor.gemm_calls"] = c.at("tensor.gemm.calls");
  (*out)["tensor.gemm_flops"] = c.at("tensor.gemm.flops");
  (*out)["graph.spmm_calls"] = c.at("graph.spmm.calls");
  (*out)["graph.spmm_flops"] = c.at("graph.spmm.flops");
  (*out)["graph.normalize_calls"] = c.at("#graph.normalize");
  (*out)["nn.sampler_nodes"] = c.at("nn.sampler.nodes");
}

std::vector<std::string> CompareCounts(const Counts& got,
                                       const Counts& first) {
  std::vector<std::string> errors;
  for (const auto& [name, value] : first) {
    auto it = got.find(name);
    const double g = it == got.end() ? 0.0 : it->second;
    if (g != value) {
      errors.push_back(name + ": " + FormatNumber(g, true) +
                       " != first traced op " + FormatNumber(value, true));
    }
  }
  for (const auto& [name, value] : got) {
    if (first.count(name) == 0) {
      errors.push_back(name + ": " + FormatNumber(value, true) +
                       ", absent from first traced op");
    }
  }
  return errors;
}

double Coverage(const std::vector<Span>& spans, double op_s) {
  double covered = 0.0;
  for (const Span& sp : spans) {
    if (sp.parent < 0) covered += Seconds(sp.end_ns - sp.start_ns);
  }
  return Ratio(covered, op_s);
}

// Outcome bookkeeping shared by both modes.
struct Tally {
  int attempted = 0;
  int failed = 0;
  Record first;

  // Checks one op's record; prints and counts failures.
  void Check(const Workload& w, const Record& got, const Record* pinned,
             std::vector<std::string> extra) {
    std::vector<std::string> errors =
        CheckRecord(w, got, attempted == 0 ? nullptr : &first, pinned);
    errors.insert(errors.end(), extra.begin(), extra.end());
    if (attempted == 0) {
      first = got;
      for (const auto& [field, value] : got) {
        std::printf("pin %s %s %s\n", w.name.c_str(), field.c_str(),
                    value.c_str());
      }
    }
    ++attempted;
    if (!errors.empty()) {
      ++failed;
      for (const std::string& e : errors) {
        std::printf("op %d FAILED %s\n", attempted, e.c_str());
      }
    }
  }
};

struct Timed {
  OpResult result;
  double seconds = 0.0;
};

Timed TimeOp(const Workload& w, const Inputs& in, uint64_t seed,
             Tracer* tracer) {
  const int64_t t0 = obs::NowNs();
  Timed t;
  t.result = RunOp(w, in, seed, tracer);
  t.seconds = Seconds(obs::NowNs() - t0);
  return t;
}

void RunUntraced(const Workload& w, const Args& a, const std::string& path,
                 const Record* pinned, Tally* tally,
                 std::map<std::string, double>* metrics) {
  std::vector<double> setup_s;
  Inputs in;
  const int64_t setup_start = obs::NowNs();
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         (static_cast<int>(setup_s.size()) < kMaxSetups &&
          Seconds(obs::NowNs() - setup_start) < kSetupBudgetS)) {
    const int64_t t0 = obs::NowNs();
    in = Setup(w, a.seed, path, nullptr);
    setup_s.push_back(Seconds(obs::NowNs() - t0));
  }
  std::printf("setup x%zu %.4f s (median)\n", setup_s.size(), Median(setup_s));
  // Hand set-up's freed heap back to the kernel so the watermark starts
  // from what the ops actually keep live.
  malloc_trim(0);
  if (!obs::ResetPeakRss()) {
    std::printf("note: peak RSS could not be reset; it includes set-up\n");
  }
  std::vector<double> op_s;
  double peak_rss_mib = 0.0;
  const int64_t start = obs::NowNs();
  do {
    Timed t = TimeOp(w, in, a.seed, nullptr);
    // Peak RSS is taken over the first op only. Later ops add heap that
    // glibc keeps after frees, by an amount that depends on allocation
    // order: over eight cora seeds the first op peaked at 36.0-38.4 MiB
    // and the fourth at 36.7-45.6 MiB. A fixed mmap threshold (32.9-33.5
    // MiB for all four) would avoid that, but its page faults add ~15% to
    // op time, so the default allocator stays.
    if (op_s.empty()) {
      peak_rss_mib =
          static_cast<double>(obs::ReadPeakRssBytes()) / (1024.0 * 1024.0);
    }
    op_s.push_back(t.seconds);
    tally->Check(w, t.result.record, pinned, {});
    std::printf("op %d %.3f s\n", tally->attempted, t.seconds);
    std::fflush(stdout);
  } while (static_cast<int>(op_s.size()) < kMinOps ||
           Seconds(obs::NowNs() - start) < a.seconds);
  (*metrics)["setup_s"] = Median(setup_s);
  (*metrics)["op_s"] = Median(op_s);
  (*metrics)["peak_rss_mib"] = peak_rss_mib;
}

void RunTraced(const Workload& w, const Args& a, const std::string& path,
               const Record* pinned, int threads, Tally* tally,
               std::map<std::string, double>* metrics) {
  Tracer tracer;
  Inputs in = Setup(w, a.seed, path, &tracer);
  (*metrics)["data.generate_s"] = SpanSeconds(tracer.spans(), "data.generate");
  tracer.Clear();

  const int64_t start = obs::NowNs();
  Timed untraced = TimeOp(w, in, a.seed, nullptr);
  tally->Check(w, untraced.result.record, pinned, {});
  std::printf("op %d %.3f s (untraced)\n", tally->attempted,
              untraced.seconds);

  obs::SetMetricsEnabled(true);
  std::map<std::string, std::vector<double>> per_op;
  std::vector<double> traced_s;
  Pooled pooled;
  Counts first_counts;
  double min_coverage = 1.0;
  while (traced_s.size() < 2 || Seconds(obs::NowNs() - start) < a.seconds) {
    obs::Registry::Global().Reset();
    const core::BufferArena::Stats before = core::BufferArena::Global().stats();
    tracer.Clear();
    Timed t = TimeOp(w, in, a.seed, &tracer);
    const core::BufferArena::Stats after = core::BufferArena::Global().stats();
    const ObsReading reading = ReadObs();

    const Counts counts = ExactCounts(reading, tracer.spans());
    std::vector<std::string> errors;
    if (traced_s.empty()) {
      first_counts = counts;
    } else {
      errors = CompareCounts(counts, first_counts);
    }
    const double coverage = Coverage(tracer.spans(), t.seconds);
    min_coverage = std::min(min_coverage, coverage);
    if (coverage < kMinCoverage) {
      errors.push_back("span coverage " + FormatNumber(coverage, false) +
                       " below " + FormatNumber(kMinCoverage, false));
    }
    tally->Check(w, t.result.record, pinned, errors);
    std::printf("op %d %.3f s (traced, coverage %.4f)\n", tally->attempted,
                t.seconds, coverage);
    std::fflush(stdout);

    traced_s.push_back(t.seconds);
    for (const auto& [name, value] : LayerValues(
             tracer.spans(), reading, t.result, t.seconds, threads,
             static_cast<double>(after.hits - before.hits),
             static_cast<double>(after.misses - before.misses), &pooled)) {
      per_op[name].push_back(value);
    }
  }
  obs::SetMetricsEnabled(false);

  for (const auto& [name, values] : per_op) (*metrics)[name] = Median(values);
  AddCounts(first_counts, metrics);
  auto percentiles = [&](const char* prefix, const std::vector<double>& ms) {
    const std::string p = prefix;
    (*metrics)[p + "_ms_p50"] = Percentile(ms, 0.5);
    (*metrics)[p + "_ms_p90"] = Percentile(ms, 0.9);
    (*metrics)[p + "_n"] = static_cast<double>(ms.size());
  };
  percentiles("attack.loop", pooled.loop_ms);
  percentiles("condense.epoch", pooled.epoch_ms);
  percentiles("condense.clean_epoch", pooled.clean_epoch_ms);
  percentiles("nn.epoch", pooled.nn_epoch_ms);
  (*metrics)["trace.coverage"] = min_coverage;
  (*metrics)["trace_overhead"] = Median(traced_s) / untraced.seconds - 1.0;
}

int Main(int argc, char** argv) {
  Args a;
  std::string error;
  if (!ParseArgs(argc, argv, &a, &error)) {
    std::fprintf(stderr, "bgc_pipebench: %s\n", error.c_str());
    return 2;
  }
  const Workload* w = FindWorkload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "bgc_pipebench: unknown workload %s\n",
                 a.workload.c_str());
    return 2;
  }
  if (simd::FastMathEnabled()) {
    std::fprintf(stderr,
                 "bgc_pipebench: refusing to run under BGC_FAST_MATH: the "
                 "fused tier is not bit-exact, so the pinned records do not "
                 "apply. Unset BGC_FAST_MATH.\n");
    return 2;
  }
  std::ifstream pin_file(a.pins);
  std::stringstream pin_text;
  pin_text << pin_file.rdbuf();
  Pins pins;
  if (!pin_file || !ParsePins(pin_text.str(), &pins, &error)) {
    std::fprintf(stderr, "bgc_pipebench: %s: %s\n", a.pins.c_str(),
                 pin_file ? error.c_str() : "cannot read");
    return 2;
  }
  // At the default seed every op must match the pin; a workload without
  // one fails every field (its "pin" lines are still printed for pinning).
  const Record* pinned = a.seed == kDefaultSeed ? &pins[w->name] : nullptr;

  // Pinned per workload, never inherited; capped at the CPUs we may use.
  const int nproc = Nproc();
  const int threads = std::min(w->threads, nproc);
  setenv("BGC_NUM_THREADS", std::to_string(threads).c_str(), 1);
  BGC_CHECK_EQ(ThreadPool::Global().num_threads(), threads);

  std::printf(
      "env workload=%s seed=%llu trace=%d threads=%d nproc=%d "
      "simd.backend=%s simd.fast_math=off commit=%s\n",
      w->name.c_str(), static_cast<unsigned long long>(a.seed), a.trace,
      threads, nproc, simd::BackendName(simd::Active()), a.commit.c_str());
  std::fflush(stdout);

  const std::string path = a.workdir + "/" + w->name + "." +
                           std::to_string(getpid()) + ".bgcbin";
  Tally tally;
  std::map<std::string, double> metrics;
  if (a.trace == 0) {
    RunUntraced(*w, a, path, pinned, &tally, &metrics);
  } else {
    RunTraced(*w, a, path, pinned, threads, &tally, &metrics);
  }
  std::remove(path.c_str());

  if (a.trace == 0) {
    PrintTable(kEndToEnd, metrics);
  } else {
    PrintTable(kPerLayer, metrics);
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed,
              a.trace == 0 ? MetricsJson(kEndToEnd, metrics).c_str()
                           : MetricsJson(kPerLayer, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace bgc::pipebench

int main(int argc, char** argv) { return bgc::pipebench::Main(argc, argv); }
