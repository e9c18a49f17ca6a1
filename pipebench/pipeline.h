#ifndef PIPEBENCH_PIPELINE_H_
#define PIPEBENCH_PIPELINE_H_

// The pipeline benchmark's workloads, assembled from the library's public
// calls only. Each workload is set up once from a seed, then runs "ops" —
// one complete pass of its pipeline — whose outputs form a Record that the
// driver checks (see README.md).
//
// The BGC cell replays eval::RunOnce step by step on the same RNG streams
// (seed * stride + 17/18/19/20), so its record is bit-identical to
// RunOnce's metrics; pipeline_test.cc pins that equivalence.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/condense/condenser.h"
#include "src/data/dataset.h"
#include "src/eval/experiment.h"
#include "src/nn/trainer.h"

namespace bgc::pipebench {

/// One span the driver records around a public call, on obs::NowNs's
/// clock. `parent` indexes the enclosing span in the same list (-1: none).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
};

/// In-memory span list. Single-threaded: the pipeline is driven from one
/// thread (the library's own thread pool is never handed a Tracer).
class Tracer {
 public:
  int Open(const char* name);
  void Close(int span);
  const std::vector<Span>& spans() const { return spans_; }
  void Clear();

 private:
  std::vector<Span> spans_;
  int innermost_ = -1;
};

/// RAII span; a null tracer records nothing (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), span_(tracer ? tracer->Open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

/// An op's output as (field, exact text) pairs: doubles as %.17g, floats
/// as %.9g, digests as 16 hex digits.
using Record = std::vector<std::pair<std::string, std::string>>;

/// Sampled training over an out-of-core bgcbin (the "sbm" workload).
struct SampledSpec {
  std::string preset = "sbm-1m";
  int hidden = 32;
  nn::MinibatchTrainConfig train;
};

struct Workload {
  std::string name;
  int threads = 1;
  /// True: a BGC cell (`cell`); false: sampled training (`sampled`).
  bool is_cell = true;
  eval::RunSpec cell;
  SampledSpec sampled;
  /// Seed-independent sanity floors on record fields (e.g. asr >= 0.3).
  std::vector<std::pair<std::string, double>> floors;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<Workload>& Workloads();
/// nullptr when `name` is not a workload.
const Workload* FindWorkload(const std::string& name);

/// A workload's inputs between set-up and ops.
struct Inputs {
  data::GraphDataset ds;          // cells
  condense::SourceGraph clean;    // cells
  std::string bgcbin_path;        // sampled
};

/// Everything before the first op: builds the dataset (cells) or streams
/// it to `bgcbin_path` (sampled). Spans: "data.generate".
Inputs Setup(const Workload& w, uint64_t seed, const std::string& bgcbin_path,
             Tracer* tracer);

struct OpResult {
  Record record;
  long long mapped_bytes = 0;  // sampled: size of the opened mapping
  long long eval_nodes = 0;    // sampled: nodes scored by inference
};

/// One op. Top-level spans partition it (see README.md "Spans").
OpResult RunOp(const Workload& w, const Inputs& in, uint64_t seed,
               Tracer* tracer);

/// Pinned records at the default seed, keyed by workload.
using Pins = std::map<std::string, Record>;

/// Parses "<workload> <field> <value>" lines ('#' comments, blank lines).
/// Returns false and sets `error` on a malformed line.
bool ParsePins(const std::string& text, Pins* pins, std::string* error);

/// Every way `got` is wrong, each naming its field: differs from the
/// run's first op (`first`, may be null), differs from the pin (`pinned`,
/// may be null), or falls below one of the workload's floors. Empty when
/// the record passes.
std::vector<std::string> CheckRecord(const Workload& w, const Record& got,
                                     const Record* first,
                                     const Record* pinned);

}  // namespace bgc::pipebench

#endif  // PIPEBENCH_PIPELINE_H_
