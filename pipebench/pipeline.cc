#include "pipebench/pipeline.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>

#include "src/attack/bgc.h"
#include "src/core/check.h"
#include "src/core/hash.h"
#include "src/data/mmap_dataset.h"
#include "src/data/synthetic.h"
#include "src/eval/pipeline.h"
#include "src/obs/obs.h"

namespace bgc::pipebench {
namespace {

// eval::RunOnce's stream stride: stream seeds are seed * kSeedStride + k.
constexpr uint64_t kSeedStride = 0x9e3779b97f4a7c15ULL;

// Forwards to the condenser from MakeCondenser and spans every call, so
// the attack loop's structure (select → init → epochs) shows in the trace
// without touching src/.
class TimedCondenser final : public condense::Condenser {
 public:
  TimedCondenser(std::unique_ptr<condense::Condenser> inner, Tracer* tracer,
                 const char* epoch_span)
      : inner_(std::move(inner)), tracer_(tracer), epoch_span_(epoch_span) {}

  void Initialize(const condense::SourceGraph& source, int num_classes,
                  const condense::CondenseConfig& config, Rng& rng) override {
    ScopedSpan span(tracer_, "condense.init");
    inner_->Initialize(source, num_classes, config, rng);
  }
  void Epoch(const condense::SourceGraph& source) override {
    ScopedSpan span(tracer_, epoch_span_);
    inner_->Epoch(source);
  }
  condense::CondensedGraph Result() const override {
    ScopedSpan span(tracer_, "condense.result");
    return inner_->Result();
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<condense::Condenser> inner_;
  Tracer* tracer_;
  const char* epoch_span_;
};

template <typename T>
void AppendBytes(std::string& buf, const T* data, size_t count) {
  buf.append(reinterpret_cast<const char*>(data), count * sizeof(T));
}

template <typename T>
void AppendValue(std::string& buf, T value) {
  AppendBytes(buf, &value, 1);
}

void AppendMatrix(std::string& buf, const Matrix& m) {
  AppendValue(buf, m.rows());
  AppendValue(buf, m.cols());
  AppendBytes(buf, m.data(), static_cast<size_t>(m.size()));
}

std::string Hex(uint64_t v) {
  char out[17];
  std::snprintf(out, sizeof(out), "%016" PRIx64, v);
  return out;
}

std::string Exact(double v) {
  char out[32];
  std::snprintf(out, sizeof(out), "%.17g", v);
  return out;
}

std::string Exact(float v) {
  char out[32];
  std::snprintf(out, sizeof(out), "%.9g", static_cast<double>(v));
  return out;
}

std::string CondensedDigest(const condense::CondensedGraph& g) {
  std::string buf;
  AppendValue(buf, g.adj.rows());
  AppendValue(buf, g.adj.cols());
  AppendBytes(buf, g.adj.row_ptr().data(), g.adj.row_ptr().size());
  AppendBytes(buf, g.adj.col_idx().data(), g.adj.col_idx().size());
  AppendBytes(buf, g.adj.values().data(), g.adj.values().size());
  AppendMatrix(buf, g.features);
  AppendBytes(buf, g.labels.data(), g.labels.size());
  AppendValue(buf, g.num_classes);
  AppendValue(buf, static_cast<int>(g.use_structure));
  return Hex(Fnv1a64(buf));
}

std::string IdsDigest(const std::vector<int>& ids) {
  std::string buf;
  AppendBytes(buf, ids.data(), ids.size());
  return Hex(Fnv1a64(buf));
}

std::string WeightsDigest(nn::GnnModel& model) {
  std::string buf;
  for (const auto& [name, value] : model.StateDict()) {
    buf += name;
    AppendMatrix(buf, value);
  }
  return Hex(Fnv1a64(buf));
}

// eval::RunOnce for attack "bgc", one public call at a time.
OpResult RunCell(const eval::RunSpec& spec, const Inputs& in, uint64_t seed,
                 Tracer* tracer) {
  const int num_classes = in.ds.num_classes;
  const int target = spec.attack_cfg.target_class;
  attack::AttackResult attacked;
  {
    ScopedSpan span(tracer, "attack");
    TimedCondenser condenser(condense::MakeCondenser(spec.method), tracer,
                             "condense.epoch");
    Rng rng(seed * kSeedStride + 17);
    attacked = attack::RunBgc(in.clean, num_classes, condenser, spec.condense,
                              spec.attack_cfg, rng);
  }
  eval::AttackMetrics backdoor;
  {
    std::unique_ptr<nn::GnnModel> victim;
    {
      ScopedSpan span(tracer, "victim.train");
      Rng rng(seed * kSeedStride + 19);
      victim = eval::TrainVictim(attacked.condensed, spec.victim, rng);
    }
    ScopedSpan span(tracer, "eval.victim");
    backdoor = eval::EvaluateVictim(*victim, in.ds, attacked.generator.get(),
                                    target);
  }
  condense::CondensedGraph clean_condensed;
  {
    ScopedSpan span(tracer, "condense.clean");
    TimedCondenser condenser(condense::MakeCondenser(spec.method), tracer,
                             "condense.clean_epoch");
    Rng rng(seed * kSeedStride + 18);
    clean_condensed = condense::RunCondensation(condenser, in.clean,
                                                num_classes, spec.condense,
                                                rng);
  }
  eval::AttackMetrics clean;
  {
    std::unique_ptr<nn::GnnModel> victim;
    {
      ScopedSpan span(tracer, "victim.train_clean");
      Rng rng(seed * kSeedStride + 20);
      victim = eval::TrainVictim(clean_condensed, spec.victim, rng);
    }
    ScopedSpan span(tracer, "eval.clean");
    clean = eval::EvaluateVictim(*victim, in.ds, attacked.generator.get(),
                                 target);
  }
  OpResult out;
  out.record = {{"cta", Exact(backdoor.cta)},
                {"asr", Exact(backdoor.asr)},
                {"c_cta", Exact(clean.cta)},
                {"c_asr", Exact(clean.asr)},
                {"condensed_fnv", CondensedDigest(attacked.condensed)},
                {"poisoned_fnv", IdsDigest(attacked.poisoned_nodes)}};
  return out;
}

OpResult RunSampled(const SampledSpec& spec, const Inputs& in, uint64_t seed,
                    Tracer* tracer) {
  OpResult out;
  std::unique_ptr<data::MmapDataset> ds;
  {
    ScopedSpan span(tracer, "data.open");
    StatusOr<data::MmapDataset> opened =
        data::MmapDataset::Open(in.bgcbin_path);
    BGC_CHECK_MSG(opened.ok(), opened.status().message());
    ds = std::make_unique<data::MmapDataset>(opened.take());
  }
  {
    ScopedSpan span(tracer, "data.warm");
    const Status warm = ds->Warm();
    BGC_CHECK_MSG(warm.ok(), warm.message());
  }
  std::unique_ptr<nn::GnnModel> model;
  std::unique_ptr<nn::MinibatchTrainer> trainer;
  {
    ScopedSpan span(tracer, "nn.init");
    nn::GnnConfig mc;
    mc.in_dim = ds->dim();
    mc.hidden_dim = spec.hidden;
    mc.out_dim = ds->num_classes();
    Rng rng(seed * kSeedStride + 17);
    model = nn::MakeModel("gcn", mc, rng);
    nn::MinibatchTrainConfig tc = spec.train;
    tc.seed = seed * kSeedStride + 19;
    trainer = std::make_unique<nn::MinibatchTrainer>(
        *model, *ds, *ds, ds->labels(), ds->train_idx(), tc);
  }
  float loss = 0.0f;
  for (int epoch = 0; epoch < spec.train.epochs; ++epoch) {
    ScopedSpan span(tracer, "nn.epoch");
    loss = trainer->RunEpoch(epoch);
  }
  double acc = 0.0;
  {
    ScopedSpan span(tracer, "eval.sampled");
    acc = eval::EvaluateAccuracySampled(
        *model, *ds, *ds, ds->labels(), ds->test_idx(), spec.train.fanout,
        spec.train.batch_size, seed * kSeedStride + 20);
  }
  out.mapped_bytes = static_cast<long long>(ds->mapped_bytes());
  out.eval_nodes = static_cast<long long>(ds->test_idx().size());
  {
    ScopedSpan span(tracer, "data.close");
    trainer.reset();
    ds.reset();
  }
  out.record = {{"loss", Exact(loss)},
                {"test_acc", Exact(acc)},
                {"weights_fnv", WeightsDigest(*model)}};
  return out;
}

const std::string* FindField(const Record& r, const std::string& field) {
  for (const auto& [name, value] : r) {
    if (name == field) return &value;
  }
  return nullptr;
}

// Appends to `errors` every field on which `got` and `want` disagree.
void Compare(const Record& got, const Record& want, const char* what,
             std::vector<std::string>* errors) {
  for (const auto& [field, value] : want) {
    const std::string* g = FindField(got, field);
    if (g == nullptr) {
      errors->push_back(field + ": missing, " + what + " has " + value);
    } else if (*g != value) {
      errors->push_back(field + ": " + *g + " != " + what + " " + value);
    }
  }
  for (const auto& [field, value] : got) {
    if (FindField(want, field) == nullptr) {
      errors->push_back(field + ": " + value + ", absent from " + what);
    }
  }
}

}  // namespace

int Tracer::Open(const char* name) {
  Span s;
  s.name = name;
  s.parent = innermost_;
  s.start_ns = obs::NowNs();
  spans_.push_back(std::move(s));
  innermost_ = static_cast<int>(spans_.size()) - 1;
  return innermost_;
}

void Tracer::Close(int span) {
  spans_[span].end_ns = obs::NowNs();
  innermost_ = spans_[span].parent;
}

void Tracer::Clear() {
  BGC_CHECK_EQ(innermost_, -1);
  spans_.clear();
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> w(3);
    // The paper's Table 2 cell (cora, r = 2.60%): learned-adjacency
    // gradient matching on small dense tapes. Serial: on a shared 4-vCPU
    // host its pool dispatch made ops ~1.5x slower and ~10x noisier.
    w[0].name = "cora-gcond-bgc";
    w[0].threads = 1;
    w[0].cell.dataset = "cora-sim";
    w[0].cell.method = "gcond";
    w[0].cell.condense.num_condensed = 70;
    w[0].cell.condense.epochs = 150;
    w[0].cell.victim.epochs = 150;
    // ASR floors are plausibility checks for unpinned seeds, set at about
    // half the lowest ASR seen over a seed sweep: the attack's ASR has a
    // low tail that no correct run rules out. Cora: 356 seeds, lowest
    // 0.628 (seed 601127778; 0.63-0.88 over eight victim inits, 0.96 at
    // 300 attack epochs: slow to converge, not broken).
    w[0].floors = {{"asr", 0.3}};
    // Kernel ridge regression on the full inductive reddit-sim graph.
    w[1].name = "reddit-sntk-bgc";
    w[1].threads = 1;
    w[1].cell.dataset = "reddit-sim";
    w[1].cell.method = "gc-sntk";
    w[1].cell.condense.num_condensed = 77;
    w[1].cell.condense.epochs = 60;
    w[1].cell.attack_cfg.poison_budget = 90;
    w[1].cell.victim.epochs = 150;
    // 200 seeds, lowest 0.269 (seed 1311939741; 0.24-0.57 over six
    // victim inits). The clean victim's ASR is at most 0.13 on 90% of
    // seeds, so a lost backdoor still shows on most of them.
    w[1].floors = {{"asr", 0.1}};
    // No condensation or attack: packed GEMMs, the neighbor sampler and
    // a mapped working set far above the last-level cache. The one pooled
    // workload; 4 threads ran no faster than 2 and spread RSS wider.
    w[2].name = "sbm-sampled-train";
    w[2].threads = 2;
    w[2].is_cell = false;
    w[2].floors = {{"test_acc", 0.85}};
    for (Workload& x : w) {
      x.cell.attack = "bgc";
      x.cell.repeats = 1;
    }
    return w;
  }();
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs Setup(const Workload& w, uint64_t seed, const std::string& bgcbin_path,
             Tracer* tracer) {
  ScopedSpan span(tracer, "data.generate");
  Inputs in;
  if (w.is_cell) {
    in.ds = data::MakeDataset(w.cell.dataset, seed, w.cell.dataset_scale);
    in.clean = condense::FromTrainView(data::MakeTrainView(in.ds));
    return in;
  }
  StatusOr<data::StreamingWriteResult> wrote = data::WriteSyntheticBgcbin(
      data::PresetConfig(w.sampled.preset), seed, bgcbin_path);
  BGC_CHECK_MSG(wrote.ok(), wrote.status().message());
  in.bgcbin_path = bgcbin_path;
  return in;
}

OpResult RunOp(const Workload& w, const Inputs& in, uint64_t seed,
               Tracer* tracer) {
  return w.is_cell ? RunCell(w.cell, in, seed, tracer)
                   : RunSampled(w.sampled, in, seed, tracer);
}

bool ParsePins(const std::string& text, Pins* pins, std::string* error) {
  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string workload, field, value, extra;
    if (!(fields >> workload)) continue;
    if (!(fields >> field >> value) || (fields >> extra)) {
      *error = "line " + std::to_string(lineno) +
               ": want '<workload> <field> <value>'";
      return false;
    }
    if (FindWorkload(workload) == nullptr) {
      *error = "line " + std::to_string(lineno) + ": unknown workload " +
               workload;
      return false;
    }
    Record& r = (*pins)[workload];
    if (FindField(r, field) != nullptr) {
      *error = "line " + std::to_string(lineno) + ": " + workload + " " +
               field + " pinned twice";
      return false;
    }
    r.emplace_back(field, value);
  }
  return true;
}

std::vector<std::string> CheckRecord(const Workload& w, const Record& got,
                                     const Record* first,
                                     const Record* pinned) {
  std::vector<std::string> errors;
  if (first != nullptr) Compare(got, *first, "first op", &errors);
  if (pinned != nullptr) Compare(got, *pinned, "pinned", &errors);
  for (const auto& [field, floor] : w.floors) {
    const std::string* g = FindField(got, field);
    if (g == nullptr || !(std::strtod(g->c_str(), nullptr) >= floor)) {
      errors.push_back(field + ": " + (g != nullptr ? *g : "missing") +
                       " below floor " + Exact(floor));
    }
  }
  return errors;
}

}  // namespace bgc::pipebench
