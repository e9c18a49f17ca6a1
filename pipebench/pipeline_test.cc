// The benchmark's own tests:
//  - the decomposed, span-wrapped cell reproduces eval::RunOnce bit for
//    bit on golden_metrics_test's tiny spec;
//  - the record check flags an altered pin, a drifting op and a floor
//    violation, naming the field;
//  - pins.txt parses and pins every workload with the fields its ops
//    produce.

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "pipebench/pipeline.h"

namespace bgc::pipebench {
namespace {

// golden_metrics_test's TinySpec: every stage runs, briefly.
Workload TinyCell() {
  Workload w;
  w.name = "tiny";
  w.cell.dataset = "cora-sim";
  w.cell.dataset_scale = 0.25;
  w.cell.seed = 7;
  w.cell.repeats = 1;
  w.cell.method = "gcond";
  w.cell.attack = "bgc";
  w.cell.condense.num_condensed = 14;
  w.cell.condense.epochs = 4;
  w.cell.attack_cfg.selector_epochs = 10;
  w.cell.attack_cfg.surrogate_steps = 8;
  w.cell.attack_cfg.update_batch = 8;
  w.cell.victim.epochs = 30;
  w.floors = {{"asr", 0.8}};
  return w;
}

double Field(const Record& r, const std::string& field) {
  for (const auto& [name, value] : r) {
    if (name == field) return std::strtod(value.c_str(), nullptr);
  }
  ADD_FAILURE() << "record has no field " << field;
  return -1.0;
}

class TinyCellTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Workload w = TinyCell();
    const Inputs in = pipebench::Setup(w, 7, "", nullptr);
    record_ = new Record(RunOp(w, in, 7, nullptr).record);
  }
  static void TearDownTestSuite() {
    delete record_;
    record_ = nullptr;
  }
  static Record* record_;
};

Record* TinyCellTest::record_ = nullptr;

TEST_F(TinyCellTest, MatchesRunOnceBitForBit) {
  const eval::RepeatResult rr = eval::RunOnce(TinyCell().cell, 7);
  ASSERT_TRUE(rr.has_clean);
  EXPECT_EQ(Field(*record_, "cta"), rr.backdoor.cta);
  EXPECT_EQ(Field(*record_, "asr"), rr.backdoor.asr);
  EXPECT_EQ(Field(*record_, "c_cta"), rr.clean.cta);
  EXPECT_EQ(Field(*record_, "c_asr"), rr.clean.asr);
}

TEST_F(TinyCellTest, SpansLeaveTheRecordUnchangedAndNestAsDocumented) {
  const Workload w = TinyCell();
  const Inputs in = pipebench::Setup(w, 7, "", nullptr);
  Tracer tracer;
  const Record traced = RunOp(w, in, 7, &tracer).record;
  EXPECT_EQ(traced, *record_);

  std::vector<std::string> top;
  int epochs = 0, clean_epochs = 0;
  for (const Span& s : tracer.spans()) {
    EXPECT_LE(s.start_ns, s.end_ns) << s.name;
    if (s.parent < 0) top.push_back(s.name);
    epochs += s.name == "condense.epoch";
    clean_epochs += s.name == "condense.clean_epoch";
  }
  const std::vector<std::string> want = {
      "attack",         "victim.train",       "eval.victim",
      "condense.clean", "victim.train_clean", "eval.clean"};
  EXPECT_EQ(top, want);
  EXPECT_EQ(epochs, w.cell.condense.epochs);
  EXPECT_EQ(clean_epochs, w.cell.condense.epochs);
}

std::string PinText(const Record& r) {
  std::string text = "# pinned\n";
  for (const auto& [field, value] : r) {
    text += "cora-gcond-bgc " + field + " " + value + "\n";
  }
  return text;
}

TEST_F(TinyCellTest, RecordCheckPassesOnItsOwnPin) {
  Pins pins;
  std::string error;
  ASSERT_TRUE(ParsePins(PinText(*record_), &pins, &error)) << error;
  EXPECT_TRUE(
      CheckRecord(TinyCell(), *record_, record_, &pins["cora-gcond-bgc"])
          .empty());
}

TEST_F(TinyCellTest, AlteredPinIsReportedAndNamed) {
  Record altered = *record_;
  for (auto& [field, value] : altered) {
    if (field == "c_cta") value += "1";
  }
  Pins pins;
  std::string error;
  ASSERT_TRUE(ParsePins(PinText(altered), &pins, &error)) << error;
  const std::vector<std::string> errors =
      CheckRecord(TinyCell(), *record_, nullptr, &pins["cora-gcond-bgc"]);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].rfind("c_cta: ", 0), 0u) << errors[0];
}

TEST_F(TinyCellTest, DriftFromFirstOpAndFloorViolationsAreReported) {
  Record drifted = *record_;
  for (auto& [field, value] : drifted) {
    if (field == "condensed_fnv") value = "0000000000000000";
    if (field == "asr") value = "0.5";
  }
  const std::vector<std::string> errors =
      CheckRecord(TinyCell(), drifted, record_, nullptr);
  std::set<std::string> fields;
  for (const std::string& e : errors) fields.insert(e.substr(0, e.find(':')));
  EXPECT_EQ(fields, (std::set<std::string>{"asr", "condensed_fnv"}));
  EXPECT_EQ(errors.size(), 3u);  // two drifts + the asr floor
}

TEST(PinsTest, MalformedLinesAreRejected) {
  Pins pins;
  std::string error;
  EXPECT_FALSE(ParsePins("cora-gcond-bgc cta\n", &pins, &error));
  EXPECT_FALSE(ParsePins("no-such-workload cta 1\n", &pins, &error));
  EXPECT_FALSE(ParsePins("cora-gcond-bgc cta 1\ncora-gcond-bgc cta 1\n",
                         &pins, &error));
  EXPECT_NE(error.find("pinned twice"), std::string::npos) << error;
}

TEST(PinsTest, CommittedPinsCoverEveryWorkload) {
  std::ifstream file(std::string(PIPEBENCH_DIR) + "/pins.txt");
  ASSERT_TRUE(file) << "cannot open pins.txt";
  std::stringstream text;
  text << file.rdbuf();
  Pins pins;
  std::string error;
  ASSERT_TRUE(ParsePins(text.str(), &pins, &error)) << error;
  const std::set<std::string> cell = {"cta",   "asr",           "c_cta",
                                      "c_asr", "condensed_fnv", "poisoned_fnv"};
  const std::set<std::string> sampled = {"loss", "test_acc", "weights_fnv"};
  for (const Workload& w : Workloads()) {
    ASSERT_EQ(pins.count(w.name), 1u) << w.name;
    std::set<std::string> fields;
    for (const auto& [field, value] : pins[w.name]) fields.insert(field);
    EXPECT_EQ(fields, w.is_cell ? cell : sampled) << w.name;
    // The pinned record itself passes the seed-independent floors.
    EXPECT_TRUE(CheckRecord(w, pins[w.name], nullptr, nullptr).empty())
        << w.name;
  }
}

}  // namespace
}  // namespace bgc::pipebench
