// Validation of the recorded physical plans (the simulator's inputs).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "db/queries.h"
#include "tests/db/test_db.h"

namespace elastic::db {
namespace {

const Database& Db() { return testutil::TestDb(); }

TEST(QueryTraceTest, Q6TraceMirrorsMalPipeline) {
  const QueryOutput out = RunTpchQuery(Db(), 6);
  const PlanTrace& trace = out.trace;
  ASSERT_EQ(trace.stages.size(), 6u);
  // X_1 thetasubselect over the full quantity column.
  EXPECT_EQ(trace.stages[0].op, "select");
  EXPECT_EQ(trace.stages[0].inputs[0].base_column, "lineitem.l_quantity");
  EXPECT_EQ(trace.stages[0].inputs[0].rows, Db().lineitem.num_rows());
  EXPECT_TRUE(trace.stages[0].inputs[0].dense);
  // X_2 narrows X_1: candidate-driven, sparse access.
  EXPECT_EQ(trace.stages[1].inputs[0].base_column, "lineitem.l_shipdate");
  EXPECT_FALSE(trace.stages[1].inputs[0].dense);
  EXPECT_EQ(trace.stages[1].inputs[1].stage, 0);
  // Output cardinalities shrink monotonically through the selections.
  EXPECT_GE(trace.stages[0].rows_out, trace.stages[1].rows_out);
  EXPECT_GE(trace.stages[1].rows_out, trace.stages[2].rows_out);
  // Final aggregate emits one row.
  EXPECT_EQ(trace.stages.back().rows_out, 1);
}

TEST(QueryTraceTest, SelectivityKnobControlsThetaSubselect) {
  const Database& db = Db();
  const QueryOutput lo = RunThetaSubselect(db, 0.02);
  const QueryOutput hi = RunThetaSubselect(db, 0.64);
  const int64_t rows = db.lineitem.num_rows();
  const double lo_sel =
      static_cast<double>(lo.result.at(0, 0).i64()) / static_cast<double>(rows);
  const double hi_sel =
      static_cast<double>(hi.result.at(0, 0).i64()) / static_cast<double>(rows);
  EXPECT_NEAR(lo_sel, 0.02, 0.015);
  EXPECT_NEAR(hi_sel, 0.64, 0.03);
  // Output volume scales with selectivity.
  EXPECT_GT(hi.trace.stages[0].rows_out, lo.trace.stages[0].rows_out * 10);
}

TEST(QueryTraceTest, JoinQueriesRecordBuildAndProbe) {
  for (int q : {3, 5, 8, 10}) {
    const QueryOutput out = RunTpchQuery(Db(), q);
    bool has_build_or_probe = false;
    for (const TraceStage& s : out.trace.stages) {
      if (s.op == "join-build" || s.op == "join-probe") has_build_or_probe = true;
      EXPECT_GE(s.rows_out, 0);
      EXPECT_GT(s.cpu_weight, 0.0);
    }
    EXPECT_TRUE(has_build_or_probe) << "Q" << q;
  }
}

TEST(QueryTraceTest, StageInputReferencesAreWellFormed) {
  for (int q = 1; q <= 22; ++q) {
    const QueryOutput out = RunTpchQuery(Db(), q);
    for (size_t s = 0; s < out.trace.stages.size(); ++s) {
      for (const StageInput& in : out.trace.stages[s].inputs) {
        if (in.stage >= 0) {
          EXPECT_LT(in.stage, static_cast<int>(s)) << "Q" << q << " stage " << s;
        } else {
          EXPECT_FALSE(in.base_column.empty()) << "Q" << q << " stage " << s;
          // Base columns must exist: "table.column".
          const size_t dot = in.base_column.find('.');
          ASSERT_NE(dot, std::string::npos);
          const Table& table = Db().table(in.base_column.substr(0, dot));
          EXPECT_TRUE(table.has(in.base_column.substr(dot + 1)))
              << in.base_column;
        }
        EXPECT_GE(in.rows, 0);
      }
    }
  }
}

// Deterministic serialization of every PlanTrace field the simulator
// replays; cpu_weight goes in as its exact f64 bit pattern.
std::string SerializeTrace(const PlanTrace& trace) {
  std::string blob = trace.query + "#" + std::to_string(trace.stream) + "\n";
  for (const TraceStage& s : trace.stages) {
    uint64_t weight_bits;
    memcpy(&weight_bits, &s.cpu_weight, sizeof weight_bits);
    blob += s.op + "|" + std::to_string(s.rows_out) + "|" +
            std::to_string(s.out_width) + "|" + std::to_string(weight_bits);
    for (const StageInput& in : s.inputs) {
      blob += "<" + in.base_column + "|" + std::to_string(in.stage) + "|" +
              std::to_string(in.rows) + "|" + std::to_string(in.width) + "|" +
              (in.dense ? "d" : "s");
    }
    blob += '\n';
  }
  return blob;
}

// Plan-trace digests of all 22 queries (SF 0.01, seed 19920101). The
// simulator replays these plans, so an executor change must keep every
// stage's cardinalities, widths, weights and inputs; any intentional plan
// change must re-capture these.
TEST(QueryTraceTest, AllQueryTracesMatchRecordedDigests) {
  static const std::pair<int, uint64_t> kDigests[] = {
      {1, 0x16fc38b23fc3cf58ULL},  {2, 0xcc450ae3d69f83c2ULL},
      {3, 0x974797d2c392732aULL},  {4, 0xfda8655c1686ed94ULL},
      {5, 0xa54f8428310e220eULL},  {6, 0x5dcc744ce944f621ULL},
      {7, 0x4b7b31c47c5596d3ULL},  {8, 0x0562a69c7d6baabdULL},
      {9, 0x1724d2c39f025b9cULL},  {10, 0x4f269dd9a7872178ULL},
      {11, 0x0c668572aae73a73ULL}, {12, 0x3b024291c7c30059ULL},
      {13, 0xd63e1885031f9a01ULL}, {14, 0xfafb32c2d3187306ULL},
      {15, 0xb642bad5046b21d1ULL}, {16, 0xf31fc7b681257defULL},
      {17, 0xb809c6f93fc6e766ULL}, {18, 0xb8c1e54310245973ULL},
      {19, 0x5c7d5c9208b3d15dULL}, {20, 0xbc5be432bac5f287ULL},
      {21, 0x2bdd087205963475ULL}, {22, 0x2153eb1ecfc05503ULL},
  };
  for (const auto& [q, digest] : kDigests) {
    const uint64_t got =
        testutil::Fnv1a(SerializeTrace(RunTpchQuery(Db(), q).trace));
    EXPECT_EQ(got, digest) << "Q" << q << " trace digest 0x" << std::hex << got;
  }
}

TEST(QueryTraceTest, HeavyQueriesMoveMoreBytes) {
  // Q1 (full lineitem scan + wide aggregate) must read much more than the
  // tiny region-only portions of e.g. Q2's part filter output. Compare
  // against Q14 (one month of lineitem): Q1 reads strictly more.
  const int64_t q1 = RunTpchQuery(Db(), 1).trace.TotalBytesRead();
  const int64_t q14 = RunTpchQuery(Db(), 14).trace.TotalBytesRead();
  EXPECT_GT(q1, q14);
}

}  // namespace
}  // namespace elastic::db
