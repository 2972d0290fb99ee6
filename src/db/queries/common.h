#ifndef ELASTICORE_DB_QUERIES_COMMON_H_
#define ELASTICORE_DB_QUERIES_COMMON_H_

// Internal helpers shared by the TPC-H query implementations. Not part of
// the public API.

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "db/column.h"
#include "db/date.h"
#include "db/kernels/select.h"
#include "db/like.h"
#include "db/operators.h"
#include "db/plan_trace.h"
#include "db/queries.h"
#include "db/result.h"

namespace elastic::db::queries_internal {

/// Declarations of the per-query entry points (defined across the
/// queries/qXX_*.cc files; dispatched from queries.cc).
QueryOutput Q1(const Database& db);
QueryOutput Q2(const Database& db);
QueryOutput Q3(const Database& db);
QueryOutput Q4(const Database& db);
QueryOutput Q5(const Database& db);
QueryOutput Q6(const Database& db);
QueryOutput Q7(const Database& db);
QueryOutput Q8(const Database& db);
QueryOutput Q9(const Database& db);
QueryOutput Q10(const Database& db);
QueryOutput Q11(const Database& db);
QueryOutput Q12(const Database& db);
QueryOutput Q13(const Database& db);
QueryOutput Q14(const Database& db);
QueryOutput Q15(const Database& db);
QueryOutput Q16(const Database& db);
QueryOutput Q17(const Database& db);
QueryOutput Q18(const Database& db);
QueryOutput Q19(const Database& db);
QueryOutput Q20(const Database& db);
QueryOutput Q21(const Database& db);
QueryOutput Q22(const Database& db);

/// Records a base-column selection stage.
int RecordSelect(PlanRecorder* rec, const std::string& column, int64_t rows_in,
                 int64_t rows_out);

/// Records a positional projection stage over a base column.
int RecordProject(PlanRecorder* rec, const std::string& column,
                  int64_t rows_touched, int sel_stage, int64_t rows_out);

/// Records a hash-build stage fed by `rows` build-side rows.
int RecordJoinBuild(PlanRecorder* rec, const std::vector<StageInput>& inputs,
                    int64_t rows);

/// Records a probe stage producing `pairs` matches.
int RecordJoinProbe(PlanRecorder* rec, const std::vector<StageInput>& inputs,
                    int64_t pairs);

/// Records a group/aggregate stage.
int RecordGroup(PlanRecorder* rec, const std::vector<StageInput>& inputs,
                int64_t rows_in, int64_t groups);

/// ORDER BY ... LIMIT `limit` over groups [0, groups), decided before any
/// result row is built: the first `limit` groups in the order `before`
/// gives (a strict weak order on the ORDER BY keys), ties in group order.
/// Those are the rows, in that order, that a stable sort of every group's
/// row by the same keys followed by the LIMIT keeps.
template <typename Before>
std::vector<int64_t> TopGroups(int64_t groups, int64_t limit, Before before) {
  std::vector<int64_t> order(static_cast<size_t>(groups));
  std::iota(order.begin(), order.end(), int64_t{0});
  const auto kept = order.begin() + std::min(groups, limit);
  std::partial_sort(order.begin(), kept, order.end(),
                    [&before](int64_t a, int64_t b) {
                      if (before(a, b)) return true;
                      if (before(b, a)) return false;
                      return a < b;
                    });
  order.erase(kept, order.end());
  return order;
}

}  // namespace elastic::db::queries_internal

#endif  // ELASTICORE_DB_QUERIES_COMMON_H_
