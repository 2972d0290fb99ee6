// TPC-H Q20..Q22.

#include <functional>
#include <set>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "db/queries/common.h"

namespace elastic::db::queries_internal {

// Q20: potential part promotion — suppliers in CANADA with surplus 'forest%'
// stock relative to 1994 shipments.
QueryOutput Q20(const Database& db) {
  PlanRecorder rec("Q20", 19);
  const Table& P = db.part;
  const Table& PS = db.partsupp;
  const Table& L = db.lineitem;
  const Table& S = db.supplier;
  const Table& N = db.nation;
  const Date from = MakeDate(1994, 1, 1);
  const Date to = AddYears(from, 1);

  // The 'forest%' parts as a key set: the selection sets each one's bit.
  const StringHeap& p_name = P.str("p_name");
  HashJoin forest_parts;
  const int64_t forest = forest_parts.BuildKeySet(
      P.i64("p_partkey"), [&p_name](int64_t i) {
        return LikeStartsWith(p_name[static_cast<size_t>(i)], "forest");
      });
  const int st_part = RecordSelect(&rec, "part.p_name", P.num_rows(), forest);

  // Shipped quantity per (part, supplier) during 1994.
  const auto& ship = L.i64("l_shipdate");
  const auto& l_part = L.i64("l_partkey");
  const auto& l_supp = L.i64("l_suppkey");
  const auto& qty = L.f64("l_quantity");
  std::unordered_map<int64_t, double> shipped;  // (part << 24 | supp) -> qty
  SelVec l_sel = SelectWhere(
      ship, [from, to](int64_t d) { return d >= from && d < to; });
  const int st_line = RecordSelect(&rec, "lineitem.l_shipdate", L.num_rows(),
                                   static_cast<int64_t>(l_sel.size()));
  int64_t probed = 0;
  for (int64_t row : l_sel) {
    const size_t k = static_cast<size_t>(row);
    if (!forest_parts.Contains(l_part[k])) continue;
    probed++;
    shipped[(l_part[k] << 24) | l_supp[k]] += qty[k];
  }
  RecordJoinProbe(&rec,
                  {PlanRecorder::Base("lineitem.l_partkey",
                                      static_cast<int64_t>(l_sel.size()), 8, false),
                   PlanRecorder::Inter(st_line, static_cast<int64_t>(l_sel.size())),
                   PlanRecorder::Inter(st_part, forest)},
                  probed);

  // Suppliers whose availqty > 0.5 * shipped quantity for some forest part.
  const auto& ps_part = PS.i64("ps_partkey");
  const auto& ps_supp = PS.i64("ps_suppkey");
  const auto& availqty = PS.i64("ps_availqty");
  std::unordered_set<int64_t> qualifying_suppliers;
  int64_t scanned_pairs = 0;
  for (int64_t i = 0; i < PS.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    if (!forest_parts.Contains(ps_part[k])) continue;
    scanned_pairs++;
    auto it = shipped.find((ps_part[k] << 24) | ps_supp[k]);
    const double threshold = it == shipped.end() ? 0.0 : 0.5 * it->second;
    if (static_cast<double>(availqty[k]) > threshold && it != shipped.end()) {
      qualifying_suppliers.insert(ps_supp[k]);
    }
  }
  RecordJoinProbe(&rec,
                  {PlanRecorder::Base("partsupp.ps_availqty", PS.num_rows()),
                   PlanRecorder::Inter(2, probed)},
                  scanned_pairs);

  const auto& n_name = N.str("n_name");
  int64_t canada = -1;
  for (int64_t i = 0; i < N.num_rows(); ++i) {
    if (n_name[static_cast<size_t>(i)] == "CANADA") canada = i;
  }

  QueryResult result;
  result.query = "Q20";
  result.column_names = {"s_name", "s_address"};
  const auto& s_nation = S.i64("s_nationkey");
  const auto& s_suppkey = S.i64("s_suppkey");
  const auto& s_name = S.str("s_name");
  const auto& s_address = S.str("s_address");
  for (int64_t i = 0; i < S.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    if (s_nation[k] != canada) continue;
    if (qualifying_suppliers.find(s_suppkey[k]) == qualifying_suppliers.end()) {
      continue;
    }
    result.rows.push_back({Value::Str(s_name[k]), Value::Str(s_address[k])});
  }
  RecordSelect(&rec, "supplier.s_nationkey", S.num_rows(), result.num_rows());
  result.Sort({{0, true}});
  return QueryOutput{std::move(result), rec.Take()};
}

// Q21: suppliers (SAUDI ARABIA) who kept multi-supplier 'F' orders waiting.
QueryOutput Q21(const Database& db) {
  PlanRecorder rec("Q21", 20);
  const Table& L = db.lineitem;
  const Table& O = db.orders;
  const Table& S = db.supplier;
  const Table& N = db.nation;

  const auto& n_name = N.str("n_name");
  int64_t saudi = -1;
  for (int64_t i = 0; i < N.num_rows(); ++i) {
    if (n_name[static_cast<size_t>(i)] == "SAUDI ARABIA") saudi = i;
  }

  // Per order: its first supplier and its first late supplier
  // (receiptdate > commitdate), plus whether a second distinct one of each
  // showed up. That is all the predicates need ("another supplier exists",
  // "exactly one supplier was late"), so the state is one flat array
  // indexed by the dense orderkey; suppkey 0 means "none yet".
  const auto& l_order = L.i64("l_orderkey");
  const auto& l_supp = L.i64("l_suppkey");
  const auto& commit = L.i64("l_commitdate");
  const auto& receipt = L.i64("l_receiptdate");
  struct OrderSuppliers {
    int64_t first = 0;
    int64_t first_late = 0;
    bool second = false;
    bool second_late = false;
  };
  std::vector<OrderSuppliers> orders_info(
      static_cast<size_t>(O.num_rows()) + 1);
  int64_t distinct_orders = 0;
  for (int64_t i = 0; i < L.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    OrderSuppliers& info = orders_info[static_cast<size_t>(l_order[k])];
    const int64_t supp = l_supp[k];
    if (info.first == 0) {
      info.first = supp;
      distinct_orders++;
    } else if (info.first != supp) {
      info.second = true;
    }
    if (receipt[k] > commit[k]) {
      if (info.first_late == 0) {
        info.first_late = supp;
      } else if (info.first_late != supp) {
        info.second_late = true;
      }
    }
  }
  RecordGroup(&rec, {PlanRecorder::Base("lineitem.l_orderkey", L.num_rows()),
                     PlanRecorder::Base("lineitem.l_suppkey", L.num_rows()),
                     PlanRecorder::Base("lineitem.l_receiptdate", L.num_rows()),
                     PlanRecorder::Base("lineitem.l_commitdate", L.num_rows())},
              L.num_rows(), distinct_orders);

  const CodedStrings& status = O.coded("o_orderstatus");
  const CodeSet finished =
      status.Match([](const std::string& s) { return s == "F"; });
  const auto& s_nation = S.i64("s_nationkey");
  std::vector<int64_t> waiting_count(static_cast<size_t>(S.num_rows()) + 1, 0);
  int64_t scanned = 0;
  for (int64_t orderkey = 1; orderkey <= O.num_rows(); ++orderkey) {
    const OrderSuppliers& info = orders_info[static_cast<size_t>(orderkey)];
    if (info.first == 0) continue;  // no lineitems
    if (!finished[status.codes[static_cast<size_t>(orderkey - 1)]]) continue;
    if (!info.second) continue;  // exists another supplier
    if (info.first_late == 0 || info.second_late) continue;  // only one failed
    scanned++;
    const int64_t suppkey = info.first_late;
    if (s_nation[static_cast<size_t>(suppkey - 1)] != saudi) continue;
    waiting_count[static_cast<size_t>(suppkey)]++;
  }
  RecordJoinProbe(&rec,
                  {PlanRecorder::Base("orders.o_orderstatus", O.num_rows()),
                   PlanRecorder::Inter(0, distinct_orders)},
                  scanned);

  const auto& s_name = S.str("s_name");
  QueryResult result;
  result.query = "Q21";
  result.column_names = {"s_name", "numwait"};
  for (int64_t suppkey = 1; suppkey <= S.num_rows(); ++suppkey) {
    const int64_t count = waiting_count[static_cast<size_t>(suppkey)];
    if (count == 0) continue;
    result.rows.push_back(
        {Value::Str(s_name[static_cast<size_t>(suppkey - 1)]), Value::I64(count)});
  }
  RecordGroup(&rec, {PlanRecorder::Inter(1, scanned)}, scanned,
              result.num_rows());
  result.Sort({{1, false}, {0, true}});
  result.Limit(100);
  return QueryOutput{std::move(result), rec.Take()};
}

// Q22: global sales opportunity — well-funded customers with no orders.
QueryOutput Q22(const Database& db) {
  PlanRecorder rec("Q22", 21);
  const Table& C = db.customer;
  const Table& O = db.orders;

  static const std::set<std::string, std::less<>> kCodes = {
      "13", "31", "23", "29", "30", "18", "17"};
  const auto& phone = C.str("c_phone");
  const auto& acctbal = C.f64("c_acctbal");

  // avg(c_acctbal) over positive balances in the code set: a chunked
  // selection pass materialises the candidate list (MAL select ->
  // aggregate shape), then the aggregate runs over the selection vector.
  SelVec funded = kernels::SelectWhereIdx(C.num_rows(), [&](int64_t i) {
    const size_t k = static_cast<size_t>(i);
    return acctbal[k] > 0.0 &&
           kCodes.find(SqlSubstring(phone[k], 1, 2)) != kCodes.end();
  });
  double sum = 0.0;
  for (int64_t row : funded) sum += acctbal[static_cast<size_t>(row)];
  const int64_t count = static_cast<int64_t>(funded.size());
  const double avg = count > 0 ? sum / static_cast<double>(count) : 0.0;
  RecordSelect(&rec, "customer.c_phone", C.num_rows(), count);

  // Customers with no orders at all.
  std::vector<bool> has_orders(static_cast<size_t>(C.num_rows()) + 1, false);
  const auto& o_cust = O.i64("o_custkey");
  for (int64_t i = 0; i < O.num_rows(); ++i) {
    has_orders[static_cast<size_t>(o_cust[static_cast<size_t>(i)])] = true;
  }
  RecordJoinBuild(&rec, {PlanRecorder::Base("orders.o_custkey", O.num_rows())},
                  O.num_rows());

  const auto& c_custkey = C.i64("c_custkey");
  std::unordered_map<std::string, std::pair<int64_t, double>> groups;
  int64_t matched = 0;
  for (int64_t i = 0; i < C.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    const std::string_view code = SqlSubstring(phone[k], 1, 2);
    if (kCodes.find(code) == kCodes.end()) continue;
    if (acctbal[k] <= avg) continue;
    if (has_orders[static_cast<size_t>(c_custkey[k])]) continue;
    matched++;
    auto& entry = groups[std::string(code)];
    entry.first++;
    entry.second += acctbal[k];
  }
  RecordJoinProbe(&rec,
                  {PlanRecorder::Base("customer.c_acctbal", C.num_rows()),
                   PlanRecorder::Inter(1, C.num_rows())},
                  matched);
  RecordGroup(&rec, {PlanRecorder::Inter(2, matched)}, matched,
              static_cast<int64_t>(groups.size()));

  QueryResult result;
  result.query = "Q22";
  result.column_names = {"cntrycode", "numcust", "totacctbal"};
  for (const auto& [code, entry] : groups) {
    result.rows.push_back(
        {Value::Str(code), Value::I64(entry.first), Value::F64(entry.second)});
  }
  result.Sort({{0, true}});
  return QueryOutput{std::move(result), rec.Take()};
}

}  // namespace elastic::db::queries_internal
