// TPC-H Q11..Q15.

#include <algorithm>
#include <unordered_map>

#include "db/queries/common.h"

namespace elastic::db::queries_internal {

// Q11: important stock identification (GERMANY).
QueryOutput Q11(const Database& db) {
  PlanRecorder rec("Q11", 10);
  const Table& PS = db.partsupp;
  const Table& S = db.supplier;
  const Table& N = db.nation;

  const auto& n_name = N.str("n_name");
  int64_t germany = -1;
  for (int64_t i = 0; i < N.num_rows(); ++i) {
    if (n_name[static_cast<size_t>(i)] == "GERMANY") germany = i;
  }

  const auto& s_nation = S.i64("s_nationkey");
  SelVec s_sel = SelectWhere(s_nation, [germany](int64_t nk) { return nk == germany; });
  const int st_supp = RecordSelect(&rec, "supplier.s_nationkey", S.num_rows(),
                                   static_cast<int64_t>(s_sel.size()));
  const auto& s_suppkey = S.i64("s_suppkey");
  std::vector<bool> supp_ok(static_cast<size_t>(S.num_rows()) + 1, false);
  for (int64_t row : s_sel) {
    supp_ok[static_cast<size_t>(s_suppkey[static_cast<size_t>(row)])] = true;
  }

  const auto& ps_supp = PS.i64("ps_suppkey");
  const auto& ps_part = PS.i64("ps_partkey");
  const auto& ps_cost = PS.f64("ps_supplycost");
  const auto& ps_qty = PS.i64("ps_availqty");
  SelVec ps_sel = SelectWhere(ps_supp, [&supp_ok](int64_t sk) {
    return supp_ok[static_cast<size_t>(sk)];
  });
  RecordJoinProbe(&rec,
                  {PlanRecorder::Base("partsupp.ps_suppkey", PS.num_rows()),
                   PlanRecorder::Inter(st_supp, static_cast<int64_t>(s_sel.size()))},
                  static_cast<int64_t>(ps_sel.size()));

  std::vector<int64_t> part_key;
  std::vector<double> value;
  for (int64_t row : ps_sel) {
    const size_t k = static_cast<size_t>(row);
    part_key.push_back(ps_part[k]);
    value.push_back(ps_cost[k] * static_cast<double>(ps_qty[k]));
  }
  Grouper grouper;
  grouper.AddI64Key(part_key);
  grouper.Finish();
  auto sums = SumPerGroup(value, grouper.group_of(), grouper.num_groups());
  RecordGroup(&rec,
              {PlanRecorder::Base("partsupp.ps_supplycost",
                                  static_cast<int64_t>(value.size()), 8, false)},
              static_cast<int64_t>(value.size()), grouper.num_groups());

  // HAVING value > fraction * total, fraction = 0.0001 / SF.
  const double total = Sum(sums);
  const double fraction = 0.0001 / std::max(db.scale_factor, 1e-6);
  const double cutoff = total * std::min(fraction, 0.5);

  QueryResult result;
  result.query = "Q11";
  result.column_names = {"ps_partkey", "value"};
  for (int64_t g = 0; g < grouper.num_groups(); ++g) {
    const double v = sums[static_cast<size_t>(g)];
    if (v > cutoff) {
      result.rows.push_back({Value::I64(grouper.I64KeyOfGroup(0, g)), Value::F64(v)});
    }
  }
  result.Sort({{1, false}});
  return QueryOutput{std::move(result), rec.Take()};
}

// Q12: shipping modes and order priority (MAIL, SHIP in 1994).
QueryOutput Q12(const Database& db) {
  PlanRecorder rec("Q12", 11);
  const Table& L = db.lineitem;
  const Table& O = db.orders;
  const Date from = MakeDate(1994, 1, 1);
  const Date to = AddYears(from, 1);

  const CodedStrings& mode = L.coded("l_shipmode");
  const auto& commit = L.i64("l_commitdate");
  const auto& receipt = L.i64("l_receiptdate");
  const auto& shipd = L.i64("l_shipdate");

  const CodeSet mail_or_ship = mode.Match(
      [](const std::string& m) { return m == "MAIL" || m == "SHIP"; });
  SelVec sel = SelectWhere(
      mode.codes, [&mail_or_ship](uint8_t c) { return mail_or_ship[c]; });
  const int st_mode = RecordSelect(&rec, "lineitem.l_shipmode", L.num_rows(),
                                   static_cast<int64_t>(sel.size()));
  sel = Refine(receipt, sel, [from, to](int64_t d) { return d >= from && d < to; });
  // The remaining predicates are correlated (commit < receipt, ship <
  // commit): one fused index-based refinement over the candidate list.
  const int64_t* commit_p = commit.data();
  const int64_t* receipt_p = receipt.data();
  const int64_t* shipd_p = shipd.data();
  SelVec final_sel =
      kernels::RefineIdx(sel, [commit_p, receipt_p, shipd_p](int64_t row) {
        return commit_p[row] < receipt_p[row] && shipd_p[row] < commit_p[row];
      });
  const int st_dates = RecordSelect(&rec, "lineitem.l_receiptdate", L.num_rows(),
                                    static_cast<int64_t>(final_sel.size()));
  (void)st_mode;

  // High- and low-priority lines counted per ship mode code; a group is a
  // mode that counted a line.
  const auto& l_order = L.i64("l_orderkey");
  const CodedStrings& prio = O.coded("o_orderpriority");
  const CodeSet urgent_or_high = prio.Match(
      [](const std::string& p) { return p == "1-URGENT" || p == "2-HIGH"; });
  std::vector<int64_t> high(mode.dict.size(), 0);
  std::vector<int64_t> low(mode.dict.size(), 0);
  for (int64_t row : final_sel) {
    const size_t k = static_cast<size_t>(row);
    const size_t orow = static_cast<size_t>(l_order[k] - 1);
    (urgent_or_high[prio.codes[orow]] ? high : low)[mode.codes[k]]++;
  }
  RecordJoinProbe(&rec,
                  {PlanRecorder::Base("orders.o_orderpriority",
                                      static_cast<int64_t>(final_sel.size()), 8, false),
                   PlanRecorder::Inter(st_dates, static_cast<int64_t>(final_sel.size()))},
                  static_cast<int64_t>(final_sel.size()));

  int64_t groups = 0;
  for (size_t code = 0; code < high.size(); ++code) {
    groups += high[code] + low[code] > 0 ? 1 : 0;
  }
  RecordGroup(&rec,
              {PlanRecorder::Base("lineitem.l_shipmode",
                                  static_cast<int64_t>(final_sel.size()), 8, false)},
              static_cast<int64_t>(final_sel.size()), groups);

  QueryResult result;
  result.query = "Q12";
  result.column_names = {"l_shipmode", "high_line_count", "low_line_count"};
  for (size_t code = 0; code < high.size(); ++code) {
    if (high[code] + low[code] == 0) continue;
    result.rows.push_back({Value::Str(mode.dict[code]), Value::I64(high[code]),
                           Value::I64(low[code])});
  }
  result.Sort({{0, true}});
  return QueryOutput{std::move(result), rec.Take()};
}

// Q13: customer distribution by order count (excluding special requests).
QueryOutput Q13(const Database& db) {
  PlanRecorder rec("Q13", 12);
  const Table& C = db.customer;
  const Table& O = db.orders;

  // NOT LIKE '%special%requests%': one sweep over the comment heap finds
  // the orders that match, and the rest are kept.
  const SelVec special =
      LikeSeqRows(O.str("o_comment"), {"special", "requests"});
  const int64_t kept = O.num_rows() - static_cast<int64_t>(special.size());
  const int st_ord = RecordSelect(&rec, "orders.o_comment", O.num_rows(), kept);

  // Kept orders per customer (left join: customers with no orders count
  // 0): every order counts, then each matching one is taken back.
  std::vector<int64_t> per_customer(static_cast<size_t>(C.num_rows()), 0);
  const auto& o_cust = O.i64("o_custkey");
  for (const int64_t custkey : o_cust) {
    per_customer[static_cast<size_t>(custkey - 1)]++;
  }
  for (int64_t row : special) {
    per_customer[static_cast<size_t>(o_cust[static_cast<size_t>(row)] - 1)]--;
  }
  RecordGroup(&rec,
              {PlanRecorder::Base("orders.o_custkey", kept, 8, false),
               PlanRecorder::Inter(st_ord, kept)},
              kept, C.num_rows());

  // Distribution: how many customers have k orders.
  std::unordered_map<int64_t, int64_t> distribution;
  for (int64_t count : per_customer) distribution[count]++;
  TraceStage st_dist;
  st_dist.op = "group";
  st_dist.inputs = {PlanRecorder::Inter(1, C.num_rows())};
  st_dist.rows_out = static_cast<int64_t>(distribution.size());
  st_dist.cpu_weight = 2.0;
  rec.AddStage(std::move(st_dist));

  QueryResult result;
  result.query = "Q13";
  result.column_names = {"c_count", "custdist"};
  for (const auto& [count, customers] : distribution) {
    result.rows.push_back({Value::I64(count), Value::I64(customers)});
  }
  result.Sort({{1, false}, {0, false}});
  return QueryOutput{std::move(result), rec.Take()};
}

// Q14: promotion effect (September 1995).
QueryOutput Q14(const Database& db) {
  PlanRecorder rec("Q14", 13);
  const Table& L = db.lineitem;
  const Table& P = db.part;
  const Date from = MakeDate(1995, 9, 1);
  const Date to = AddMonths(from, 1);

  const auto& ship = L.i64("l_shipdate");
  SelVec sel = SelectWhere(
      ship, [from, to](int64_t d) { return d >= from && d < to; });
  const int st_line = RecordSelect(&rec, "lineitem.l_shipdate", L.num_rows(),
                                   static_cast<int64_t>(sel.size()));

  const auto& l_part = L.i64("l_partkey");
  const CodedStrings& type = P.coded("p_type");
  const CodeSet promo_type =
      type.Match([](const std::string& t) { return LikeStartsWith(t, "PROMO"); });
  const auto& ext = L.f64("l_extendedprice");
  const auto& disc = L.f64("l_discount");
  double promo = 0.0;
  double total = 0.0;
  for (int64_t row : sel) {
    const size_t k = static_cast<size_t>(row);
    const size_t prow = static_cast<size_t>(l_part[k] - 1);
    const double v = ext[k] * (1.0 - disc[k]);
    total += v;
    if (promo_type[type.codes[prow]]) promo += v;
  }
  RecordJoinProbe(&rec,
                  {PlanRecorder::Base("part.p_type",
                                      static_cast<int64_t>(sel.size()), 8, false),
                   PlanRecorder::Inter(st_line, static_cast<int64_t>(sel.size()))},
                  static_cast<int64_t>(sel.size()));

  QueryResult result;
  result.query = "Q14";
  result.column_names = {"promo_revenue"};
  result.rows.push_back(
      {Value::F64(total > 0.0 ? 100.0 * promo / total : 0.0)});
  return QueryOutput{std::move(result), rec.Take()};
}

// Q15: top supplier by revenue (Q1 1996). The view is inlined.
QueryOutput Q15(const Database& db) {
  PlanRecorder rec("Q15", 14);
  const Table& L = db.lineitem;
  const Table& S = db.supplier;
  const Date from = MakeDate(1996, 1, 1);
  const Date to = AddMonths(from, 3);

  const auto& ship = L.i64("l_shipdate");
  SelVec sel = SelectWhere(
      ship, [from, to](int64_t d) { return d >= from && d < to; });
  const int st_line = RecordSelect(&rec, "lineitem.l_shipdate", L.num_rows(),
                                   static_cast<int64_t>(sel.size()));

  const auto& l_supp = L.i64("l_suppkey");
  const auto& ext = L.f64("l_extendedprice");
  const auto& disc = L.f64("l_discount");
  std::vector<int64_t> supp_key;
  std::vector<double> revenue;
  for (int64_t row : sel) {
    const size_t k = static_cast<size_t>(row);
    supp_key.push_back(l_supp[k]);
    revenue.push_back(ext[k] * (1.0 - disc[k]));
  }
  Grouper grouper;
  grouper.AddI64Key(supp_key);
  grouper.Finish();
  auto sums = SumPerGroup(revenue, grouper.group_of(), grouper.num_groups());
  RecordGroup(&rec,
              {PlanRecorder::Base("lineitem.l_suppkey",
                                  static_cast<int64_t>(sel.size()), 8, false),
               PlanRecorder::Inter(st_line, static_cast<int64_t>(sel.size()))},
              static_cast<int64_t>(sel.size()), grouper.num_groups());

  double max_revenue = 0.0;
  for (double v : sums) max_revenue = std::max(max_revenue, v);

  const auto& s_name = S.str("s_name");
  const auto& s_address = S.str("s_address");
  const auto& s_phone = S.str("s_phone");
  QueryResult result;
  result.query = "Q15";
  result.column_names = {"s_suppkey", "s_name", "s_address", "s_phone",
                         "total_revenue"};
  for (int64_t g = 0; g < grouper.num_groups(); ++g) {
    const double v = sums[static_cast<size_t>(g)];
    if (v >= max_revenue - 1e-6) {
      const int64_t suppkey = grouper.I64KeyOfGroup(0, g);
      const size_t srow = static_cast<size_t>(suppkey - 1);
      result.rows.push_back(
          {Value::I64(suppkey), Value::Str(s_name[srow]),
           Value::Str(s_address[srow]), Value::Str(s_phone[srow]),
           Value::F64(v)});
    }
  }
  result.Sort({{0, true}});
  return QueryOutput{std::move(result), rec.Take()};
}

}  // namespace elastic::db::queries_internal
