// TPC-H Q6..Q10, the paper's Q6 variant, and the thetasubselect
// microbenchmark used throughout the paper's Section V-A.

#include <cmath>

#include "db/queries/common.h"
#include "simcore/check.h"

namespace elastic::db::queries_internal {

namespace {

/// Shared Q6 pipeline following the MAL plan of the paper's Figure 3:
/// thetasubselect(quantity) -> subselect(shipdate) -> subselect(discount)
/// -> two projections -> multiply -> sum.
QueryOutput Q6Pipeline(const Database& db, const char* name, Date from, Date to,
                       double disc_lo, double disc_hi, double max_qty) {
  PlanRecorder rec(name, 5);
  const Table& L = db.lineitem;
  const auto& qty = L.f64("l_quantity");
  const auto& ship = L.i64("l_shipdate");
  const auto& disc = L.f64("l_discount");
  const auto& ext = L.f64("l_extendedprice");

  // X_1..X_3 := thetasubselect(l_quantity) -> subselect(l_shipdate) ->
  // subselect(l_discount), fused into one branch-light pass. The kernel
  // reports the cardinality after each predicate so the recorded plan keeps
  // the three MAL stages of Figure 3 with their true intermediate sizes.
  const double* q = qty.data();
  const int64_t* s = ship.data();
  const double* d = disc.data();
  kernels::Fused3Result fused = kernels::FusedSelect3(
      L.num_rows(),
      [q, max_qty](int64_t i) { return q[i] < max_qty; },
      [s, from, to](int64_t i) { return s[i] >= from && s[i] < to; },
      [d, disc_lo, disc_hi](int64_t i) {
        return d[i] >= disc_lo - 1e-9 && d[i] <= disc_hi + 1e-9;
      });
  const int s1 = RecordSelect(&rec, "lineitem.l_quantity", L.num_rows(),
                              fused.rows_after_p1);
  TraceStage st2;
  st2.op = "select";
  st2.inputs = {PlanRecorder::Base("lineitem.l_shipdate",
                                   fused.rows_after_p1, 8, false),
                PlanRecorder::Inter(s1, fused.rows_after_p1)};
  st2.rows_out = fused.rows_after_p2;
  const int s2 = rec.AddStage(std::move(st2));
  SelVec x3 = std::move(fused.sel);
  TraceStage st3;
  st3.op = "select";
  st3.inputs = {PlanRecorder::Base("lineitem.l_discount",
                                   fused.rows_after_p2, 8, false),
                PlanRecorder::Inter(s2, fused.rows_after_p2)};
  st3.rows_out = static_cast<int64_t>(x3.size());
  const int s3 = rec.AddStage(std::move(st3));

  // X_4 / X_5 := projections; X_6 := multiply; X_7 := sum.
  auto x4 = Gather(ext, x3);
  RecordProject(&rec, "lineitem.l_extendedprice",
                static_cast<int64_t>(x3.size()), s3,
                static_cast<int64_t>(x3.size()));
  auto x5 = Gather(disc, x3);
  RecordProject(&rec, "lineitem.l_discount", static_cast<int64_t>(x3.size()),
                s3, static_cast<int64_t>(x3.size()));
  double revenue = 0.0;
  for (size_t i = 0; i < x4.size(); ++i) revenue += x4[i] * x5[i];
  TraceStage st_mul;
  st_mul.op = "aggregate";
  st_mul.inputs = {PlanRecorder::Inter(s3, static_cast<int64_t>(x3.size()))};
  st_mul.rows_out = 1;
  rec.AddStage(std::move(st_mul));

  QueryResult result;
  result.query = name;
  result.column_names = {"revenue"};
  result.rows.push_back({Value::F64(revenue)});
  return QueryOutput{std::move(result), rec.Take()};
}

}  // namespace

// Q6: forecasting revenue change (validation parameters).
QueryOutput Q6(const Database& db) {
  const Date from = MakeDate(1994, 1, 1);
  return Q6Pipeline(db, "Q6", from, AddYears(from, 1), 0.05, 0.07, 24.0);
}

// Q7: volume shipping between FRANCE and GERMANY.
QueryOutput Q7(const Database& db) {
  PlanRecorder rec("Q7", 6);
  const Table& L = db.lineitem;
  const Table& O = db.orders;
  const Table& C = db.customer;
  const Table& S = db.supplier;
  const Table& N = db.nation;
  const Date from = MakeDate(1995, 1, 1);
  const Date to = MakeDate(1996, 12, 31);

  const auto& n_name = N.str("n_name");
  int64_t france = -1;
  int64_t germany = -1;
  for (int64_t i = 0; i < N.num_rows(); ++i) {
    const std::string& nm = n_name[static_cast<size_t>(i)];
    if (nm == "FRANCE") france = i;
    if (nm == "GERMANY") germany = i;
  }
  ELASTIC_CHECK(france >= 0 && germany >= 0, "nations missing");

  const auto& ship = L.i64("l_shipdate");
  SelVec l_sel = SelectWhere(
      ship, [from, to](int64_t d) { return d >= from && d <= to; });
  const int st_line = RecordSelect(&rec, "lineitem.l_shipdate", L.num_rows(),
                                   static_cast<int64_t>(l_sel.size()));

  const auto& l_supp = L.i64("l_suppkey");
  const auto& l_order = L.i64("l_orderkey");
  const auto& s_nation = S.i64("s_nationkey");
  const auto& o_cust = O.i64("o_custkey");
  const auto& c_nation = C.i64("c_nationkey");
  const auto& ext = L.f64("l_extendedprice");
  const auto& disc = L.f64("l_discount");

  // Grouped by nation key (a nation's row id); names decode per result row.
  std::vector<int64_t> supp_nation_key;
  std::vector<int64_t> cust_nation_key;
  std::vector<int64_t> year_key;
  std::vector<double> volume;
  int64_t probed = 0;
  for (int64_t lrow : l_sel) {
    const size_t k = static_cast<size_t>(lrow);
    const int64_t sn = s_nation[static_cast<size_t>(l_supp[k] - 1)];
    if (sn != france && sn != germany) continue;
    probed++;
    const int64_t orow = l_order[k] - 1;  // orderkeys are dense 1..N
    const int64_t cn =
        c_nation[static_cast<size_t>(o_cust[static_cast<size_t>(orow)] - 1)];
    const bool pair_ok = (sn == france && cn == germany) ||
                         (sn == germany && cn == france);
    if (!pair_ok) continue;
    supp_nation_key.push_back(sn);
    cust_nation_key.push_back(cn);
    year_key.push_back(YearOf(ship[k]));
    volume.push_back(ext[k] * (1.0 - disc[k]));
  }
  RecordJoinProbe(&rec,
                  {PlanRecorder::Base("lineitem.l_suppkey",
                                      static_cast<int64_t>(l_sel.size()), 8, false),
                   PlanRecorder::Inter(st_line, static_cast<int64_t>(l_sel.size()))},
                  probed);

  Grouper grouper;
  grouper.AddI64Key(std::move(supp_nation_key));
  grouper.AddI64Key(std::move(cust_nation_key));
  grouper.AddI64Key(std::move(year_key));
  grouper.Finish();
  auto sums = SumPerGroup(volume, grouper.group_of(), grouper.num_groups());
  RecordGroup(&rec,
              {PlanRecorder::Base("orders.o_custkey",
                                  static_cast<int64_t>(volume.size()), 8, false)},
              static_cast<int64_t>(volume.size()), grouper.num_groups());

  QueryResult result;
  result.query = "Q7";
  result.column_names = {"supp_nation", "cust_nation", "l_year", "revenue"};
  for (int64_t g = 0; g < grouper.num_groups(); ++g) {
    const size_t supp = static_cast<size_t>(grouper.I64KeyOfGroup(0, g));
    const size_t cust = static_cast<size_t>(grouper.I64KeyOfGroup(1, g));
    result.rows.push_back({Value::Str(n_name[supp]), Value::Str(n_name[cust]),
                           Value::I64(grouper.I64KeyOfGroup(2, g)),
                           Value::F64(sums[static_cast<size_t>(g)])});
  }
  result.Sort({{0, true}, {1, true}, {2, true}});
  return QueryOutput{std::move(result), rec.Take()};
}

// Q8: national market share of BRAZIL for ECONOMY ANODIZED STEEL in AMERICA.
QueryOutput Q8(const Database& db) {
  PlanRecorder rec("Q8", 7);
  const Table& P = db.part;
  const Table& L = db.lineitem;
  const Table& O = db.orders;
  const Table& C = db.customer;
  const Table& S = db.supplier;
  const Table& N = db.nation;
  const Table& R = db.region;
  const Date from = MakeDate(1995, 1, 1);
  const Date to = MakeDate(1996, 12, 31);

  SelVec region_sel = SelectWhere(
      R.str("r_name"), [](const std::string& s) { return s == "AMERICA"; });
  const int64_t region_key = R.i64("r_regionkey")[static_cast<size_t>(region_sel[0])];
  const auto& n_regionkey = N.i64("n_regionkey");
  const auto& n_name = N.str("n_name");
  std::vector<bool> nation_in_america(N.num_rows(), false);
  int64_t brazil = -1;
  for (int64_t i = 0; i < N.num_rows(); ++i) {
    if (n_regionkey[static_cast<size_t>(i)] == region_key) {
      nation_in_america[static_cast<size_t>(i)] = true;
    }
    if (n_name[static_cast<size_t>(i)] == "BRAZIL") brazil = i;
  }

  const CodedStrings& p_type = P.coded("p_type");
  const CodeSet wanted = p_type.Match(
      [](const std::string& t) { return t == "ECONOMY ANODIZED STEEL"; });
  SelVec p_sel =
      SelectWhere(p_type.codes, [&wanted](uint8_t c) { return wanted[c]; });
  const int st_part = RecordSelect(&rec, "part.p_type", P.num_rows(),
                                   static_cast<int64_t>(p_sel.size()));
  HashJoin parts;
  parts.Build(P.i64("p_partkey"), &p_sel);
  RecordJoinBuild(&rec, {PlanRecorder::Inter(st_part, static_cast<int64_t>(p_sel.size()))},
                  static_cast<int64_t>(p_sel.size()));

  HashJoin::Pairs pairs = parts.Probe(L.i64("l_partkey"), nullptr);
  RecordJoinProbe(&rec, {PlanRecorder::Base("lineitem.l_partkey", L.num_rows())},
                  static_cast<int64_t>(pairs.size()));

  const auto& o_date = O.i64("o_orderdate");
  const auto& o_cust = O.i64("o_custkey");
  const auto& c_nation = C.i64("c_nationkey");
  const auto& s_nation = S.i64("s_nationkey");
  const auto& l_order = L.i64("l_orderkey");
  const auto& l_supp = L.i64("l_suppkey");
  const auto& ext = L.f64("l_extendedprice");
  const auto& disc = L.f64("l_discount");

  std::vector<int64_t> year_key;
  std::vector<double> volume;
  std::vector<double> brazil_volume;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const size_t lrow = static_cast<size_t>(pairs.probe_rows[i]);
    const size_t orow = static_cast<size_t>(l_order[lrow] - 1);
    const int64_t od = o_date[orow];
    if (od < from || od > to) continue;
    const int64_t cn = c_nation[static_cast<size_t>(o_cust[orow] - 1)];
    if (!nation_in_america[static_cast<size_t>(cn)]) continue;
    const int64_t sn = s_nation[static_cast<size_t>(l_supp[lrow] - 1)];
    const double v = ext[lrow] * (1.0 - disc[lrow]);
    year_key.push_back(YearOf(od));
    volume.push_back(v);
    brazil_volume.push_back(sn == brazil ? v : 0.0);
  }
  Grouper grouper;
  grouper.AddI64Key(year_key);
  grouper.Finish();
  auto total = SumPerGroup(volume, grouper.group_of(), grouper.num_groups());
  auto share = SumPerGroup(brazil_volume, grouper.group_of(), grouper.num_groups());
  RecordGroup(&rec,
              {PlanRecorder::Base("orders.o_orderdate",
                                  static_cast<int64_t>(volume.size()), 8, false)},
              static_cast<int64_t>(volume.size()), grouper.num_groups());

  QueryResult result;
  result.query = "Q8";
  result.column_names = {"o_year", "mkt_share"};
  for (int64_t g = 0; g < grouper.num_groups(); ++g) {
    const size_t k = static_cast<size_t>(g);
    result.rows.push_back(
        {Value::I64(grouper.I64KeyOfGroup(0, g)),
         Value::F64(total[k] > 0.0 ? share[k] / total[k] : 0.0)});
  }
  result.Sort({{0, true}});
  return QueryOutput{std::move(result), rec.Take()};
}

// Q9: product type profit measure ('%green%' parts).
QueryOutput Q9(const Database& db) {
  PlanRecorder rec("Q9", 8);
  const Table& P = db.part;
  const Table& L = db.lineitem;
  const Table& O = db.orders;
  const Table& S = db.supplier;
  const Table& N = db.nation;
  const Table& PS = db.partsupp;

  SelVec p_sel = SelectWhere(P.str("p_name"), [](const std::string& n) {
    return LikeContains(n, "green");
  });
  const int st_part = RecordSelect(&rec, "part.p_name", P.num_rows(),
                                   static_cast<int64_t>(p_sel.size()));
  HashJoin parts;
  parts.Build(P.i64("p_partkey"), &p_sel);
  RecordJoinBuild(&rec, {PlanRecorder::Inter(st_part, static_cast<int64_t>(p_sel.size()))},
                  static_cast<int64_t>(p_sel.size()));

  // partsupp cost lookup keyed by (partkey, suppkey); partsupp rows for a
  // part are contiguous (4 per part) so direct indexing works, but we build
  // a hash join to keep the plan honest.
  HashJoin ps_by_part;
  ps_by_part.Build(PS.i64("ps_partkey"), nullptr);
  RecordJoinBuild(&rec, {PlanRecorder::Base("partsupp.ps_partkey", PS.num_rows())},
                  PS.num_rows());

  const auto& l_part = L.i64("l_partkey");
  HashJoin::Pairs pairs = parts.Probe(l_part, nullptr);
  RecordJoinProbe(&rec, {PlanRecorder::Base("lineitem.l_partkey", L.num_rows())},
                  static_cast<int64_t>(pairs.size()));

  const auto& l_supp = L.i64("l_suppkey");
  const auto& l_order = L.i64("l_orderkey");
  const auto& l_qty = L.f64("l_quantity");
  const auto& ext = L.f64("l_extendedprice");
  const auto& disc = L.f64("l_discount");
  const auto& ps_supp = PS.i64("ps_suppkey");
  const auto& ps_cost = PS.f64("ps_supplycost");
  const auto& s_nation = S.i64("s_nationkey");
  const auto& o_date = O.i64("o_orderdate");

  std::vector<int64_t> nation_key;  // names decode per result row
  std::vector<int64_t> year_key;
  std::vector<double> amount;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const size_t lrow = static_cast<size_t>(pairs.probe_rows[i]);
    const int64_t partkey = l_part[lrow];
    const int64_t suppkey = l_supp[lrow];
    double cost = 0.0;
    for (int64_t ps_row : ps_by_part.RowsOf(partkey)) {
      if (ps_supp[static_cast<size_t>(ps_row)] == suppkey) {
        cost = ps_cost[static_cast<size_t>(ps_row)];
        break;
      }
    }
    const int64_t sn = s_nation[static_cast<size_t>(suppkey - 1)];
    const size_t orow = static_cast<size_t>(l_order[lrow] - 1);
    nation_key.push_back(sn);
    year_key.push_back(YearOf(o_date[orow]));
    amount.push_back(ext[lrow] * (1.0 - disc[lrow]) - cost * l_qty[lrow]);
  }
  Grouper grouper;
  grouper.AddI64Key(std::move(nation_key));
  grouper.AddI64Key(std::move(year_key));
  grouper.Finish();
  auto sums = SumPerGroup(amount, grouper.group_of(), grouper.num_groups());
  RecordGroup(&rec,
              {PlanRecorder::Base("partsupp.ps_supplycost",
                                  static_cast<int64_t>(amount.size()), 8, false)},
              static_cast<int64_t>(amount.size()), grouper.num_groups());

  const auto& n_name = N.str("n_name");
  QueryResult result;
  result.query = "Q9";
  result.column_names = {"nation", "o_year", "sum_profit"};
  for (int64_t g = 0; g < grouper.num_groups(); ++g) {
    const size_t nation = static_cast<size_t>(grouper.I64KeyOfGroup(0, g));
    result.rows.push_back({Value::Str(n_name[nation]),
                           Value::I64(grouper.I64KeyOfGroup(1, g)),
                           Value::F64(sums[static_cast<size_t>(g)])});
  }
  result.Sort({{0, true}, {1, false}});
  return QueryOutput{std::move(result), rec.Take()};
}

// Q10: returned item reporting — top 20 customers by lost revenue.
QueryOutput Q10(const Database& db) {
  PlanRecorder rec("Q10", 9);
  const Table& C = db.customer;
  const Table& O = db.orders;
  const Table& L = db.lineitem;
  const Table& N = db.nation;
  const Date from = MakeDate(1993, 10, 1);
  const Date to = AddMonths(from, 3);

  const auto& o_date = O.i64("o_orderdate");
  SelVec o_sel = SelectWhere(
      o_date, [from, to](int64_t d) { return d >= from && d < to; });
  const int st_ord = RecordSelect(&rec, "orders.o_orderdate", O.num_rows(),
                                  static_cast<int64_t>(o_sel.size()));
  HashJoin orders;
  orders.Build(O.i64("o_orderkey"), &o_sel);
  RecordJoinBuild(&rec, {PlanRecorder::Inter(st_ord, static_cast<int64_t>(o_sel.size()))},
                  static_cast<int64_t>(o_sel.size()));

  const CodedStrings& flag = L.coded("l_returnflag");
  const CodeSet returned =
      flag.Match([](const std::string& f) { return f == "R"; });
  SelVec l_sel =
      SelectWhere(flag.codes, [&returned](uint8_t c) { return returned[c]; });
  const int st_line = RecordSelect(&rec, "lineitem.l_returnflag", L.num_rows(),
                                   static_cast<int64_t>(l_sel.size()));
  HashJoin::Pairs pairs = orders.Probe(L.i64("l_orderkey"), &l_sel);
  RecordJoinProbe(&rec,
                  {PlanRecorder::Base("lineitem.l_orderkey",
                                      static_cast<int64_t>(l_sel.size()), 8, false),
                   PlanRecorder::Inter(st_line, static_cast<int64_t>(l_sel.size()))},
                  static_cast<int64_t>(pairs.size()));

  const auto& ext = L.f64("l_extendedprice");
  const auto& disc = L.f64("l_discount");
  const auto& o_cust = O.i64("o_custkey");
  std::vector<int64_t> cust_key;
  std::vector<double> revenue;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const size_t lrow = static_cast<size_t>(pairs.probe_rows[i]);
    const size_t orow = static_cast<size_t>(pairs.build_rows[i]);
    cust_key.push_back(o_cust[orow]);
    revenue.push_back(ext[lrow] * (1.0 - disc[lrow]));
  }
  Grouper grouper;
  grouper.AddI64Key(cust_key);
  grouper.Finish();
  auto sums = SumPerGroup(revenue, grouper.group_of(), grouper.num_groups());
  RecordGroup(&rec,
              {PlanRecorder::Base("orders.o_custkey",
                                  static_cast<int64_t>(revenue.size()), 8, false)},
              static_cast<int64_t>(revenue.size()), grouper.num_groups());

  const auto& c_nationkey = C.i64("c_nationkey");
  const auto& c_name = C.str("c_name");
  const auto& c_acctbal = C.f64("c_acctbal");
  const auto& c_address = C.str("c_address");
  const auto& c_phone = C.str("c_phone");
  const auto& n_name = N.str("n_name");
  QueryResult result;
  result.query = "Q10";
  result.column_names = {"c_custkey", "c_name", "revenue", "c_acctbal",
                         "n_name", "c_address", "c_phone"};
  for (int64_t g = 0; g < grouper.num_groups(); ++g) {
    const int64_t custkey = grouper.I64KeyOfGroup(0, g);
    const size_t crow = static_cast<size_t>(custkey - 1);
    const int64_t nation = c_nationkey[crow];
    result.rows.push_back(
        {Value::I64(custkey), Value::Str(c_name[crow]),
         Value::F64(sums[static_cast<size_t>(g)]), Value::F64(c_acctbal[crow]),
         Value::Str(n_name[static_cast<size_t>(nation)]),
         Value::Str(c_address[crow]), Value::Str(c_phone[crow])});
  }
  result.Sort({{2, false}});
  result.Limit(20);
  return QueryOutput{std::move(result), rec.Take()};
}

}  // namespace elastic::db::queries_internal

namespace elastic::db {

QueryOutput RunQ6Paper(const Database& db) {
  const Date from = MakeDate(1997, 1, 1);
  return queries_internal::Q6Pipeline(db, "Q6paper", from, AddYears(from, 1),
                                      0.06, 0.08, 24.0);
}

QueryOutput RunThetaSubselect(const Database& db, double selectivity) {
  ELASTIC_CHECK(selectivity > 0.0 && selectivity <= 1.0,
                "selectivity must be in (0,1]");
  PlanRecorder rec("thetasubselect", 5);
  const Table& L = db.lineitem;
  const auto& qty = L.f64("l_quantity");
  // l_quantity is uniform over [1, 50]: quantity < 1 + 50*s selects ~s.
  const double threshold = 1.0 + 50.0 * selectivity;
  SelVec sel = SelectWhere(qty, [threshold](double q) { return q < threshold; });
  const int s0 = queries_internal::RecordSelect(
      &rec, "lineitem.l_quantity", L.num_rows(), static_cast<int64_t>(sel.size()));
  // Materialise the qualifying values, as MonetDB's BAT pipeline would.
  auto values = Gather(qty, sel);
  queries_internal::RecordProject(&rec, "lineitem.l_quantity",
                                  static_cast<int64_t>(sel.size()), s0,
                                  static_cast<int64_t>(sel.size()));
  double sum = 0.0;
  for (double v : values) sum += v;

  QueryResult result;
  result.query = "thetasubselect";
  result.column_names = {"count", "sum"};
  result.rows.push_back(
      {Value::I64(static_cast<int64_t>(sel.size())), Value::F64(sum)});
  return QueryOutput{std::move(result), rec.Take()};
}

}  // namespace elastic::db
