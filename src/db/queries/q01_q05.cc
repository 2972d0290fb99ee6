// TPC-H Q1..Q5 over the columnar mini-engine, with plan-trace recording.
// Parameters are the TPC-H validation values.

#include <cmath>

#include "db/queries/common.h"

namespace elastic::db::queries_internal {

// Q1: pricing summary report.
QueryOutput Q1(const Database& db) {
  PlanRecorder rec("Q1", 0);
  const Table& L = db.lineitem;
  const auto& ship = L.i64("l_shipdate");
  const Date cutoff = AddDays(MakeDate(1998, 12, 1), -90);

  SelVec sel = SelectWhere(ship, [cutoff](int64_t d) { return d <= cutoff; });
  const int s_sel = RecordSelect(&rec, "lineitem.l_shipdate",
                                 static_cast<int64_t>(ship.size()),
                                 static_cast<int64_t>(sel.size()));

  // The projections stay in the plan (the simulator replays them), but the
  // executor reads the base columns through `sel` instead of gathering them:
  // one fused pass below computes every aggregate.
  const int64_t n = static_cast<int64_t>(sel.size());
  int last = s_sel;
  for (const char* col :
       {"lineitem.l_returnflag", "lineitem.l_linestatus", "lineitem.l_quantity",
        "lineitem.l_extendedprice", "lineitem.l_discount", "lineitem.l_tax"}) {
    last = RecordProject(&rec, col, n, s_sel, n);
  }

  // One aggregate cell per (returnflag, linestatus) code pair. Each cell's
  // sums accumulate in row order from 0.0, exactly as SumPerGroup does over
  // gathered vectors, so every f64 bit is the same; each average divides
  // its sum by the cell's count. A group is a cell that counted a row.
  struct Agg {
    double qty = 0.0, base = 0.0, disc_price = 0.0, charge = 0.0, disc = 0.0;
    int64_t count = 0;
  };
  const CodedStrings& flag = L.coded("l_returnflag");
  const CodedStrings& status = L.coded("l_linestatus");
  const size_t statuses = status.dict.size();
  std::vector<Agg> aggs(flag.dict.size() * statuses);
  const auto& quantity = L.f64("l_quantity");
  const auto& extprice = L.f64("l_extendedprice");
  const auto& discount = L.f64("l_discount");
  const auto& tax = L.f64("l_tax");
  for (const int64_t selected : sel) {
    const size_t row = static_cast<size_t>(selected);
    Agg& a = aggs[flag.codes[row] * statuses + status.codes[row]];
    const double disc_price = extprice[row] * (1.0 - discount[row]);
    a.qty += quantity[row];
    a.base += extprice[row];
    a.disc_price += disc_price;
    a.charge += disc_price * (1.0 + tax[row]);
    a.disc += discount[row];
    a.count++;
  }
  int64_t groups = 0;
  for (const Agg& a : aggs) groups += a.count > 0 ? 1 : 0;
  RecordGroup(&rec, {PlanRecorder::Inter(last, n)}, n, groups);

  QueryResult result;
  result.query = "Q1";
  result.column_names = {"l_returnflag", "l_linestatus", "sum_qty",
                         "sum_base_price", "sum_disc_price", "sum_charge",
                         "avg_qty", "avg_price", "avg_disc", "count_order"};
  for (size_t cell = 0; cell < aggs.size(); ++cell) {
    const Agg& a = aggs[cell];
    if (a.count == 0) continue;
    const double count = static_cast<double>(a.count);
    result.rows.push_back({Value::Str(flag.dict[cell / statuses]),
                           Value::Str(status.dict[cell % statuses]),
                           Value::F64(a.qty), Value::F64(a.base),
                           Value::F64(a.disc_price), Value::F64(a.charge),
                           Value::F64(a.qty / count),
                           Value::F64(a.base / count),
                           Value::F64(a.disc / count), Value::I64(a.count)});
  }
  result.Sort({{0, true}, {1, true}});
  return QueryOutput{std::move(result), rec.Take()};
}

// Q2: minimum-cost supplier for size-15 %BRASS parts in EUROPE.
QueryOutput Q2(const Database& db) {
  PlanRecorder rec("Q2", 1);
  const Table& P = db.part;
  const Table& S = db.supplier;
  const Table& PS = db.partsupp;
  const Table& N = db.nation;
  const Table& R = db.region;

  // Region -> nation set.
  SelVec region_sel = SelectWhere(R.str("r_name"),
                                  [](const std::string& s) { return s == "EUROPE"; });
  const int64_t region_key = R.i64("r_regionkey")[static_cast<size_t>(region_sel[0])];
  SelVec euro_nations = SelectWhere(N.i64("n_regionkey"),
                                    [region_key](int64_t r) { return r == region_key; });
  std::vector<bool> nation_in_europe(N.i64("n_nationkey").size(), false);
  for (int64_t row : euro_nations) nation_in_europe[static_cast<size_t>(row)] = true;

  // European suppliers.
  const auto& s_nation = S.i64("s_nationkey");
  SelVec s_sel = SelectWhere(s_nation, [&](int64_t nk) {
    return nation_in_europe[static_cast<size_t>(nk)];
  });
  const int st_supp = RecordSelect(&rec, "supplier.s_nationkey",
                                   static_cast<int64_t>(s_nation.size()),
                                   static_cast<int64_t>(s_sel.size()));
  const auto& s_suppkey = S.i64("s_suppkey");
  std::vector<bool> supp_ok(s_nation.size() + 1, false);
  for (int64_t row : s_sel) {
    supp_ok[static_cast<size_t>(s_suppkey[static_cast<size_t>(row)])] = true;
  }

  // Parts: p_size = 15 and p_type like '%BRASS'.
  const auto& p_size = P.i64("p_size");
  const CodedStrings& p_type = P.coded("p_type");
  const CodeSet brass = p_type.Match(
      [](const std::string& t) { return LikeEndsWith(t, "BRASS"); });
  SelVec p_sel = SelectWhere(p_size, [](int64_t s) { return s == 15; });
  p_sel = Refine(p_type.codes, p_sel, [&brass](uint8_t c) { return brass[c]; });
  const int st_part = RecordSelect(&rec, "part.p_size",
                                   static_cast<int64_t>(p_size.size()),
                                   static_cast<int64_t>(p_sel.size()));

  // Partsupp restricted to European suppliers, hashed by part.
  HashJoin ps_by_part;
  const auto& ps_part = PS.i64("ps_partkey");
  const auto& ps_supp = PS.i64("ps_suppkey");
  const auto& ps_cost = PS.f64("ps_supplycost");
  SelVec ps_sel = SelectWhere(ps_supp, [&](int64_t sk) {
    return supp_ok[static_cast<size_t>(sk)];
  });
  ps_by_part.Build(ps_part, &ps_sel);
  RecordJoinBuild(&rec,
                  {PlanRecorder::Base("partsupp.ps_partkey",
                                      static_cast<int64_t>(ps_part.size())),
                   PlanRecorder::Inter(st_supp, static_cast<int64_t>(ps_sel.size()))},
                  static_cast<int64_t>(ps_sel.size()));

  // Supplier row by key for output columns.
  HashJoin supp_by_key;
  supp_by_key.Build(s_suppkey, nullptr);

  const auto& p_partkey = P.i64("p_partkey");
  const CodedStrings& p_mfgr = P.coded("p_mfgr");
  const auto& s_acctbal = S.f64("s_acctbal");
  const auto& s_name = S.str("s_name");
  const auto& s_address = S.str("s_address");
  const auto& s_phone = S.str("s_phone");
  const auto& s_comment = S.str("s_comment");
  const auto& n_name = N.str("n_name");
  QueryResult result;
  result.query = "Q2";
  result.column_names = {"s_acctbal", "s_name", "n_name", "p_partkey",
                         "p_mfgr", "s_address", "s_phone", "s_comment"};
  int64_t probe_pairs = 0;
  for (int64_t prow : p_sel) {
    const int64_t partkey = p_partkey[static_cast<size_t>(prow)];
    const HashJoin::RowSpan entries = ps_by_part.RowsOf(partkey);
    if (entries.empty()) continue;
    double min_cost = 0.0;
    bool first = true;
    for (int64_t ps_row : entries) {
      probe_pairs++;
      const double cost = ps_cost[static_cast<size_t>(ps_row)];
      if (first || cost < min_cost) {
        min_cost = cost;
        first = false;
      }
    }
    for (int64_t ps_row : entries) {
      if (ps_cost[static_cast<size_t>(ps_row)] != min_cost) continue;
      const int64_t suppkey = ps_supp[static_cast<size_t>(ps_row)];
      const int64_t s_row = supp_by_key.RowsOf(suppkey)[0];
      const size_t sk = static_cast<size_t>(s_row);
      const int64_t nationkey = s_nation[sk];
      result.rows.push_back(
          {Value::F64(s_acctbal[sk]), Value::Str(s_name[sk]),
           Value::Str(n_name[static_cast<size_t>(nationkey)]),
           Value::I64(partkey), Value::Str(p_mfgr.at(static_cast<size_t>(prow))),
           Value::Str(s_address[sk]), Value::Str(s_phone[sk]),
           Value::Str(s_comment[sk])});
    }
  }
  RecordJoinProbe(&rec,
                  {PlanRecorder::Inter(st_part, static_cast<int64_t>(p_sel.size())),
                   PlanRecorder::Base("partsupp.ps_supplycost", probe_pairs, 8,
                                      /*dense=*/false)},
                  probe_pairs);
  result.Sort({{0, false}, {2, true}, {1, true}, {3, true}});
  result.Limit(100);
  return QueryOutput{std::move(result), rec.Take()};
}

// Q3: shipping priority — top unshipped orders by revenue.
QueryOutput Q3(const Database& db) {
  PlanRecorder rec("Q3", 2);
  const Table& C = db.customer;
  const Table& O = db.orders;
  const Table& L = db.lineitem;
  const Date pivot = MakeDate(1995, 3, 15);

  const CodedStrings& segment = C.coded("c_mktsegment");
  const CodeSet building =
      segment.Match([](const std::string& s) { return s == "BUILDING"; });
  SelVec c_sel = SelectWhere(segment.codes,
                             [&building](uint8_t c) { return building[c]; });
  const int st_cust = RecordSelect(&rec, "customer.c_mktsegment",
                                   C.num_rows(), static_cast<int64_t>(c_sel.size()));

  HashJoin cust;
  cust.Build(C.i64("c_custkey"), &c_sel);
  RecordJoinBuild(&rec, {PlanRecorder::Inter(st_cust, static_cast<int64_t>(c_sel.size()))},
                  static_cast<int64_t>(c_sel.size()));

  const auto& o_date = O.i64("o_orderdate");
  SelVec o_sel = SelectWhere(o_date, [pivot](int64_t d) { return d < pivot; });
  const int st_ord = RecordSelect(&rec, "orders.o_orderdate", O.num_rows(),
                                  static_cast<int64_t>(o_sel.size()));
  const auto& o_cust = O.i64("o_custkey");
  SelVec o_match = Refine(o_cust, o_sel,
                          [&cust](int64_t ck) { return cust.Contains(ck); });
  RecordJoinProbe(&rec,
                  {PlanRecorder::Base("orders.o_custkey",
                                      static_cast<int64_t>(o_sel.size()), 8, false),
                   PlanRecorder::Inter(st_ord, static_cast<int64_t>(o_sel.size()))},
                  static_cast<int64_t>(o_match.size()));

  HashJoin orders;
  orders.Build(O.i64("o_orderkey"), &o_match);

  const auto& l_ship = L.i64("l_shipdate");
  SelVec l_sel = SelectWhere(l_ship, [pivot](int64_t d) { return d > pivot; });
  const int st_line = RecordSelect(&rec, "lineitem.l_shipdate", L.num_rows(),
                                   static_cast<int64_t>(l_sel.size()));
  HashJoin::Pairs pairs = orders.Probe(L.i64("l_orderkey"), &l_sel);
  RecordJoinProbe(&rec,
                  {PlanRecorder::Base("lineitem.l_orderkey",
                                      static_cast<int64_t>(l_sel.size()), 8, false),
                   PlanRecorder::Inter(st_line, static_cast<int64_t>(l_sel.size()))},
                  static_cast<int64_t>(pairs.size()));

  Grouper grouper;
  grouper.AddI64Key(Gather(O.i64("o_orderkey"), pairs.build_rows));
  grouper.Finish();
  const int64_t groups = grouper.num_groups();
  RecordGroup(&rec,
              {PlanRecorder::Base("lineitem.l_extendedprice",
                                  static_cast<int64_t>(pairs.size()), 8, false)},
              static_cast<int64_t>(pairs.size()), groups);

  std::vector<double> revenue(pairs.size());
  const auto& ext = L.f64("l_extendedprice");
  const auto& disc = L.f64("l_discount");
  for (size_t i = 0; i < pairs.size(); ++i) {
    const size_t lrow = static_cast<size_t>(pairs.probe_rows[i]);
    revenue[i] = ext[lrow] * (1.0 - disc[lrow]);
  }
  auto rev_per_group = SumPerGroup(revenue, grouper.group_of(), groups);

  const auto& o_shippriority = O.i64("o_shippriority");
  QueryResult result;
  result.query = "Q3";
  result.column_names = {"l_orderkey", "revenue", "o_orderdate", "o_shippriority"};
  for (int64_t g = 0; g < groups; ++g) {
    const size_t orow = static_cast<size_t>(
        pairs.build_rows[static_cast<size_t>(grouper.representative_rows()[static_cast<size_t>(g)])]);
    result.rows.push_back({Value::I64(grouper.I64KeyOfGroup(0, g)),
                           Value::F64(rev_per_group[static_cast<size_t>(g)]),
                           Value::Str(DateToString(o_date[orow])),
                           Value::I64(o_shippriority[orow])});
  }
  result.Sort({{1, false}, {2, true}});
  result.Limit(10);
  return QueryOutput{std::move(result), rec.Take()};
}

// Q4: order priority checking.
QueryOutput Q4(const Database& db) {
  PlanRecorder rec("Q4", 3);
  const Table& O = db.orders;
  const Table& L = db.lineitem;
  const Date from = MakeDate(1993, 7, 1);
  const Date to = AddMonths(from, 3);

  const auto& o_date = O.i64("o_orderdate");
  SelVec o_sel = SelectWhere(
      o_date, [from, to](int64_t d) { return d >= from && d < to; });
  const int st_ord = RecordSelect(&rec, "orders.o_orderdate", O.num_rows(),
                                  static_cast<int64_t>(o_sel.size()));

  // Lineitems that arrived late (commitdate < receiptdate) — semi-join set.
  // Correlated two-column predicate, fused via the index-based kernel.
  const int64_t* l_commit = L.i64("l_commitdate").data();
  const int64_t* l_receipt = L.i64("l_receiptdate").data();
  const auto& l_order = L.i64("l_orderkey");
  SelVec late = kernels::SelectWhereIdx(
      L.num_rows(), [l_commit, l_receipt](int64_t i) {
        return l_commit[i] < l_receipt[i];
      });
  const int st_late = RecordSelect(&rec, "lineitem.l_commitdate", L.num_rows(),
                                   static_cast<int64_t>(late.size()));
  HashJoin late_orders;
  late_orders.Build(l_order, &late);
  RecordJoinBuild(&rec, {PlanRecorder::Inter(st_late, static_cast<int64_t>(late.size()))},
                  static_cast<int64_t>(late.size()));

  const auto& o_key = O.i64("o_orderkey");
  SelVec matched = Refine(o_key, o_sel, [&late_orders](int64_t k) {
    return late_orders.Contains(k);
  });
  RecordJoinProbe(&rec,
                  {PlanRecorder::Base("orders.o_orderkey",
                                      static_cast<int64_t>(o_sel.size()), 8, false),
                   PlanRecorder::Inter(st_ord, static_cast<int64_t>(o_sel.size()))},
                  static_cast<int64_t>(matched.size()));

  // Orders counted per priority code; a group is a priority that counted
  // an order.
  const CodedStrings& priority = O.coded("o_orderpriority");
  std::vector<int64_t> counts(priority.dict.size(), 0);
  for (int64_t row : matched) counts[priority.codes[static_cast<size_t>(row)]]++;
  int64_t groups = 0;
  for (int64_t count : counts) groups += count > 0 ? 1 : 0;
  RecordGroup(&rec,
              {PlanRecorder::Base("orders.o_orderpriority",
                                  static_cast<int64_t>(matched.size()), 8, false)},
              static_cast<int64_t>(matched.size()), groups);

  QueryResult result;
  result.query = "Q4";
  result.column_names = {"o_orderpriority", "order_count"};
  for (size_t code = 0; code < counts.size(); ++code) {
    if (counts[code] == 0) continue;
    result.rows.push_back(
        {Value::Str(priority.dict[code]), Value::I64(counts[code])});
  }
  result.Sort({{0, true}});
  return QueryOutput{std::move(result), rec.Take()};
}

// Q5: local supplier volume in ASIA, 1994.
QueryOutput Q5(const Database& db) {
  PlanRecorder rec("Q5", 4);
  const Table& C = db.customer;
  const Table& O = db.orders;
  const Table& L = db.lineitem;
  const Table& S = db.supplier;
  const Table& N = db.nation;
  const Table& R = db.region;
  const Date from = MakeDate(1994, 1, 1);
  const Date to = AddYears(from, 1);

  SelVec region_sel = SelectWhere(R.str("r_name"),
                                  [](const std::string& s) { return s == "ASIA"; });
  const int64_t region_key = R.i64("r_regionkey")[static_cast<size_t>(region_sel[0])];
  const auto& n_regionkey = N.i64("n_regionkey");
  std::vector<bool> nation_in_asia(N.num_rows(), false);
  for (int64_t i = 0; i < N.num_rows(); ++i) {
    if (n_regionkey[static_cast<size_t>(i)] == region_key) {
      nation_in_asia[static_cast<size_t>(i)] = true;
    }
  }

  // Orders in 1994 joined to customers in ASIA.
  const auto& o_date = O.i64("o_orderdate");
  SelVec o_sel = SelectWhere(
      o_date, [from, to](int64_t d) { return d >= from && d < to; });
  const int st_ord = RecordSelect(&rec, "orders.o_orderdate", O.num_rows(),
                                  static_cast<int64_t>(o_sel.size()));
  const auto& o_cust = O.i64("o_custkey");
  const auto& c_nation = C.i64("c_nationkey");
  SelVec o_match = Refine(o_cust, o_sel, [&](int64_t ck) {
    // custkey is dense 1..N: nation lookup without a join structure.
    return nation_in_asia[static_cast<size_t>(
        c_nation[static_cast<size_t>(ck - 1)])];
  });
  RecordJoinProbe(&rec,
                  {PlanRecorder::Base("customer.c_nationkey",
                                      static_cast<int64_t>(o_sel.size()), 8, false),
                   PlanRecorder::Inter(st_ord, static_cast<int64_t>(o_sel.size()))},
                  static_cast<int64_t>(o_match.size()));

  HashJoin orders;
  orders.Build(O.i64("o_orderkey"), &o_match);
  RecordJoinBuild(&rec, {PlanRecorder::Inter(st_ord, static_cast<int64_t>(o_match.size()))},
                  static_cast<int64_t>(o_match.size()));

  HashJoin::Pairs pairs = orders.Probe(L.i64("l_orderkey"), nullptr);
  RecordJoinProbe(&rec,
                  {PlanRecorder::Base("lineitem.l_orderkey", L.num_rows())},
                  static_cast<int64_t>(pairs.size()));

  // Keep pairs where the supplier nation equals the customer nation (both in
  // ASIA by construction of the order set).
  const auto& l_supp = L.i64("l_suppkey");
  const auto& s_nation = S.i64("s_nationkey");
  const auto& ext = L.f64("l_extendedprice");
  const auto& disc = L.f64("l_discount");
  std::vector<int64_t> group_nation;
  std::vector<double> revenue;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const size_t lrow = static_cast<size_t>(pairs.probe_rows[i]);
    const size_t orow = static_cast<size_t>(pairs.build_rows[i]);
    const int64_t custkey = o_cust[orow];
    const int64_t cust_nation = c_nation[static_cast<size_t>(custkey - 1)];
    const int64_t suppkey = l_supp[lrow];
    const int64_t supp_nation = s_nation[static_cast<size_t>(suppkey - 1)];
    if (cust_nation != supp_nation) continue;
    group_nation.push_back(supp_nation);
    revenue.push_back(ext[lrow] * (1.0 - disc[lrow]));
  }

  Grouper grouper;
  grouper.AddI64Key(group_nation);
  grouper.Finish();
  auto sums = SumPerGroup(revenue, grouper.group_of(), grouper.num_groups());
  RecordGroup(&rec,
              {PlanRecorder::Base("lineitem.l_extendedprice",
                                  static_cast<int64_t>(revenue.size()), 8, false)},
              static_cast<int64_t>(revenue.size()), grouper.num_groups());

  const auto& n_name = N.str("n_name");
  QueryResult result;
  result.query = "Q5";
  result.column_names = {"n_name", "revenue"};
  for (int64_t g = 0; g < grouper.num_groups(); ++g) {
    const int64_t nation = grouper.I64KeyOfGroup(0, g);
    result.rows.push_back(
        {Value::Str(n_name[static_cast<size_t>(nation)]),
         Value::F64(sums[static_cast<size_t>(g)])});
  }
  result.Sort({{1, false}});
  return QueryOutput{std::move(result), rec.Take()};
}

}  // namespace elastic::db::queries_internal
