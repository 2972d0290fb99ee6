#include "db/column.h"

#include "simcore/check.h"

namespace elastic::db {

const Column& Table::col(const std::string& column) const {
  auto it = columns.find(column);
  ELASTIC_CHECK(it != columns.end(), "unknown column");
  return it->second;
}

Column& Table::col(const std::string& column) {
  auto it = columns.find(column);
  ELASTIC_CHECK(it != columns.end(), "unknown column");
  return it->second;
}

const std::vector<int64_t>& Table::i64(const std::string& column) const {
  const Column& c = col(column);
  ELASTIC_CHECK(c.type == ColType::kI64, "column is not i64");
  return c.i64;
}

const std::vector<double>& Table::f64(const std::string& column) const {
  const Column& c = col(column);
  ELASTIC_CHECK(c.type == ColType::kF64, "column is not f64");
  return c.f64;
}

const std::vector<std::string>& Table::str(const std::string& column) const {
  const Column& c = col(column);
  ELASTIC_CHECK(c.type == ColType::kStr, "column is not str");
  return c.str;
}

const CodedStrings& Table::coded(const std::string& column) const {
  const Column& c = col(column);
  ELASTIC_CHECK(c.type == ColType::kCoded, "column is not coded");
  return c.coded;
}

const Table& Database::table(const std::string& name) const {
  if (name == "region") return region;
  if (name == "nation") return nation;
  if (name == "supplier") return supplier;
  if (name == "customer") return customer;
  if (name == "part") return part;
  if (name == "partsupp") return partsupp;
  if (name == "orders") return orders;
  if (name == "lineitem") return lineitem;
  ELASTIC_CHECK(false, "unknown table");
  return region;
}

std::vector<const Table*> Database::AllTables() const {
  return {&region, &nation, &supplier, &customer,
          &part,   &partsupp, &orders, &lineitem};
}

}  // namespace elastic::db
